(* The structure theorems behind the (5/4+eps) algorithm, run on a
   real optimal packing: Lemma 4 (start-point reduction), Lemma 5
   (box partition), Lemma 6 (low-box sorting) and Lemma 8 (three-line
   tall assignment).

   Run with: dune exec examples/structural_lemmas.exe *)

open Dsp_core
module Rat = Dsp_util.Rat

let () =
  (* Towers plus flat wide items: a shape with all item classes. *)
  let inst =
    Instance.of_dims ~width:24
      ([ (2, 70); (3, 66); (2, 68); (4, 30); (2, 18) ]
      @ List.init 4 (fun _ -> (14, 1)))
  in
  let pk =
    match
      Dsp_util.Budget.within ~nodes:5_000_000 (fun budget ->
          Dsp_exact.Dsp_bb.solve ~budget inst)
    with
    | Some pk -> pk
    | None -> Dsp_algo.Baselines.best_fit_decreasing inst
  in
  Printf.printf "packing peak: %d (lower bound %d)\n\n" (Packing.height pk)
    (Instance.lower_bound inst);

  (* Lemmas 4 and 5. *)
  let params =
    Dsp_algo.Classify.choose_params inst ~target:(Packing.height pk)
      ~eps:(Rat.make 1 4)
  in
  let stats = Dsp_algo.Boxes.partition_stats pk params in
  Format.printf "Lemma 4/5 partition of the optimal packing:@.%a@.@."
    Dsp_algo.Boxes.pp_stats stats;

  (* Lemma 6: sort a low box of tall items. *)
  let low_items =
    [ (Item.make ~id:0 ~w:3 ~h:5, 2); (Item.make ~id:1 ~w:2 ~h:8, 6);
      (Item.make ~id:2 ~w:4 ~h:5, 9) ]
  in
  let low = Dsp_algo.Restructure.sort_low_box ~box_len:14 ~items:low_items in
  Printf.printf "Lemma 6 low-box sort: %d tall boxes; verified: %b\n"
    low.Dsp_algo.Restructure.tall_boxes
    (Result.is_ok
       (Dsp_algo.Restructure.verify_low ~box_len:14 ~box_height:10
          ~items:low_items low));

  (* Lemma 8: assign stacked tall items to the three lines. *)
  let tall_items =
    [ (Item.make ~id:0 ~w:4 ~h:4, 0); (Item.make ~id:1 ~w:3 ~h:3, 0);
      (Item.make ~id:2 ~w:5 ~h:3, 0); (Item.make ~id:3 ~w:4 ~h:6, 4) ]
  in
  let a = Dsp_algo.Tall_assignment.assign ~box_height:10 ~quarter:3 ~items:tall_items in
  Printf.printf "Lemma 8 assignment (%d repair swaps):\n"
    a.Dsp_algo.Tall_assignment.repairs;
  List.iter
    (fun (id, lines) ->
      Printf.printf "  item %d -> %s\n" id
        (String.concat "+"
           (List.map
              (function
                | Dsp_algo.Tall_assignment.Bottom_line -> "bottom"
                | Dsp_algo.Tall_assignment.Middle_line -> "middle"
                | Dsp_algo.Tall_assignment.Top_line -> "top")
              lines)))
    a.Dsp_algo.Tall_assignment.lines;
  Printf.printf "verified: %b\n"
    (Result.is_ok
       (Dsp_algo.Tall_assignment.verify ~box_height:10 ~quarter:3
          ~items:tall_items a))
