(* E14/E15: the structure theorem in practice — Lemma 4's start-point
   reduction and Lemma 5's box partition on exact optimal packings,
   and Lemma 8's tall-item assignment on random feasible boxes. *)

open Dsp_core
module Rng = Dsp_util.Rng
module Rat = Dsp_util.Rat

let e14 () =
  Common.section "E14" "structural lemmas 4/5 on exact optimal packings";
  Printf.printf "%-6s %8s %8s %10s %8s %8s %8s %10s\n" "seed" "peak" "snapped"
    "h-starts" "largeB" "horizB" "tvB" "tv-bound";
  List.iter
    (fun seed ->
      let rng = Rng.create (Common.seed_for seed) in
      (* A mix with genuinely horizontal items (flat and wide): the
         horizontal class needs h <= mu*OPT, so the optimum must be
         large relative to the flat items' heights. *)
      let tall =
        List.init 5 (fun _ -> (Rng.int_in rng 2 6, Rng.int_in rng 40 70))
      in
      let flats =
        List.init (4 + (seed mod 3)) (fun _ ->
            (Rng.int_in rng 12 20, 1))
      in
      let inst = Instance.of_dims ~width:24 (tall @ flats) in
      match
        Dsp_util.Budget.within ~nodes:3_000_000 (fun budget ->
            Dsp_exact.Dsp_bb.solve ~budget inst)
      with
      | None -> Printf.printf "%-6d budget exhausted\n" seed
      | Some pk ->
          let target = Packing.height pk in
          let p =
            Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4)
          in
          let s = Dsp_algo.Boxes.partition_stats pk p in
          Printf.printf "%-6d %8d %8d %10d %8d %8d %8d %10d\n" seed
            s.Dsp_algo.Boxes.peak_before s.Dsp_algo.Boxes.peak_after
            s.Dsp_algo.Boxes.horizontal_start_points
            s.Dsp_algo.Boxes.n_large_boxes s.Dsp_algo.Boxes.n_horizontal_boxes
            s.Dsp_algo.Boxes.n_tall_vertical_boxes s.Dsp_algo.Boxes.tv_box_bound)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  print_endline
    "(Lemma 4: snapped peak <= peak + O(eps)*OPT; Lemma 5: box counts are\n\
    \ instance-independent, bounded by the O_eps(1) expressions shown)"

let e15 () =
  Common.section "E15" "Lemma 8 tall-item assignment on random boxes";
  Printf.printf "%-10s %8s %8s %10s\n" "quarter" "boxes" "verified" "avg-swaps";
  List.iter
    (fun quarter ->
      let rng = Rng.create (Common.seed_for (40 + quarter)) in
      let ok = ref 0 and total = ref 0 and swaps = ref 0 in
      for _ = 1 to 200 do
        let box_height = (3 * quarter) + Rng.int_in rng 1 quarter in
        let len = Rng.int_in rng 6 16 in
        let profile = Array.make len 0 in
        let items = ref [] in
        let id = ref 0 in
        for _ = 1 to 8 do
          let w = Rng.int_in rng 1 (max 1 (len / 2)) in
          let h = Rng.int_in rng (quarter + 1) box_height in
          match
            Naive.first_fit profile ~from:0 ~len:w ~height:h ~limit:box_height
          with
          | Some s ->
              Naive.add profile ~lo:s ~hi:(s + w) h;
              items := (Item.make ~id:!id ~w ~h, s) :: !items;
              incr id
          | None -> ()
        done;
        if !items <> [] then begin
          incr total;
          let a =
            Dsp_algo.Tall_assignment.assign ~box_height ~quarter ~items:!items
          in
          swaps := !swaps + a.Dsp_algo.Tall_assignment.repairs;
          match
            Dsp_algo.Tall_assignment.verify ~box_height ~quarter ~items:!items a
          with
          | Ok () -> incr ok
          | Error _ -> ()
        end
      done;
      Printf.printf "%-10d %8d %7d%% %10.2f\n" quarter !total
        (100 * !ok / max 1 !total)
        (float_of_int !swaps /. float_of_int (max 1 !total)))
    [ 2; 3; 4; 5 ]

let experiments = [ ("E14", e14); ("E15", e15) ]
