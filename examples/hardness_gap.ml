(* The Theorem 1 hardness pipeline and the sliced-vs-unsliced gap.

   3-Partition -> PTS on 4 machines -> DSP: a yes-instance packs to
   height exactly 4; deciding that is as hard as 3-Partition, which is
   why no pseudo-polynomial algorithm can approximate DSP below 5/4.

   Run with: dune exec examples/hardness_gap.exe *)

open Dsp_core
module Hardness = Dsp_instance.Hardness

let () =
  let rng = Dsp_util.Rng.create 7 in
  let tp = Hardness.yes_instance rng ~k:3 ~bound:16 in
  Printf.printf "3-Partition instance (k=%d, B=%d): %s\n" tp.Hardness.k
    tp.Hardness.bound
    (String.concat " "
       (Array.to_list (Array.map string_of_int tp.Hardness.numbers)));

  (* Solve it exactly and build the witness schedule. *)
  (match Dsp_exact.Three_partition.solve ~numbers:tp.Hardness.numbers ~bound:tp.Hardness.bound () with
  | None -> print_endline "unexpectedly unsolvable!"
  | Some triples ->
      let sched = Hardness.schedule_of_partition tp ~triples in
      Printf.printf "witness schedule on 4 machines, makespan %d (target %d):\n%s\n\n"
        (Pts.Schedule.makespan sched)
        (Hardness.target_makespan tp)
        (Pts.Schedule.render sched));

  (* The same structure as a DSP instance: optimum 4 iff solvable. *)
  let dsp = Hardness.to_dsp tp in
  Printf.printf "as a DSP instance: width %d, %d items\n" dsp.Instance.width
    (Instance.n_items dsp);
  (match
     Dsp_util.Budget.within ~nodes:5_000_000 (fun budget ->
         Dsp_exact.Dsp_bb.optimal_height ~budget dsp)
   with
  | Some h -> Printf.printf "exact optimal peak: %d (4 = yes-instance)\n\n" h
  | None -> print_endline "exact search exhausted its budget\n");

  (* The integrality gap between classical and demand strip packing:
     slicing can genuinely lower the optimum. *)
  let gap = Dsp_instance.Gap_family.instance ~scale:1 in
  Printf.printf "gap instance (width %d, %d items):\n" gap.Instance.width
    (Instance.n_items gap);
  let within = Dsp_util.Budget.within ~nodes:20_000_000 in
  match
    ( within (fun budget -> Dsp_exact.Dsp_bb.optimal_height ~budget gap),
      within (fun budget -> Dsp_exact.Sp_exact.optimal_height ~budget gap) )
  with
  | Some dsp_opt, Some sp_opt ->
      Printf.printf "OPT with slicing = %d, OPT without slicing = %d: gap %.4f\n"
        dsp_opt sp_opt
        (float_of_int sp_opt /. float_of_int dsp_opt)
  | _ -> print_endline "exact search exhausted its budget"
