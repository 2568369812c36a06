(* E13: the future-work extensions — 90-degree rotations and
   moldable jobs (paper conclusion). *)

open Dsp_core
module Rng = Dsp_util.Rng

let e13 () =
  Common.section "E13" "extensions: 90-degree rotations and moldable jobs";
  Printf.printf "rotations (exact optima, small instances):\n";
  Printf.printf "%-8s %10s %12s %10s\n" "seed" "fixed-OPT" "rotated-OPT" "greedy";
  List.iter
    (fun seed ->
      let rng = Rng.create (Common.seed_for seed) in
      let inst =
        Dsp_instance.Generators.uniform rng ~n:5 ~width:8 ~max_w:5 ~max_h:7
      in
      let fixed, rotated = Dsp_algo.Rotations.rotation_gain inst in
      let greedy, _ = Dsp_algo.Rotations.best_fit_rotating inst in
      Printf.printf "%-8d %10d %12d %10d\n" seed fixed rotated
        (Packing.height greedy))
    [ 1; 2; 3; 4; 5; 6 ];
  Printf.printf "moldable jobs (work-based tables):\n";
  Printf.printf "%-8s %8s %12s %12s %12s\n" "m" "jobs" "rigid-q1" "two-phase"
    "exact-mold";
  List.iter
    (fun (m, works) ->
      let t = Dsp_pts.Moldable.make_work_based ~machines:m ~work:works in
      let rigid = Dsp_pts.Moldable.allot t (Array.make (List.length works) 1) in
      Printf.printf "%-8d %8d %12d %12d %12d\n" m (List.length works)
        (Dsp_exact.Pts_exact.optimal_makespan rigid)
        (Dsp_pts.Moldable.makespan t)
        (fst (Dsp_pts.Moldable.optimal_makespan t)))
    [
      (3, [ 9; 7; 5; 4 ]);
      (4, [ 12; 9; 6; 5; 4 ]);
      (4, [ 16; 16; 4; 4 ]);
      (5, [ 20; 10; 10; 5 ]);
    ]

let experiments = [ ("E13", e13) ]
