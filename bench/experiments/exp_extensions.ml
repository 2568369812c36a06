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
      match
        Option.join
          (Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
               Dsp_algo.Rotations.rotation_gain ~budget inst))
      with
      | Some (fixed, rotated) ->
          let greedy, _ = Dsp_algo.Rotations.best_fit_rotating inst in
          Printf.printf "%-8d %10d %12d %10d\n" seed fixed rotated
            (Packing.height greedy)
      | None -> Printf.printf "%-8d %10s\n" seed "budget exhausted")
    [ 1; 2; 3; 4; 5; 6 ];
  Printf.printf "moldable jobs (work-based tables):\n";
  Printf.printf "%-8s %8s %12s %12s %12s\n" "m" "jobs" "rigid-q1" "two-phase"
    "exact-mold";
  List.iter
    (fun (m, works, seed) ->
      let _ = seed in
      let t = Dsp_pts.Moldable.make_work_based ~machines:m ~work:works in
      let rigid = Dsp_pts.Moldable.allot t (Array.make (List.length works) 1) in
      let rigid_opt =
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Pts_exact.optimal_makespan ~budget rigid)
        with
        | Some v -> string_of_int v
        | None -> "?"
      in
      let exact =
        match
          Option.join
            (Dsp_util.Budget.within ~nodes:300_000 (fun budget ->
                 Dsp_pts.Moldable.optimal_makespan ~budget t))
        with
        | Some (v, _) -> string_of_int v
        | None -> "?"
      in
      Printf.printf "%-8d %8d %12s %12d %12s\n" m (List.length works) rigid_opt
        (Dsp_pts.Moldable.makespan t)
        exact)
    [
      (3, [ 9; 7; 5; 4 ], 1);
      (4, [ 12; 9; 6; 5; 4 ], 2);
      (4, [ 16; 16; 4; 4 ], 3);
      (5, [ 20; 10; 10; 5 ], 4);
    ]

let experiments = [ ("E13", e13) ]
