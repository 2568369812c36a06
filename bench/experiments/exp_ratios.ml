(* E8: approximation ratios against exact optima (Theorem 5).  Every
   registered heuristic solver is measured; the solver list is the
   registry, not a private table.  The dominant cost is the exact
   branch-and-bound filtering of 25 seeds per family. *)

module Solver = Dsp_engine.Solver
module Rng = Dsp_util.Rng
module Rat = Dsp_util.Rat

let e8 () =
  Common.section "E8" "approximation ratios vs exact optimum (Theorem 5)";
  let families =
    [
      ( "uniform",
        fun seed ->
          let rng = Rng.create (Common.seed_for seed) in
          Dsp_instance.Generators.uniform rng
            ~n:(5 + (seed mod 5))
            ~width:(8 + (seed mod 6))
            ~max_w:6 ~max_h:8 );
      ( "tall-flat",
        fun seed ->
          let rng = Rng.create (Common.seed_for seed) in
          Dsp_instance.Generators.tall_and_flat rng
            ~n:(5 + (seed mod 4))
            ~width:12 ~max_h:8 );
      ( "correlated",
        fun seed ->
          let rng = Rng.create (Common.seed_for seed) in
          Dsp_instance.Generators.correlated rng
            ~n:(5 + (seed mod 4))
            ~width:10 ~max_w:6 ~max_h:6 );
    ]
  in
  Printf.printf "%-12s %-12s %8s %8s %8s\n" "family" "algorithm" "avg" "max"
    "solved";
  List.iter
    (fun (fam, gen) ->
      let instances =
        List.filter_map Fun.id
          (List.map
             (fun seed ->
               let inst = gen seed in
               match
                 Dsp_util.Budget.within ~nodes:2_000_000 (fun budget ->
                     Dsp_exact.Dsp_bb.optimal_height ~budget inst)
               with
               | Some opt when opt > 0 -> Some (inst, opt)
               | _ -> None)
             (Dsp_util.Xutil.range 0 25))
      in
      List.iter
        (fun (s : Solver.t) ->
          let ratios =
            List.map
              (fun (inst, opt) ->
                float_of_int (Common.height_of s inst) /. float_of_int opt)
              instances
          in
          let avg =
            List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
          in
          Printf.printf "%-12s %-12s %8.3f %8.3f %8d\n" fam s.Solver.name avg
            (List.fold_left max 1.0 ratios)
            (List.length ratios))
        (Common.heuristics ()))
    families;
  Printf.printf "\napprox54 eps sensitivity (uniform family):\n";
  Printf.printf "%-8s %8s %8s\n" "eps" "avg" "max";
  List.iter
    (fun (label, eps) ->
      let ratios =
        List.filter_map Fun.id
          (List.map
             (fun seed ->
               let rng = Rng.create (Common.seed_for seed) in
               let inst =
                 Dsp_instance.Generators.uniform rng ~n:7 ~width:10 ~max_w:6
                   ~max_h:8
               in
               match
                 Dsp_util.Budget.within ~nodes:2_000_000 (fun budget ->
                     Dsp_exact.Dsp_bb.optimal_height ~budget inst)
               with
               | Some opt when opt > 0 ->
                   Some
                     (float_of_int
                        (Dsp_core.Packing.height
                           (Dsp_algo.Approx54.solve ~eps inst))
                     /. float_of_int opt)
               | _ -> None)
             (Dsp_util.Xutil.range 0 20))
      in
      let avg =
        List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
      in
      Printf.printf "%-8s %8.3f %8.3f\n" label avg (List.fold_left max 1.0 ratios))
    [ ("1/4", Rat.make 1 4); ("1/8", Rat.make 1 8); ("1/16", Rat.make 1 16) ]

let experiments = [ ("E8", e8) ]
