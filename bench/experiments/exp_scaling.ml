(* E9: running-time scaling of the (5/4+eps) algorithm.  Each sweep
   point is one timed solve; the table is printed after the sweep. *)

module Rng = Dsp_util.Rng

let e9 () =
  Common.section "E9" "approx54 runtime scaling (Theorem 5: O(n log n) * W^{O_eps(1)})";
  let n_rows =
    List.map
      (fun n ->
        let rng = Rng.create (Common.seed_for (77 + n)) in
        let inst =
          Dsp_instance.Generators.uniform rng ~n ~width:60 ~max_w:20 ~max_h:30
        in
        let (_, stats), secs =
          Dsp_util.Xutil.timeit (fun () ->
              Dsp_algo.Approx54.solve_with_stats inst)
        in
        (n, secs, stats.Dsp_algo.Approx54.guesses))
      [ 50; 100; 200; 400; 800 ]
  in
  Printf.printf "n sweep at W=60:\n%-8s %10s %8s\n" "n" "seconds" "guesses";
  List.iter
    (fun (n, secs, guesses) -> Printf.printf "%-8d %10.4f %8d\n" n secs guesses)
    n_rows;
  let w_rows =
    List.map
      (fun w ->
        let rng = Rng.create (Common.seed_for (99 + w)) in
        let inst =
          Dsp_instance.Generators.uniform rng ~n:100 ~width:w
            ~max_w:(max 1 (w / 3)) ~max_h:30
        in
        let _, secs =
          Dsp_util.Xutil.timeit (fun () -> Dsp_algo.Approx54.solve inst)
        in
        (w, secs))
      [ 30; 60; 120; 240; 480 ]
  in
  Printf.printf "W sweep at n=100:\n%-8s %10s\n" "W" "seconds";
  List.iter (fun (w, secs) -> Printf.printf "%-8d %10.4f\n" w secs) w_rows

let experiments = [ ("E9", e9) ]
