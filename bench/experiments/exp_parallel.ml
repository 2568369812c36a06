(* "parallel": wall-clock and load-balance of the multicore layer;
   "parallel-smoke": its CI-sized perf-gate slice.

   Measurements, each recorded into BENCH.json (schema dsp-bench/7):

   - sweep: a corpus of exact-B&B instances solved one-per-task on an
     N-domain pool vs a plain serial loop — cross-instance
     parallelism, the bench harness's own workload shape.
   - curve: [Dsp_bb.solve_par] (work-stealing) across 1/2/4/8 domains
     on a balanced and on a skewed instance, each point recording
     wall-clock, steal telemetry and per-domain node counts (a
     "d<k>_<name>_nodes" group with fields "d0".."d<k-1>").  The
     balanced instance spreads its root subtrees evenly; the skewed
     one has a full-width dominant item, so the search tree has a
     single root subtree and only stealing can involve domain > 0.
   - portfolio: the same fallback chain run serially ([Runner.solve],
     weighted deadline slices burned one after another) vs raced on
     the pool ([Runner.race], one shared deadline, first validated
     report wins).  The race returns as soon as the fastest validated
     solver lands, so the speedup here is real even on a single
     hardware thread.

   [domains_available] is recorded so a 1-core container's wall-clock
   numbers (~1.0x there, >1 only with real cores) stay attributable;
   the optimum-equivalence "*_agree" metrics and the steal/node-count
   telemetry are scheduling facts that hold regardless of core
   count. *)

module Bb = Dsp_exact.Dsp_bb
module Registry = Dsp_engine.Registry
module Runner = Dsp_engine.Runner
module Pool = Dsp_util.Pool
module Packing = Dsp_core.Packing

let timeit = Dsp_util.Xutil.timeit

let uniform ~seed ~n ~width =
  let rng = Dsp_util.Rng.create (Common.seed_for seed) in
  Dsp_instance.Generators.uniform rng ~n ~width ~max_w:(width / 2) ~max_h:20

(* One dominant full-width item plus small filler: the dominant item
   sorts first (max area) and admits exactly one start column, so the
   B&B root has a single subtree, seeded on one domain; only stealing
   redistributes its depth-2/3 children. *)
let skewed ~seed ~n ~width =
  let rng = Dsp_util.Rng.create (Common.seed_for seed) in
  let dims =
    (width, 8)
    :: List.init (n - 1) (fun _ ->
           ( 1 + Dsp_util.Rng.int rng (max 1 (width / 3)),
             1 + Dsp_util.Rng.int rng 10 ))
  in
  Dsp_core.Instance.of_dims ~width dims

let speedup serial par = if par > 0.0 then serial /. par else Float.nan

let solve_par_height ~jobs ~stats inst =
  Packing.height (Bb.solve_par ~jobs ~stats inst)

let nodes_group (st : Bb.par_stats) =
  Array.to_list
    (Array.mapi
       (fun i n -> (Printf.sprintf "d%d" i, Bench_json.Int n))
       st.Bb.nodes_per_domain)

(* One curve point: the stealing solver at [jobs] domains, recorded
   under "d<jobs>_<name>_*".  Returns the optimum for the agreement
   check. *)
let curve_point ~experiment ~name ~jobs inst =
  let record key v = Bench_json.record ~experiment key v in
  let stats = ref None in
  let opt, seconds, _gc =
    Common.time_reps (fun () -> solve_par_height ~jobs ~stats inst)
  in
  let st = Option.get !stats in
  let prefix = Printf.sprintf "d%d_%s" jobs name in
  record (prefix ^ "_seconds") (Bench_json.Float seconds);
  record (prefix ^ "_steals") (Bench_json.Int st.Bb.steals);
  record (prefix ^ "_steal_fails") (Bench_json.Int st.Bb.steal_fails);
  Bench_json.record_group ~experiment (prefix ^ "_nodes") (nodes_group st);
  Printf.printf
    "curve   %-9s jobs=%d: %.3fs  steals=%-5d fails=%-5d nodes=[%s]\n" name
    jobs seconds st.Bb.steals st.Bb.steal_fails
    (String.concat ";"
       (Array.to_list (Array.map string_of_int st.Bb.nodes_per_domain)));
  (opt, seconds)

(* The 1/2/4/8-domain curve for one instance, plus the serial optimum
   agreement ("<name>_curve_agree" = 1 iff every point matches the
   serial solver). *)
let curve ~experiment ~name ~domain_counts inst =
  let serial_opt = Bb.optimal_height inst in
  let points =
    List.map (fun jobs -> curve_point ~experiment ~name ~jobs inst) domain_counts
  in
  let agree = List.for_all (fun (opt, _) -> opt = serial_opt) points in
  Bench_json.record ~experiment
    (name ^ "_curve_agree")
    (Bench_json.Int (if agree then 1 else 0));
  points

let parallel () =
  let experiment = "parallel" in
  let record key v = Bench_json.record ~experiment key v in
  Common.section experiment
    "work-stealing B&B: domain curve, pool sweep, portfolio race";
  Common.record_seed ~experiment;
  let jobs = 4 in
  record "jobs" (Bench_json.Int jobs);
  record "domains_available" (Bench_json.Int (Domain.recommended_domain_count ()));

  (* Cross-instance sweep: same solves, serial loop vs pool.  Seeds
     picked so every instance actually closes (64k..1.3M nodes each)
     rather than burning the node budget. *)
  let insts =
    List.map
      (fun (n, seed) -> uniform ~seed ~n ~width:24)
      [ (22, 7); (24, 5); (26, 5); (26, 7) ]
  in
  let peak inst = Bb.optimal_height inst in
  let serial_peaks, sweep_serial = timeit (fun () -> List.map peak insts) in
  let par_peaks, sweep_par =
    timeit (fun () -> Pool.with_pool ~jobs (fun pool -> Pool.map pool peak insts))
  in
  record "sweep_serial_seconds" (Bench_json.Float sweep_serial);
  record "sweep_par_seconds" (Bench_json.Float sweep_par);
  record "sweep_speedup" (Bench_json.Float (speedup sweep_serial sweep_par));
  record "sweep_optima_match" (Bench_json.Bool (serial_peaks = par_peaks));
  Printf.printf "sweep   (%d instances): serial %.3fs  %d-domain %.3fs  (%.2fx)\n"
    (List.length insts) sweep_serial jobs sweep_par
    (speedup sweep_serial sweep_par);

  (* Intra-search curve: balanced and skewed instances across the
     domain counts (~1M nodes each — heavy enough for scheduling to
     matter, still closeable). *)
  let domain_counts = [ 1; 2; 4; 8 ] in
  let balanced = uniform ~seed:2 ~n:22 ~width:24 in
  let skew = skewed ~seed:37 ~n:30 ~width:24 in
  ignore (curve ~experiment ~name:"balanced" ~domain_counts balanced);
  ignore (curve ~experiment ~name:"skewed" ~domain_counts skew);

  (* Portfolio: serial fallback chain vs racing the same chain.  The
     instance is far beyond exact-bb's deadline slice on purpose. *)
  let big = uniform ~seed:11 ~n:40 ~width:30 in
  let chain =
    List.map Registry.find_exn [ "exact-bb"; "approx53"; "approx54"; "bfd-height" ]
  in
  let timeout_ms = 2000 and node_budget = 1_000_000_000 in
  let serial_res, chain_serial =
    timeit (fun () -> Runner.solve ~timeout_ms ~node_budget ~chain big)
  in
  let race_res, chain_race =
    timeit (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Runner.race ~timeout_ms ~node_budget ~chain ~pool big))
  in
  record "portfolio_serial_seconds" (Bench_json.Float chain_serial);
  record "portfolio_race_seconds" (Bench_json.Float chain_race);
  record "portfolio_speedup" (Bench_json.Float (speedup chain_serial chain_race));
  record "portfolio_serial_winner" (Bench_json.String serial_res.Runner.winner);
  record "portfolio_race_winner" (Bench_json.String race_res.Runner.winner);
  record "portfolio_serial_peak"
    (Bench_json.Int serial_res.Runner.report.Dsp_engine.Report.peak);
  record "portfolio_race_peak"
    (Bench_json.Int race_res.Runner.report.Dsp_engine.Report.peak);
  Printf.printf
    "portfolio (n=40, %dms): serial chain %.3fs (winner %s)  race %.3fs (winner \
     %s)  (%.2fx)\n"
    timeout_ms chain_serial serial_res.Runner.winner chain_race
    race_res.Runner.winner
    (speedup chain_serial chain_race)

(* The perf-gate slice: small enough for CI, still a real search with
   stealing on the skewed instance.  Gated metrics: the "*_seconds"
   wall-clocks against bench/results/baseline-parallel-smoke.json and
   the "*_agree" optimum-equivalence signals (scheduler bugs show up
   there first — a lost or double-executed frontier unit changes the
   optimum long before it changes the wall-clock). *)
let parallel_smoke () =
  let experiment = "parallel-smoke" in
  let record key v = Bench_json.record ~experiment key v in
  Common.section experiment "work-stealing perf-gate slice (CI-sized)";
  Common.record_seed ~experiment;
  let jobs = 2 in
  record "jobs" (Bench_json.Int jobs);
  record "domains_available" (Bench_json.Int (Domain.recommended_domain_count ()));
  let balanced = uniform ~seed:7 ~n:20 ~width:20 in
  let skew = skewed ~seed:35 ~n:28 ~width:24 in
  ignore (curve ~experiment ~name:"balanced" ~domain_counts:[ 1; jobs ] balanced);
  ignore (curve ~experiment ~name:"skewed" ~domain_counts:[ 1; jobs ] skew)

let experiments =
  [ ("parallel", parallel); ("parallel-smoke", parallel_smoke) ]
