(* Shared plumbing for the per-experiment modules: section headers and
   registry-driven solver access, so no experiment keeps a private
   algorithm table. *)

module Registry = Dsp_engine.Registry
module Solver = Dsp_engine.Solver
module Report = Dsp_engine.Report
module Runner = Dsp_engine.Runner
module Json = Dsp_serve.Json

let section id title = Printf.printf "\n=== %s: %s ===\n" id title

let heuristics = Registry.heuristics

(* Run a registered solver and return its validated report; heuristics
   never exhaust a budget, so a failure here is a harness bug. *)
let report (s : Solver.t) inst =
  match Runner.run_one s inst with
  | Ok r -> r
  | Error f -> failwith (Format.asprintf "bench: %a" Runner.pp_failure f)

let packing_of (s : Solver.t) inst = (report s inst).Report.packing
let height_of (s : Solver.t) inst = (report s inst).Report.peak
let height_by_name name inst = height_of (Registry.find_exn name) inst

let scheduler_of name =
  let s = Registry.find_exn name in
  fun inst -> packing_of s inst

(* Benchmark repetitions: DSP_BENCH_REPS=k times each measurement k
   times and keeps the best (min wall-clock, with the GC stats of that
   run).  Default 1, so a full bench run costs what it always has; the
   perf gate raises it to damp scheduler noise. *)
let bench_reps () =
  match Option.bind (Sys.getenv_opt "DSP_BENCH_REPS") int_of_string_opt with
  | Some r when r > 1 -> r
  | _ -> 1

(* Deterministic randomness: every randomized experiment derives its
   RNG seeds as [seed_for k] with a per-site constant [k], so the
   default run is bit-identical to the historical fixed-seed harness
   (DSP_BENCH_SEED defaults to 0) while DSP_BENCH_SEED=n shifts every
   workload at once for robustness sweeps.  [record_seed] pins the
   offset into the results file; the harness calls it once per
   experiment entry. *)
let base_seed () =
  match Option.bind (Sys.getenv_opt "DSP_BENCH_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0

let seed_for site = base_seed () + site

let record_seed ~experiment =
  Bench_json.record ~experiment "seed" (Json.Int (base_seed ()))

let time_reps f =
  let reps = bench_reps () in
  let r0, t0, gc0 = Dsp_util.Xutil.timeit_gc f in
  let best_t = ref t0 and best_gc = ref gc0 in
  for _ = 2 to reps do
    let _, t, gc = Dsp_util.Xutil.timeit_gc f in
    if t < !best_t then begin
      best_t := t;
      best_gc := gc
    end
  done;
  (r0, !best_t, !best_gc)

(* The [gc] sub-record attached to a timing metric. *)
let record_gc ~experiment key (gc : Dsp_util.Xutil.gc_stats) =
  Bench_json.record_group ~experiment key
    [
      ("minor_words", Json.Float gc.Dsp_util.Xutil.minor_words);
      ("promoted_words", Json.Float gc.Dsp_util.Xutil.promoted_words);
      ("minor_collections", Json.Int gc.Dsp_util.Xutil.minor_collections);
      ("major_collections", Json.Int gc.Dsp_util.Xutil.major_collections);
    ]
