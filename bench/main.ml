(* Benchmark harness dispatcher.  The experiments themselves live in
   bench/experiments/ (library dsp_bench), one module per paper
   table/figure; each exports an association list of (id, thunk).
   This file only assembles the registry-style list, parses argv, runs
   each experiment fault-tolerantly, and writes BENCH.json.

   Usage:
     dune exec bench/main.exe                 # all experiments + kernel
     dune exec bench/main.exe -- E8 E10       # a subset
     dune exec bench/main.exe -- kernel       # packing-kernel ablation only
     dune exec bench/main.exe -- kernel-smoke # tiny kernel run for CI
     dune exec bench/main.exe -- counters     # per-solver Instr counters only
     dune exec bench/main.exe -- faults       # fault-injection robustness matrix
     dune exec bench/main.exe -- faults-smoke # CI-sized fault matrix
     dune exec bench/main.exe -- parallel     # work-stealing B&B domain curve
     dune exec bench/main.exe -- parallel-smoke # CI-sized stealing run
     dune exec bench/main.exe -- online       # incremental sessions vs offline
     dune exec bench/main.exe -- online-smoke # CI-sized online run
     dune exec bench/main.exe -- serve        # service daemon over its socket
     dune exec bench/main.exe -- serve-smoke  # CI-sized daemon run

   DSP_JOBS=k runs the coarse experiments k at a time on a domain pool
   (and fans out per-instance work inside E8/E9); timing-sensitive
   experiments stay sequential regardless (see [serial_only]).
   Concurrent experiments may interleave their stdout — BENCH.json is
   the authoritative record either way, and its writes are
   domain-safe.  Without DSP_JOBS everything runs exactly as the
   serial harness always has.

   Results files: the canonical record of a run is
   bench/results/latest.json (plus its timestamped sibling); the
   BENCH.json written at the repo root is a documented convenience
   copy of the same data for quick inspection.  BENCH_JSON overrides
   the convenience path, BENCH_JSON=none suppresses it entirely (the
   archive still lands under bench/results/ unless that is disabled
   too).  The schema is dsp-bench/7:
   per-experiment wall-clock and status, the metrics individual
   experiments record (kernel speedups and peaks, E4 node counts,
   fault-matrix outcomes, the "parallel" experiment's domain curve
   and steal telemetry, the
   "online" experiment's competitive ratios and latency percentiles,
   the "serve" experiment's socket throughput and SLA latency groups),
   the per-solver instrumentation counters of the "counters"
   experiment, the one-level "gc"/"latency" sub-records, and the
   "seed" metric every randomized experiment pins (DSP_BENCH_SEED
   shifts all generated workloads at once; default 0 reproduces the
   historical fixed-seed runs).  Crash safety: an experiment that raises is recorded
   as a degraded entry (status "crashed" plus the error) instead of
   aborting the run, and the file is checkpointed atomically after
   every experiment, so a killed harness leaves the last completed
   state on disk, never a truncated file.  Exit status: 1 when any
   selected experiment crashed or a requested name is unknown (after
   the results are written), 0 otherwise.

   Trending: each completed run is also archived under bench/results/
   as BENCH-<YYYYMMDD-HHMMSS>.json next to a refreshed latest.json
   pointer (both written atomically).  DSP_BENCH_RESULTS overrides the
   directory, DSP_BENCH_RESULTS=none disables archiving (the perf gate
   uses this to keep probe runs out of the trend line), and
   DSP_BENCH_REPS=k makes each timing the best of k repetitions.  The
   checked-in bench/results/baseline-kernel-smoke.json is the
   reference scripts/perf_gate.sh compares against in CI. *)

open Dsp_bench

let experiments =
  Exp_gap.experiments @ Exp_transform.experiments @ Exp_hardness.experiments
  @ Exp_augment.experiments @ Exp_ratios.experiments @ Exp_scaling.experiments
  @ Exp_smartgrid.experiments @ Exp_steinberg.experiments
  @ Exp_ablation.experiments @ Exp_extensions.experiments
  @ Exp_structure.experiments @ Exp_kernel.experiments
  @ Exp_counters.experiments @ Exp_faults.experiments @ Exp_parallel.experiments
  @ Exp_online.experiments @ Exp_serve.experiments

(* Experiments that must not share the process with concurrent load:
   kernel timings and the parallel experiment's serial-vs-pool
   comparison would be skewed, the counters experiment asserts exact
   Instr deltas for a single solve at a time, the fault matrix arms
   process-global fault plans, and the online and serve experiments
   report per-event / per-request latency percentiles (serve also
   spawns its own daemon domain). *)
let serial_only =
  [ "kernel"; "kernel-smoke"; "counters"; "faults"; "faults-smoke"; "parallel";
    "parallel-smoke"; "online"; "online-smoke"; "serve"; "serve-smoke" ]

(* None when BENCH_JSON=none: the bench/results/ archive is the
   canonical record; the root BENCH.json is a convenience copy that
   can be turned off. *)
let bench_path () =
  match Sys.getenv_opt "BENCH_JSON" with
  | Some "none" -> None
  | Some p -> Some p
  | None -> Some "BENCH.json"

(* ----- trending archive (bench/results/) ------------------------------ *)

let results_dir () =
  match Sys.getenv_opt "DSP_BENCH_RESULTS" with
  | Some "none" -> None
  | Some dir -> Some dir
  | None -> Some (Filename.concat "bench" "results")

let rec mkdirs dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let timestamp () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* Archive the run: a timestamped snapshot plus the latest.json
   pointer, both via Bench_json.write so each lands atomically (a
   killed run leaves the previous latest.json intact, never a torn
   one). *)
let write_trend () =
  match results_dir () with
  | None -> ()
  | Some dir -> (
      match mkdirs dir with
      | () when Sys.is_directory dir ->
          let snap =
            Filename.concat dir ("BENCH-" ^ timestamp () ^ ".json")
          in
          Bench_json.write snap;
          Bench_json.write (Filename.concat dir "latest.json");
          Printf.printf "archived %s (and %s)\n" snap
            (Filename.concat dir "latest.json")
      | () -> Printf.eprintf "bench: cannot archive into %s\n" dir
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "bench: cannot archive into %s: %s\n" dir
            (Unix.error_message e))

let run_experiment (name, f) =
  let checkpoint () =
    match bench_path () with None -> () | Some p -> Bench_json.write p
  in
  match Dsp_util.Xutil.timeit f with
  | (), seconds ->
      (* Under DSP_JOBS this wall-clock overlaps with concurrent
         experiments; read it relative to the serial baseline only. *)
      Bench_json.record ~experiment:name "seconds" (Bench_json.Float seconds);
      Common.record_seed ~experiment:name;
      Bench_json.record ~experiment:name "status" (Bench_json.String "ok");
      checkpoint ();
      true
  | exception e ->
      (* A crashed experiment degrades to a machine-readable entry;
         the rest of the run proceeds.  Fault injection must not leak
         into subsequent experiments. *)
      Dsp_util.Fault.disarm ();
      let msg = Printexc.to_string e in
      Printf.printf "\n[%s CRASHED: %s]\n" name msg;
      Bench_json.record ~experiment:name "status" (Bench_json.String "crashed");
      Bench_json.record ~experiment:name "error" (Bench_json.String msg);
      checkpoint ();
      false

(* Coarse-grained scheduling: pooled experiments first (k at a time
   under DSP_JOBS=k), then the serial-only tail one by one.  With no
   DSP_JOBS both lists run sequentially in registration order.  True
   when every experiment finished without crashing. *)
let run_selected selected =
  let jobs =
    match Option.bind (Sys.getenv_opt "DSP_JOBS") int_of_string_opt with
    | Some j when j > 1 -> j
    | _ -> 1
  in
  let pooled, serial =
    List.partition (fun (name, _) -> not (List.mem name serial_only)) selected
  in
  let pooled_ok =
    if jobs > 1 && List.length pooled > 1 then begin
      Printf.printf
        "[DSP_JOBS=%d: %d experiments on the pool; stdout may interleave, \
         BENCH.json is authoritative]\n"
        jobs (List.length pooled);
      Dsp_util.Pool.with_pool
        ~jobs:(min jobs (List.length pooled))
        (fun pool -> Dsp_util.Pool.map pool run_experiment pooled)
    end
    else List.map run_experiment pooled
  in
  let serial_ok = List.map run_experiment serial in
  List.for_all Fun.id (pooled_ok @ serial_ok)

let () =
  let ran, ok =
    match Array.to_list Sys.argv |> List.tl with
    | [] ->
        (* The *-smoke experiments are CI-sized variants of kernel,
           faults and online; skip them in a full run. *)
        let ok =
          run_selected
            (List.filter
               (fun (name, _) ->
                 not (Filename.check_suffix name "-smoke"))
               experiments)
        in
        print_newline ();
        (true, ok)
    | names ->
        let selected =
          List.filter_map
            (fun name ->
              match List.assoc_opt name experiments with
              | Some f -> Some (name, f)
              | None ->
                  Printf.eprintf "unknown experiment %s\n" name;
                  None)
            names
        in
        let ok = run_selected selected in
        (selected <> [], ok && List.length selected = List.length names)
  in
  if ran then begin
    (match bench_path () with
    | Some path ->
        Bench_json.write path;
        Printf.printf "\nwrote %s\n" path
    | None -> ());
    write_trend ()
  end;
  if not ok then exit 1
