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

   Experiments run one at a time, in the order given (registration
   order when none are named).

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
module Json = Dsp_serve.Json

let experiments =
  Exp_gap.experiments @ Exp_transform.experiments @ Exp_hardness.experiments
  @ Exp_augment.experiments @ Exp_ratios.experiments @ Exp_scaling.experiments
  @ Exp_smartgrid.experiments @ Exp_steinberg.experiments
  @ Exp_ablation.experiments @ Exp_extensions.experiments
  @ Exp_structure.experiments @ Exp_kernel.experiments
  @ Exp_counters.experiments @ Exp_faults.experiments @ Exp_parallel.experiments
  @ Exp_online.experiments @ Exp_serve.experiments

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
      Bench_json.record ~experiment:name "seconds" (Json.Float seconds);
      Common.record_seed ~experiment:name;
      Bench_json.record ~experiment:name "status" (Json.String "ok");
      checkpoint ();
      true
  | exception e ->
      (* A crashed experiment degrades to a machine-readable entry;
         the rest of the run proceeds.  Fault injection must not leak
         into subsequent experiments. *)
      Dsp_util.Fault.disarm ();
      let msg = Printexc.to_string e in
      Printf.printf "\n[%s CRASHED: %s]\n" name msg;
      Bench_json.record ~experiment:name "status" (Json.String "crashed");
      Bench_json.record ~experiment:name "error" (Json.String msg);
      checkpoint ();
      false

(* True when every experiment finished without crashing. *)
let run_selected selected =
  List.for_all Fun.id (List.map run_experiment selected)

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
