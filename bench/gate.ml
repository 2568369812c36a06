(* Perf-regression gate: compare a candidate BENCH.json against a
   baseline (--baseline PATH, default the checked-in
   bench/results/baseline-kernel-smoke.json) for one experiment
   (default kernel-smoke) and fail on regressions.  Driven by
   scripts/perf_gate.sh in check.sh and CI.

   Checks, in order:
   - both files parse and validate under the Bench_json loader;
   - the experiment ran to "ok" status in the candidate;
   - every "*_seconds" metric present in both files: the candidate may
     not exceed baseline * (1 + TOLERANCE) once past an absolute floor
     (small timings are pure noise — an 0.002s -> 0.004s move is not a
     2x regression worth failing CI over);
   - every "*_us" percentile inside a latency group present in both
     files (the serve experiment's SLA figures): same shape of check
     with a wider tolerance and a microsecond floor, because tail
     percentiles of a few hundred socket round trips are noisy —
     the gate is after order-of-magnitude regressions, not jitter
     ("max_us" is a single sample and is never gated);
   - "flat_alloc_zero" = 1 and "flat_alloc_words_per_op" below the
     zero-allocation threshold, whenever the baseline experiment
     carries them (the kernel's steady-state allocation invariant is
     exact, so it gates with no tolerance; experiments without the
     invariant — serve-smoke — simply don't record the metric);
   - every "*agree" correctness cross-check = 1 in the candidate
     (kernel agreement, the serve experiment's peak_agree /
     recover_agree).

   Exit 0 clean, 1 on regression, 2 on usage or unreadable input. *)

open Dsp_bench
module Json = Dsp_serve.Json

let tolerance = 0.30 (* +30% wall-clock *)
let abs_floor = 0.05 (* seconds; below this, deltas are noise *)
let alloc_threshold = 0.01 (* words per kernel op *)
let lat_tolerance = 2.0 (* +200% on latency percentiles *)
let lat_floor_us = 500. (* microseconds; tail noise below this *)

let default_baseline =
  Filename.concat
    (Filename.concat "bench" "results")
    "baseline-kernel-smoke.json"

let usage () =
  prerr_endline
    "usage: gate [--baseline baseline.json] <candidate.json> [experiment-id]";
  prerr_endline "       gate <baseline.json> <candidate.json> [experiment-id]";
  Printf.eprintf "(default baseline: %s)\n" default_baseline;
  exit 2

let load path =
  match Bench_json.load path with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "gate: %s\n" msg;
      exit 2

let metrics_of (p : Bench_json.parsed) experiment path =
  match List.assoc_opt experiment p.Bench_json.parsed_experiments with
  | Some m -> m
  | None ->
      Printf.eprintf "gate: %s: no experiment %S\n" path experiment;
      exit 2

let has_suffix sfx s =
  let n = String.length s and m = String.length sfx in
  n >= m && String.sub s (n - m) m = sfx

let () =
  let baseline_path, candidate_path, experiment =
    (* --baseline PATH names the reference explicitly; without it a
       single positional compares against the checked-in default, and
       the legacy two-positional form still reads as
       <baseline> <candidate>. *)
    let rec split_baseline acc = function
      | "--baseline" :: path :: rest -> (Some path, List.rev_append acc rest)
      | "--baseline" :: [] -> usage ()
      | arg :: rest -> split_baseline (arg :: acc) rest
      | [] -> (None, List.rev acc)
    in
    match split_baseline [] (Array.to_list Sys.argv |> List.tl) with
    | Some b, [ c ] -> (b, c, "kernel-smoke")
    | Some b, [ c; e ] -> (b, c, e)
    | None, [ c ] -> (default_baseline, c, "kernel-smoke")
    | None, [ b; c ] -> (b, c, "kernel-smoke")
    | None, [ b; c; e ] -> (b, c, e)
    | _ -> usage ()
  in
  let base = metrics_of (load baseline_path) experiment baseline_path in
  let cand = metrics_of (load candidate_path) experiment candidate_path in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  (* A crashed candidate experiment is an automatic gate failure. *)
  (match List.assoc_opt "status" cand with
  | Some (Json.String "ok") -> ()
  | Some (Json.String s) ->
      fail "FAIL %s: status %S (expected \"ok\")\n" experiment s
  | _ -> fail "FAIL %s: no status metric in candidate\n" experiment);
  (* Wall-clock: every timing both files carry. *)
  List.iter
    (fun (k, bv) ->
      if has_suffix "_seconds" k then
        match
          (Json.to_float bv, Option.bind (List.assoc_opt k cand) Json.to_float)
        with
        | Some b, Some c ->
            let limit = b *. (1. +. tolerance) in
            if c > limit && c -. b > abs_floor then
              fail "FAIL %-28s %.4fs vs baseline %.4fs (> +%.0f%% and > %.2fs)\n"
                k c b (100. *. tolerance) abs_floor
            else
              Printf.printf "ok   %-28s %.4fs (baseline %.4fs)\n" k c b
        | Some _, None -> fail "FAIL %-28s missing from candidate\n" k
        | None, _ -> ())
    base;
  (* Latency percentiles: every "*_us" field of a group both files
     carry, except the single-sample "max_us".  Wider tolerance and a
     microsecond floor — tail percentiles over a few hundred socket
     round trips jitter; the gate is for order-of-magnitude moves. *)
  List.iter
    (fun (gk, bv) ->
      match (bv, List.assoc_opt gk cand) with
      | Json.Obj bfields, Some (Json.Obj cfields) ->
          List.iter
            (fun (fk, bfv) ->
              if has_suffix "_us" fk && fk <> "max_us" then
                let name = gk ^ "." ^ fk in
                match
                  ( Json.to_float bfv,
                    Option.bind (List.assoc_opt fk cfields) Json.to_float )
                with
                | Some b, Some c ->
                    let limit = b *. (1. +. lat_tolerance) in
                    if c > limit && c -. b > lat_floor_us then
                      fail
                        "FAIL %-28s %.1fus vs baseline %.1fus (> +%.0f%% and > %.0fus)\n"
                        name c b (100. *. lat_tolerance) lat_floor_us
                    else Printf.printf "ok   %-28s %.1fus (baseline %.1fus)\n" name c b
                | Some _, None -> fail "FAIL %-28s missing from candidate\n" name
                | None, _ -> ())
            bfields
      | Json.Obj _, _ ->
          (* a whole group the candidate dropped: only gate it when it
             holds latency fields, silence would hide an SLA metric *)
          if
            List.exists
              (fun (fk, _) -> has_suffix "_us" fk)
              (match bv with Json.Obj f -> f | _ -> [])
          then fail "FAIL %-28s latency group missing from candidate\n" gk
      | _ -> ())
    base;
  (* Allocation invariant: exact, no tolerance — gated whenever the
     baseline experiment records it (kernel-smoke does, serve-smoke
     has no flat kernel loop to measure). *)
  if List.mem_assoc "flat_alloc_words_per_op" base then begin
    (match
       Option.bind (List.assoc_opt "flat_alloc_words_per_op" cand) Json.to_float
     with
    | Some w when w < alloc_threshold ->
        Printf.printf "ok   %-28s %.6f words/op\n" "flat_alloc_words_per_op" w
    | Some w ->
        fail "FAIL %-28s %.6f words/op (steady-state allocation must be ~0)\n"
          "flat_alloc_words_per_op" w
    | None -> fail "FAIL flat_alloc_words_per_op missing from candidate\n");
    match List.assoc_opt "flat_alloc_zero" cand with
    | Some (Json.Int 1) -> ()
    | _ -> fail "FAIL flat_alloc_zero is not 1 in candidate\n"
  end;
  (* Correctness cross-checks recorded by the experiment itself. *)
  List.iter
    (fun (k, v) ->
      if has_suffix "agree" k then
        match v with
        | Json.Int 1 -> ()
        | _ -> fail "FAIL %-28s not 1 (implementations disagree)\n" k)
    cand;
  if !failures > 0 then begin
    Printf.printf "gate: %d failure%s against %s\n" !failures
      (if !failures = 1 then "" else "s")
      baseline_path;
    exit 1
  end
  else Printf.printf "gate: clean against %s\n" baseline_path
