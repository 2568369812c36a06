(* Fault-injection robustness matrix: one injected fault per solver
   family and action, driven through the fault-tolerant runner.

   For each (solver, site, action) combination the harness arms a
   deterministic Dsp_util.Fault plan, runs the solver under
   Runner.run_one with a short deadline, and records what the typed
   outcome was: a raise must surface as a solver error, a stall as a
   timeout, a corruption as a validation failure — never a crash of
   the harness itself.  A second pass proves the fallback chain
   absorbs the same faults: Runner.solve must stay total and return a
   validated report with the failure provenance attached.

   Metrics land in BENCH.json under "faults" as
   "<solver>.<site>.<action>" -> outcome kind, plus "chain.*" entries
   for the fallback pass; "absorbed" counts combinations whose fault
   was caught (all of them, on a healthy build). *)

module Runner = Dsp_engine.Runner
module Registry = Dsp_engine.Registry
module Solver = Dsp_engine.Solver
module Report = Dsp_engine.Report
module Fault = Dsp_util.Fault
module Rng = Dsp_util.Rng
module Json = Dsp_serve.Json

(* One instrumented site per solver family, chosen to be hit early on
   the test instance.  Sites come from the canonical Instr.Sites
   table, so a renamed counter fails to compile here instead of
   silently turning the whole matrix into "ok" rows. *)
module Sites = Dsp_util.Instr.Sites

let matrix =
  [
    ("bfd-height", Sites.segtree_best_start);
    ("ff-doubling", Sites.budget_fit_first_fit_probes);
    ("approx54", Sites.approx54_attempts);
    ("exact-bb", Sites.bb_nodes);
    ("pts-duality", Sites.segtree_range_add);
  ]

(* The stall outlives the deadline, so solvers with cancellation
   checkpoints surface it as a timeout; checkpoint-free heuristics
   merely finish late (recorded as "ok" — the stall is harmless
   there, which is itself part of the robustness story). *)
let actions ~timeout_ms =
  [
    ("raise", Fault.Raise);
    ("stall", Fault.Stall (float_of_int timeout_ms /. 1000. *. 1.5));
    ("corrupt", Fault.Corrupt);
  ]

let outcome_kind = function
  | Ok _ -> "ok"
  | Error f -> Runner.kind_name f.Runner.kind

let run ~experiment ~timeout_ms ~sizes () =
  let actions = actions ~timeout_ms in
  let rng = Rng.create (Common.seed_for 11) in
  let inst =
    Dsp_instance.Generators.uniform rng ~n:(fst sizes) ~width:(snd sizes)
      ~max_w:(max 1 (snd sizes / 2)) ~max_h:12
  in
  Common.section experiment
    "fault injection: every injected fault is caught, never a crash";
  Printf.printf "%-14s %-30s %-8s %-10s\n" "solver" "site" "action" "outcome";
  let absorbed = ref 0 and total = ref 0 in
  List.iter
    (fun (solver_name, site) ->
      let solver = Registry.find_exn solver_name in
      List.iter
        (fun (action_name, action) ->
          incr total;
          Fault.arm { Fault.site; action; after = 1 };
          let outcome =
            Fun.protect ~finally:Fault.disarm (fun () ->
                Runner.run_one ~timeout_ms solver inst)
          in
          let kind = outcome_kind outcome in
          (* Any typed failure means the fault was caught at the engine
             boundary; "ok" can only mean the site was never hit. *)
          if Result.is_error outcome then incr absorbed;
          Printf.printf "%-14s %-30s %-8s %-10s\n" solver_name site action_name
            kind;
          Bench_json.record ~experiment
            (Printf.sprintf "%s.%s.%s" solver_name site action_name)
            (Json.String kind))
        actions)
    matrix;
  (* Fallback pass: the chain must absorb a fault in its first stage
     and still deliver a validated report. *)
  List.iter
    (fun (action_name, action) ->
      Fault.arm { Fault.site = Sites.bb_nodes; action; after = 1 };
      let res =
        Fun.protect ~finally:Fault.disarm (fun () ->
            Runner.solve ~timeout_ms
              ~chain:
                (List.map Registry.find_exn [ "exact-bb"; "approx54"; "bfd-height" ])
              inst)
      in
      Printf.printf "chain under bb.nodes:%s -> winner %s (%d stage failures)\n"
        action_name res.Runner.winner
        (List.length res.Runner.failures);
      Bench_json.record ~experiment
        (Printf.sprintf "chain.bb.nodes.%s.winner" action_name)
        (Json.String res.Runner.winner);
      Bench_json.record ~experiment
        (Printf.sprintf "chain.bb.nodes.%s.failures" action_name)
        (Json.Int (List.length res.Runner.failures)))
    actions;
  Bench_json.record ~experiment "absorbed" (Json.Int !absorbed);
  Bench_json.record ~experiment "injected" (Json.Int !total);
  Printf.printf "absorbed %d of %d injected faults\n" !absorbed !total

let faults () = run ~experiment:"faults" ~timeout_ms:2_000 ~sizes:(24, 40) ()

let faults_smoke () =
  run ~experiment:"faults-smoke" ~timeout_ms:500 ~sizes:(10, 20) ()

let experiments = [ ("faults", faults); ("faults-smoke", faults_smoke) ]
