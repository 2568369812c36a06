(* dsp — command-line front end for the Demand Strip Packing library.

   Subcommands: list, generate, solve, compare, exact, gap, transform,
   rotate, stats, smartgrid, trace, online.  Instances travel as the plain-text
   format of {!Dsp_instance.Io}; event traces as the format of
   {!Dsp_instance.Trace}.  Every algorithm the CLI knows about comes
   from the central solver registry ({!Dsp_engine.Registry}): solvers
   registered there appear in [list], [solve --algo], and [compare]
   automatically.  Every subcommand that draws randomness takes the
   same deterministic [--seed]. *)

open Cmdliner
open Dsp_core
module Registry = Dsp_engine.Registry
module Solver = Dsp_engine.Solver
module Report = Dsp_engine.Report
module Runner = Dsp_engine.Runner

let read_instance path =
  let text =
    if path = "-" then In_channel.input_all In_channel.stdin
    else Dsp_instance.Io.read_file path
  in
  match Dsp_instance.Io.instance_of_string text with
  | Ok inst -> inst
  | Error e ->
      Printf.eprintf "error: %s: %s\n"
        (if path = "-" then "<stdin>" else path)
        (Dsp_instance.Io.error_to_string e);
      exit 2

(* Pre-registry CLI spellings, kept so documented invocations survive
   the rename; the registry stays the only table defining solvers. *)
let aliases = [ ("bfd", "bfd-height"); ("steinberg", "steinberg2") ]

let solver_conv =
  let parse s =
    let s = Option.value (List.assoc_opt s aliases) ~default:s in
    match Registry.find s with
    | Some solver -> Ok solver
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown algorithm %S (expected %s)" s
               (String.concat "|" (Registry.names ()))))
  in
  Arg.conv
    (parse, fun fmt (s : Solver.t) -> Format.pp_print_string fmt s.Solver.name)

(* One spelling of determinism for every randomized subcommand: equal
   seeds replay generators and traces bit-identically (Dsp_util.Rng). *)
let seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "seed" ]
        ~doc:"Random seed; equal seeds replay generators bit-identically.")

(* Budgets and deadlines are counts: a negative one is a usage error
   (exit 124), not an internal one. *)
let non_negative_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 0 -> Error (`Msg (Printf.sprintf "must be >= 0, got %d" n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let budget_nodes_arg =
  Arg.(
    value
    & opt non_negative_int Solver.default_node_budget
    & info [ "budget-nodes" ]
        ~doc:
          "Node cap for exponential (exact) solvers; 0 excludes them \
           entirely.")

let timeout_arg =
  Arg.(
    value
    & opt (some non_negative_int) None
    & info [ "timeout-ms" ]
        ~doc:
          "Wall-clock deadline per solve, in milliseconds (cooperative \
           cancellation: solvers notice at their next checkpoint).")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for parallel paths (exact-bb-par, --race); 0 = \
           auto (DSP_JOBS, else the hardware's recommended domain count).")

(* --jobs also steers every implicit pool (the registry's exact-bb-par
   spawns its own), so apply it globally before solving. *)
let apply_jobs jobs =
  if jobs < 0 then begin
    Printf.eprintf "error: --jobs must be >= 0\n";
    exit 2
  end
  else if jobs > 0 then Dsp_util.Pool.set_default_jobs jobs

let race_arg =
  Arg.(
    value
    & flag
    & info [ "race" ]
        ~doc:
          "Run the fallback chain (or the solver set, for $(b,compare)) \
           concurrently on a domain pool under one shared wall-clock \
           deadline; the first validated report wins and the losers are \
           cancelled cooperatively.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ]
        ~doc:
          "Arm a deterministic fault before solving: \
           $(i,SITE:ACTION[:AFTER]) where SITE is an instrumentation \
           counter name, ACTION is raise|stall[MS]|corrupt, and AFTER is \
           the 1-based hit that fires (e.g. bb.nodes:raise:100).")

let with_injection spec f =
  match spec with
  | None -> f ()
  | Some spec -> (
      match Dsp_util.Fault.parse_spec spec with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
      | Ok plan ->
          Dsp_util.Fault.arm plan;
          Fun.protect ~finally:Dsp_util.Fault.disarm f)

let print_counters (r : Report.t) =
  Printf.printf "counters:\n";
  List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) r.Report.counters

(* list *)

let list_cmd =
  let run () =
    Printf.printf "%-14s %-10s %-12s %s\n" "name" "family" "complexity"
      "description";
    List.iter
      (fun (s : Solver.t) ->
        Printf.printf "%-14s %-10s %-12s %s\n" s.Solver.name
          (Solver.family_name s.Solver.family)
          (Solver.complexity_name s.Solver.complexity)
          s.Solver.doc)
      (Registry.all ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every solver in the registry")
    Term.(const run $ const ())

(* generate *)

let generate_cmd =
  let run kind n width seed =
    let rng = Dsp_util.Rng.create seed in
    let inst =
      match kind with
      | "uniform" ->
          Dsp_instance.Generators.uniform rng ~n ~width ~max_w:(max 1 (width / 2))
            ~max_h:20
      | "correlated" ->
          Dsp_instance.Generators.correlated rng ~n ~width
            ~max_w:(max 1 (width / 2)) ~max_h:20
      | "tallflat" ->
          Dsp_instance.Generators.tall_and_flat rng ~n ~width ~max_h:20
      | "perfect" ->
          Dsp_instance.Generators.perfect_fit rng ~width ~height:20 ~cuts:n
      | "smartgrid" ->
          Dsp_smartgrid.Smartgrid.to_instance
            (Dsp_smartgrid.Smartgrid.simulate_day rng ~households:(max 1 (n / 4)))
      | other ->
          Printf.eprintf "unknown kind %S\n" other;
          exit 2
    in
    print_string (Dsp_instance.Io.instance_to_string inst)
  in
  let kind =
    Arg.(value & opt string "uniform" & info [ "kind" ] ~doc:"uniform|correlated|tallflat|perfect|smartgrid")
  in
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"number of items") in
  let width = Arg.(value & opt int 50 & info [ "width"; "W" ] ~doc:"strip width") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random DSP instance")
    Term.(const run $ kind $ n $ width $ seed_arg)

(* solve *)

let solve_cmd =
  let print_report show stats (r : Report.t) =
    Printf.printf
      "algorithm: %s\npeak: %d\nlower bound: %d\nratio vs LB: %.3f\ntime: \
       %.4fs\n"
      r.Report.solver r.Report.peak r.Report.lower_bound r.Report.ratio
      r.Report.seconds;
    if stats then print_counters r;
    if show then print_endline (Profile.render (Packing.profile r.Report.packing))
  in
  let print_resolution ~label show stats (res : Runner.resolution) =
    List.iter
      (fun f ->
        Printf.printf "%s: %s\n" label
          (Format.asprintf "%a" Runner.pp_failure f))
      res.Runner.failures;
    if res.Runner.safety_net then
      Printf.printf "%s: chain exhausted, degraded to safety net\n" label;
    print_report show stats res.Runner.report
  in
  let run solver path show stats budget_nodes timeout_ms fallback jobs race
      inject =
    let inst = read_instance path in
    apply_jobs jobs;
    let explicit_chain =
      Option.map
        (fun spec ->
          match Runner.parse_chain spec with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 2
          | Ok chain -> chain)
        fallback
    in
    with_injection inject (fun () ->
        if race then begin
          let chain =
            match explicit_chain with
            | Some c -> c
            | None -> Runner.default_chain ()
          in
          (* One worker per racing stage unless --jobs caps it. *)
          let pool_jobs = if jobs > 0 then jobs else List.length chain in
          let res =
            Dsp_util.Pool.with_pool ~jobs:pool_jobs (fun pool ->
                Runner.race ?timeout_ms ~node_budget:budget_nodes ~chain ~pool
                  inst)
          in
          Printf.printf "race: winner %s of %s\n" res.Runner.winner
            (Runner.chain_to_string chain);
          print_resolution ~label:"race" show stats res
        end
        else
          match explicit_chain with
          | Some chain ->
              let res =
                Runner.solve ?timeout_ms ~node_budget:budget_nodes ~chain inst
              in
              print_resolution ~label:"fallback" show stats res
          | None -> (
              match
                Runner.run_one ?timeout_ms ~node_budget:budget_nodes solver inst
              with
              | Error f ->
                  Printf.eprintf "error: %s\n"
                    (Format.asprintf "%a" Runner.pp_failure f);
                  exit 3
              | Ok r -> print_report show stats r))
  in
  let solver =
    Arg.(
      value
      & opt solver_conv (Registry.find_exn "approx54")
      & info [ "algo"; "a" ] ~doc:"algorithm (see $(b,dsp list))")
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  let show = Arg.(value & flag & info [ "render" ] ~doc:"render the profile") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"dump the per-solve counters")
  in
  let fallback =
    Arg.(
      value
      & opt (some string) None
      & info [ "fallback" ]
          ~doc:
            "Comma-separated fallback chain of solver names (e.g. \
             exact-bb,approx54,bfd-height).  Each stage gets an equal slice \
             of the remaining deadline; failures degrade to the next stage, \
             so a packing always comes back.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a DSP instance with one algorithm")
    Term.(
      const run $ solver $ path $ show $ stats $ budget_nodes_arg $ timeout_arg
      $ fallback $ jobs_arg $ race_arg $ inject_arg)

(* compare *)

let compare_cmd =
  let run path stats budget_nodes timeout_ms jobs race inject =
    let inst = read_instance path in
    apply_jobs jobs;
    let solvers =
      List.filter
        (fun (s : Solver.t) ->
          budget_nodes > 0 || s.Solver.complexity <> Solver.Exponential)
        (Registry.all ())
    in
    if race then begin
      (* Race the whole eligible set: one shared deadline, first
         validated report wins. *)
      let chain =
        (* exact-bb-par spawns its own pool; racing it inside another
           pool's worker would nest domains pointlessly on small
           machines, so the race sticks to the serial solvers. *)
        List.filter
          (fun (s : Solver.t) -> s.Solver.name <> "exact-bb-par")
          solvers
      in
      let pool_jobs = if jobs > 0 then jobs else List.length chain in
      let res =
        with_injection inject (fun () ->
            Dsp_util.Pool.with_pool ~jobs:pool_jobs (fun pool ->
                Runner.race ?timeout_ms ~node_budget:(max 1 budget_nodes) ~chain
                  ~pool inst))
      in
      Printf.printf "race: winner %s of %s\n" res.Runner.winner
        (Runner.chain_to_string chain);
      List.iter
        (fun f ->
          Printf.printf "race: %s\n" (Format.asprintf "%a" Runner.pp_failure f))
        res.Runner.failures;
      let r = res.Runner.report in
      Printf.printf "peak: %d\nratio vs LB: %.3f\ntime: %.4fs\n" r.Report.peak
        r.Report.ratio r.Report.seconds;
      if stats then print_counters r
    end
    else begin
    let outcomes =
      if jobs > 1 then
        (* Budget each solver concurrently; rows still print in
           registry order once everything lands. *)
        Dsp_util.Pool.with_pool ~jobs (fun pool ->
            Dsp_util.Pool.map pool
              (fun (s : Solver.t) ->
                with_injection inject (fun () ->
                    Runner.run_one ?timeout_ms ~node_budget:(max 1 budget_nodes)
                      s inst))
              solvers)
      else
        List.map
          (fun s ->
            with_injection inject (fun () ->
                Runner.run_one ?timeout_ms ~node_budget:(max 1 budget_nodes) s
                  inst))
          solvers
    in
    Printf.printf "%-14s %-10s %6s %8s %10s\n" "algorithm" "family" "peak"
      "vs LB" "seconds";
    let reports =
      List.filter_map
        (fun ((s : Solver.t), outcome) ->
          match outcome with
          | Ok r ->
              Printf.printf "%-14s %-10s %6d %8.3f %10.4f\n" s.Solver.name
                (Solver.family_name s.Solver.family)
                r.Report.peak r.Report.ratio r.Report.seconds;
              Some r
          | Error f ->
              Printf.printf "%-14s %-10s %6s %8s %10s [%s after %.1fms]\n"
                s.Solver.name
                (Solver.family_name s.Solver.family)
                "-" "-" "-"
                (Runner.kind_name f.Runner.kind)
                (f.Runner.seconds *. 1000.);
              None)
        (List.combine solvers outcomes)
    in
    (* When the exact solver finished, re-express every ratio against
       the true optimum. *)
    (match
       List.find_opt
         (fun (r : Report.t) -> (Registry.find_exn r.Report.solver).Solver.family = Solver.Exact)
         reports
     with
    | Some exact when exact.Report.peak > 0 ->
        Printf.printf "\nvs true OPT = %d:\n" exact.Report.peak;
        List.iter
          (fun (r : Report.t) ->
            Printf.printf "%-14s %8.3f\n" r.Report.solver
              (float_of_int r.Report.peak /. float_of_int exact.Report.peak))
          reports
    | _ -> ());
    if stats then
      List.iter
        (fun r ->
          print_newline ();
          print_counters r)
        reports
    end
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"dump per-solver counters")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run every registered solver on an instance (exact solvers under the \
          --budget-nodes cap; per-solver --timeout-ms deadline; --jobs runs \
          the solvers concurrently, --race returns only the first validated \
          report)")
    Term.(
      const run $ path $ stats $ budget_nodes_arg $ timeout_arg $ jobs_arg
      $ race_arg $ inject_arg)

(* exact *)

let exact_cmd =
  let run path nodes =
    let inst = read_instance path in
    match Runner.run_one ~node_budget:nodes (Registry.find_exn "exact-bb") inst with
    | Ok r ->
        Printf.printf "optimal peak: %d (explored %d nodes)\n" r.Report.peak
          (Report.counter r "bb.nodes")
    | Error { Runner.kind = Runner.Budget_exhausted _; _ } ->
        Printf.printf "node budget exhausted (limit %d)\n" nodes
    | Error f ->
        Printf.eprintf "error: %s\n" (Format.asprintf "%a" Runner.pp_failure f);
        exit 3
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  let nodes =
    Arg.(
      value & opt non_negative_int 20_000_000 & info [ "nodes" ] ~doc:"node budget")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact branch-and-bound optimum (small instances)")
    Term.(const run $ path $ nodes)

(* gap *)

let gap_cmd =
  let run path =
    let inst = read_instance path in
    let within = Dsp_util.Budget.within ~nodes:20_000_000 in
    match
      ( within (fun budget -> Dsp_exact.Dsp_bb.optimal_height ~budget inst),
        within (fun budget -> Dsp_exact.Sp_exact.optimal_height ~budget inst) )
    with
    | Some dsp, Some sp ->
        Printf.printf "OPT_DSP=%d OPT_SP=%d gap=%.4f\n" dsp sp
          (float_of_int sp /. float_of_int dsp)
    | _ -> print_endline "node budget exhausted"
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "gap" ~doc:"Exact sliced-vs-unsliced gap of a small instance")
    Term.(const run $ path)

(* transform *)

let transform_cmd =
  let run path machines =
    let inst = read_instance path in
    let pk = Dsp_algo.Approx53.solve inst in
    let m = if machines = 0 then Packing.height pk else machines in
    match Dsp_transform.Transform.packing_to_schedule pk ~machines:m with
    | Ok (sched, stats) ->
        Printf.printf
          "packing height %d -> schedule on %d machines, makespan %d (%d events)\n"
          (Packing.height pk) m
          (Pts.Schedule.makespan sched)
          stats.Dsp_transform.Transform.events;
        print_endline (Pts.Schedule.render sched)
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  let machines =
    Arg.(value & opt int 0 & info [ "machines"; "m" ] ~doc:"machine count (0 = packing height)")
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Pack, then transform into a PTS schedule (Theorem 1)")
    Term.(const run $ path $ machines)

(* rotate *)

let rotate_cmd =
  let run path =
    let inst = read_instance path in
    let pk, orientations = Dsp_algo.Rotations.best_fit_rotating inst in
    let rotated =
      Array.to_list orientations
      |> List.filter (fun o -> o = Dsp_algo.Rotations.Rotated)
      |> List.length
    in
    let fixed = Dsp_algo.Approx54.solve inst in
    Printf.printf
      "fixed-orientation peak: %d\nrotating greedy peak:   %d (%d of %d items rotated)\n"
      (Packing.height fixed) (Packing.height pk) rotated (Instance.n_items inst)
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "rotate" ~doc:"Pack with 90-degree rotations allowed (paper conclusion)")
    Term.(const run $ path)

(* stats *)

let stats_cmd =
  let run path =
    let inst = read_instance path in
    let pk = Dsp_algo.Approx54.solve inst in
    let target = Packing.height pk in
    let params =
      Dsp_algo.Classify.choose_params inst ~target ~eps:(Dsp_util.Rat.make 1 4)
    in
    let cls = Dsp_algo.Classify.classify inst params in
    Printf.printf "peak: %d  delta=%s mu=%s\nclasses:\n" target
      (Dsp_util.Rat.to_string params.Dsp_algo.Classify.delta)
      (Dsp_util.Rat.to_string params.Dsp_algo.Classify.mu);
    List.iter
      (fun (name, count) -> Printf.printf "  %-16s %d\n" name count)
      (Dsp_algo.Classify.class_sizes cls);
    let s = Dsp_algo.Boxes.partition_stats pk params in
    Format.printf "Lemma 4/5 partition:@.%a@." Dsp_algo.Boxes.pp_stats s
  in
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "stats" ~doc:"Classification and structural statistics of an instance")
    Term.(const run $ path)

(* smartgrid *)

let smartgrid_cmd =
  let run households seed =
    let rng = Dsp_util.Rng.create seed in
    let runs = Dsp_smartgrid.Smartgrid.simulate_day rng ~households in
    let report =
      Dsp_smartgrid.Smartgrid.evaluate runs ~scheduler:(fun i ->
          Dsp_algo.Approx54.solve i)
    in
    Printf.printf
      "runs: %d\nnaive peak: %d\nscheduled peak: %d\nlower bound: %d\n\
       peak reduction: %.1f%%\nnaive cost: %d\nscheduled cost: %d\n"
      report.Dsp_smartgrid.Smartgrid.runs report.naive_peak report.scheduled_peak
      report.lower_bound report.reduction_percent report.naive_cost
      report.scheduled_cost
  in
  let households =
    Arg.(value & opt int 25 & info [ "households" ] ~doc:"number of households")
  in
  Cmd.v
    (Cmd.info "smartgrid" ~doc:"Simulate a smart-grid day and minimize its peak")
    Term.(const run $ households $ seed_arg)

(* trace *)

let trace_cmd =
  let run kind n width seed households arrivals_only scale =
    let rng = Dsp_util.Rng.create seed in
    let trace =
      match kind with
      | "smartgrid" ->
          Dsp_instance.Trace.smartgrid rng ~households
            ~departures:(not arrivals_only)
      | "gap" -> Dsp_instance.Trace.gap_arrivals rng ~scale
      | "churn" -> Dsp_instance.Trace.churn rng ~width ~n
      | "uniform" ->
          Dsp_instance.Trace.of_instance ~shuffle:rng
            (Dsp_instance.Generators.uniform rng ~n ~width
               ~max_w:(max 1 (width / 2)) ~max_h:20)
      | other ->
          Printf.eprintf "unknown kind %S\n" other;
          exit 2
    in
    print_string (Dsp_instance.Trace.to_string trace)
  in
  let kind =
    Arg.(
      value
      & opt string "smartgrid"
      & info [ "kind" ] ~doc:"smartgrid|gap|churn|uniform")
  in
  let n =
    Arg.(value & opt int 40 & info [ "n" ] ~doc:"arrivals (churn, uniform)")
  in
  let width =
    Arg.(
      value & opt int 50 & info [ "width"; "W" ] ~doc:"strip width (churn, uniform)")
  in
  let households =
    Arg.(
      value & opt int 25 & info [ "households" ] ~doc:"households (smartgrid)")
  in
  let arrivals_only =
    Arg.(
      value
      & flag
      & info [ "arrivals-only" ]
          ~doc:"suppress departures (smartgrid kind only)")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"height scale (gap)")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Generate an arrival/departure trace for $(b,dsp online)")
    Term.(
      const run $ kind $ n $ width $ seed_arg $ households $ arrivals_only
      $ scale)

(* online *)

let online_cmd =
  let run trace_path policy_name k stats show =
    let text =
      if trace_path = "-" then In_channel.input_all In_channel.stdin
      else Dsp_instance.Io.read_file trace_path
    in
    let trace =
      match Dsp_instance.Trace.of_string text with
      | Ok t -> t
      | Error e ->
          Printf.eprintf "error: %s: %s\n"
            (if trace_path = "-" then "<stdin>" else trace_path)
            (Dsp_instance.Trace.error_to_string e);
          exit 2
    in
    let policy =
      match Dsp_engine.Session.find_policy ~k policy_name with
      | Some p -> p
      | None ->
          Printf.eprintf
            "error: unknown policy %S (expected first-fit|best-fit|migrate)\n"
            policy_name;
          exit 2
    in
    let before = Dsp_util.Instr.snapshot () in
    let session =
      Dsp_engine.Session.create ~policy ~width:trace.Dsp_instance.Trace.width ()
    in
    let events = Array.of_list trace.Dsp_instance.Trace.events in
    let lats = Array.make (max 1 (Array.length events)) 0.0 in
    let max_peak = ref 0 in
    Array.iteri
      (fun i ev ->
        let (), dt =
          Dsp_util.Xutil.timeit (fun () ->
              Dsp_engine.Session.apply session ev)
        in
        lats.(i) <- dt;
        let pk = Dsp_engine.Session.peak session in
        if pk > !max_peak then max_peak := pk)
      events;
    let s = Dsp_engine.Session.stats session in
    let packing = Dsp_engine.Session.snapshot session in
    let valid =
      match Packing.validate packing with Ok () -> "valid" | Error e -> e
    in
    Printf.printf
      "policy: %s\nevents: %d (%d arrivals, %d departures)\nmigrations: %d\n\
       final peak: %d\nmax peak: %d\nfinal packing: %s\n"
      policy.Dsp_engine.Session.pname (Array.length events)
      s.Dsp_engine.Session.arrivals s.Dsp_engine.Session.departures
      s.Dsp_engine.Session.migrations s.Dsp_engine.Session.peak_now !max_peak
      valid;
    (* Offline yardsticks on the final live set: what a batch solver
       achieves given the whole remaining workload at once. *)
    let live_inst = Packing.instance packing in
    if Instance.n_items live_inst > 0 then begin
      Printf.printf "offline (final live set, lower bound %d):\n"
        (Instance.lower_bound live_inst);
      List.iter
        (fun name ->
          match Runner.run_one (Registry.find_exn name) live_inst with
          | Ok r ->
              Printf.printf "  %-12s peak %4d  ratio %.3f\n" name r.Report.peak
                (float_of_int s.Dsp_engine.Session.peak_now
                /. float_of_int (max 1 r.Report.peak))
          | Error f ->
              Printf.printf "  %s\n" (Format.asprintf "%a" Runner.pp_failure f))
        [ "bfd-height"; "approx54" ]
    end;
    let sorted = Array.copy lats in
    Array.sort compare sorted;
    Printf.printf
      "per-event latency: p50 %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus\n"
      (Dsp_util.Xutil.percentile sorted 0.50 *. 1e6)
      (Dsp_util.Xutil.percentile sorted 0.95 *. 1e6)
      (Dsp_util.Xutil.percentile sorted 0.99 *. 1e6)
      (sorted.(Array.length sorted - 1) *. 1e6);
    if stats then begin
      let after = Dsp_util.Instr.snapshot () in
      Printf.printf "counters:\n";
      List.iter
        (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
        (Dsp_util.Instr.delta ~before ~after)
    end;
    if show then
      print_endline (Profile.render (Dsp_engine.Session.profile session))
  in
  let trace_path =
    Arg.(
      value
      & opt string "-"
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Trace file (see $(b,dsp trace)); - reads stdin.")
  in
  let policy_name =
    Arg.(
      value
      & opt string "best-fit"
      & info [ "policy" ] ~doc:"first-fit|best-fit|migrate")
  in
  let k =
    Arg.(
      value
      & opt int 1
      & info [ "migration-k" ]
          ~doc:"Max re-placements of existing items per arrival (migrate).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"dump the session counters")
  in
  let show =
    Arg.(value & flag & info [ "render" ] ~doc:"render the final profile")
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Replay an arrival/departure trace through an incremental session \
          and compare against offline solvers")
    Term.(const run $ trace_path $ policy_name $ k $ stats $ show)

let () =
  let doc = "Demand Strip Packing: algorithms from Jansen, Rau & Tutas (SPAA 2024)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dsp" ~doc)
          [
            list_cmd;
            generate_cmd;
            solve_cmd;
            compare_cmd;
            exact_cmd;
            gap_cmd;
            transform_cmd;
            rotate_cmd;
            stats_cmd;
            smartgrid_cmd;
            trace_cmd;
            online_cmd;
          ]))
