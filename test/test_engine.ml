(* Registry-wide property suite for the solver engine: every
   registered solver, on random instances, must produce a validated
   report whose numbers are recomputable, and a corrupted packing must
   be rejected at the Report boundary as a typed failure. *)

open Dsp_core
module Solver = Dsp_engine.Solver
module Registry = Dsp_engine.Registry
module Report = Dsp_engine.Report
module Runner = Dsp_engine.Runner

let registry_tests =
  [
    Alcotest.test_case "registry names are unique" `Quick (fun () ->
        let names = Registry.names () in
        let sorted = List.sort_uniq compare names in
        Alcotest.check Alcotest.int "no duplicate names" (List.length names)
          (List.length sorted));
    Alcotest.test_case "heuristics excludes exponential solvers" `Quick
      (fun () ->
        Alcotest.check Alcotest.bool "no Exponential in heuristics" true
          (List.for_all
             (fun (s : Solver.t) -> s.Solver.complexity <> Solver.Exponential)
             (Registry.heuristics ())));
  ]

(* For every registered solver: the run succeeds (within a node budget
   large enough for tiny instances), the report's packing re-validates,
   the ratio is >= 1, and the reported peak equals the peak recomputed
   from a fresh profile. *)
let solver_report_tests =
  List.map
    (fun (s : Solver.t) ->
      Helpers.qtest ~count:40
        (s.Solver.name ^ " reports validated packings with recomputable peaks")
        (Helpers.tiny_instance_arb ())
        (fun inst ->
          match Runner.run_one ~node_budget:5_000_000 s inst with
          | Error f -> QCheck.Test.fail_reportf "run failed: %a" Runner.pp_failure f
          | Ok r ->
              let recomputed =
                Profile.peak
                  (Profile.of_starts (Packing.instance r.Report.packing)
                     (Packing.starts r.Report.packing))
              in
              Result.is_ok (Packing.validate r.Report.packing)
              && r.Report.peak = recomputed
              && r.Report.ratio >= 1.0
              && r.Report.lower_bound = Instance.lower_bound inst
              && r.Report.seconds >= 0.0))
    (Registry.all ())

let counter_tests =
  [
    Alcotest.test_case "approx54 reports its binary-search counters" `Quick
      (fun () ->
        let rng = Dsp_util.Rng.create 3 in
        let inst =
          Dsp_instance.Generators.uniform rng ~n:12 ~width:14 ~max_w:8 ~max_h:9
        in
        match Runner.run_one (Registry.find_exn "approx54") inst with
        | Error f -> Alcotest.failf "%a" Runner.pp_failure f
        | Ok r ->
            Alcotest.check Alcotest.bool "approx54.guesses > 0" true
              (Report.counter r "approx54.guesses" > 0);
            Alcotest.check Alcotest.bool "segtree ops recorded" true
              (Report.counter r "segtree.range_add" > 0));
    Alcotest.test_case "exact-bb reports node counts and respects budgets"
      `Quick (fun () ->
        let rng = Dsp_util.Rng.create 4 in
        let inst =
          Dsp_instance.Generators.uniform rng ~n:6 ~width:8 ~max_w:5 ~max_h:6
        in
        let exact = Registry.find_exn "exact-bb" in
        (match Runner.run_one ~node_budget:5_000_000 exact inst with
        | Error f -> Alcotest.failf "%a" Runner.pp_failure f
        | Ok r ->
            Alcotest.check Alcotest.bool "bb.nodes > 0" true
              (Report.counter r "bb.nodes" > 0));
        (* A one-node budget cannot finish: the engine must surface the
           exhaustion as a budget failure, not as a bogus packing. *)
        let big = Dsp_instance.Generators.uniform rng ~n:14 ~width:12 ~max_w:6 ~max_h:8 in
        match Runner.run_one ~node_budget:1 exact big with
        | Error f ->
            Alcotest.(check string) "kind" "budget" (Runner.kind_name f.Runner.kind)
        | Ok _ -> Alcotest.fail "expected budget exhaustion");
  ]

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let corruption_tests =
  [
    Alcotest.test_case "Report.make rejects a packing for another instance"
      `Quick (fun () ->
        let inst_a = Instance.of_dims ~width:6 [ (2, 3); (3, 1) ] in
        let inst_b = Instance.of_dims ~width:6 [ (2, 3); (3, 2) ] in
        let pk = Dsp_algo.Baselines.best_fit_decreasing inst_a in
        match
          Report.make ~solver:"crafted" ~instance:inst_b ~packing:pk
            ~seconds:0.0 ~counters:[]
        with
        | Ok _ -> Alcotest.fail "expected a validation error"
        | Error msg ->
            Alcotest.check Alcotest.bool
              (Printf.sprintf "message is descriptive: %S" msg)
              true
              (String.length msg > 0 && contains_substring msg "crafted"));
    Alcotest.test_case "a solver answering the wrong instance fails loudly"
      `Quick (fun () ->
        let other = Instance.of_dims ~width:5 [ (1, 1) ] in
        let lying =
          {
            Solver.name = "lying-solver";
            family = Solver.Baseline;
            complexity = Solver.Poly;
            doc = "returns a packing of a different instance";
            solve =
              (fun ~budget:_ _inst ->
                Dsp_algo.Baselines.best_fit_decreasing other);
          }
        in
        let inst = Instance.of_dims ~width:6 [ (2, 2); (4, 1) ] in
        match Runner.run_one lying inst with
        | Error { Runner.kind = Runner.Invalid_result msg; solver; _ } ->
            Alcotest.(check string) "solver" "lying-solver" solver;
            Alcotest.check Alcotest.bool
              (Printf.sprintf "message names the solver: %S" msg)
              true
              (contains_substring msg "lying-solver")
        | Error f -> Alcotest.failf "expected Invalid_result, got %a" Runner.pp_failure f
        | Ok _ -> Alcotest.fail "expected Invalid_result");
  ]

let suite =
  registry_tests @ solver_report_tests @ counter_tests @ corruption_tests
