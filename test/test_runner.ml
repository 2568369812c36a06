(* Fault-tolerant runner: outcome taxonomy, fallback-chain totality,
   and the deterministic fault-injection harness. *)

module Runner = Dsp_engine.Runner
module Registry = Dsp_engine.Registry
module Report = Dsp_engine.Report
module Fault = Dsp_util.Fault
module Budget = Dsp_util.Budget

let small_instance () =
  let rng = Dsp_util.Rng.create 7 in
  Dsp_instance.Generators.uniform rng ~n:12 ~width:20 ~max_w:8 ~max_h:9

(* Seed picked so the exact branch-and-bound needs tens of seconds
   (millions of nodes): a reliable victim for short deadlines and tiny
   node budgets. *)
let hard_instance () =
  let rng = Dsp_util.Rng.create 2 in
  Dsp_instance.Generators.uniform rng ~n:28 ~width:24 ~max_w:12 ~max_h:10

let find = Registry.find_exn

let with_fault plan f =
  Fault.arm plan;
  Fun.protect ~finally:Fault.disarm f

let taxonomy_tests =
  [
    Alcotest.test_case "run_one succeeds on an easy instance" `Quick (fun () ->
        match Runner.run_one (find "bfd-height") (small_instance ()) with
        | Ok report ->
            Alcotest.(check string)
              "winner" "bfd-height" report.Report.solver
        | Error f -> Alcotest.failf "unexpected %a" Runner.pp_failure f);
    Alcotest.test_case "deadline maps to Timeout with partial counters"
      `Quick (fun () ->
        match
          Runner.run_one ~timeout_ms:100 (find "exact-bb") (hard_instance ())
        with
        | Ok _ -> Alcotest.fail "100ms cannot crack the hardness gadget"
        | Error f ->
            Alcotest.(check string) "kind" "timeout"
              (Runner.kind_name f.Runner.kind);
            Alcotest.(check bool) "elapsed recorded" true
              (f.Runner.seconds > 0.);
            (* The run died mid-search, but the work done before the
               deadline must still be attributed. *)
            Alcotest.(check bool) "bb.nodes counter survived" true
              (match List.assoc_opt "bb.nodes" f.Runner.counters with
              | Some n -> n > 0
              | None -> false));
    Alcotest.test_case "node budget maps to Budget_exhausted" `Quick
      (fun () ->
        (* The serial and the stealing search both report a spent node
           cap as the budget's own exhaustion. *)
        List.iter
          (fun name ->
            match
              Runner.run_one ~node_budget:50 (find name) (hard_instance ())
            with
            | Ok _ -> Alcotest.failf "50 nodes cannot crack the gadget (%s)" name
            | Error f ->
                Alcotest.(check string) (name ^ " kind") "budget"
                  (Runner.kind_name f.Runner.kind))
          [ "exact-bb"; "exact-bb-par" ]);
    Alcotest.test_case "injected raise maps to Solver_error" `Quick (fun () ->
        let outcome =
          with_fault
            { Fault.site = "segtree.best_start"; action = Fault.Raise; after = 1 }
            (fun () -> Runner.run_one (find "bfd-height") (small_instance ()))
        in
        match outcome with
        | Ok _ -> Alcotest.fail "fault did not fire"
        | Error f ->
            Alcotest.(check string) "kind" "error"
              (Runner.kind_name f.Runner.kind));
    Alcotest.test_case "injected stall maps to Timeout via checkpoints"
      `Quick (fun () ->
        let outcome =
          with_fault
            { Fault.site = "bb.nodes"; action = Fault.Stall 0.4; after = 1 }
            (fun () ->
              Runner.run_one ~timeout_ms:100 (find "exact-bb")
                (small_instance ()))
        in
        match outcome with
        | Ok _ -> Alcotest.fail "stall outlived the deadline yet succeeded"
        | Error f ->
            Alcotest.(check string) "kind" "timeout"
              (Runner.kind_name f.Runner.kind));
    Alcotest.test_case "injected corruption maps to Invalid_result" `Quick
      (fun () ->
        let outcome =
          with_fault
            { Fault.site = "segtree.best_start"; action = Fault.Corrupt; after = 1 }
            (fun () -> Runner.run_one (find "bfd-height") (small_instance ()))
        in
        match outcome with
        | Ok _ -> Alcotest.fail "corrupted packing passed validation"
        | Error f ->
            Alcotest.(check string) "kind" "invalid"
              (Runner.kind_name f.Runner.kind));
    Alcotest.test_case "disarm always runs: no fault leaks to later solves"
      `Quick (fun () ->
        (ignore
           (with_fault
              { Fault.site = "segtree.best_start"; action = Fault.Raise; after = 1 }
              (fun () -> Runner.run_one (find "bfd-height") (small_instance ())))
          : unit);
        Alcotest.(check bool) "disarmed" false (Fault.fired ());
        match Runner.run_one (find "bfd-height") (small_instance ()) with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "leaked fault: %a" Runner.pp_failure f);
  ]

let chain_tests =
  [
    Alcotest.test_case "chain degrades to the approximation under deadline"
      `Quick (fun () ->
        let res = Runner.solve ~timeout_ms:100 (hard_instance ()) in
        Alcotest.(check bool) "exact-bb fell through" true
          (List.exists
             (fun f -> f.Runner.solver = "exact-bb")
             res.Runner.failures);
        Alcotest.(check bool) "winner is a later stage" true
          (res.Runner.winner <> "exact-bb");
        (* Whatever won, the report is validated for this instance. *)
        Alcotest.(check bool) "peak positive" true
          (res.Runner.report.Report.peak > 0));
    Alcotest.test_case "solve is total even when every stage is sabotaged"
      `Quick (fun () ->
        (* A raise in the shared kernel site hits heuristics too; the
           safety net re-solves after disarm-by-one-shot. *)
        let res =
          with_fault
            { Fault.site = "bb.nodes"; action = Fault.Raise; after = 1 }
            (fun () -> Runner.solve ~timeout_ms:500 (small_instance ()))
        in
        Alcotest.(check bool) "got a report" true
          (res.Runner.report.Report.peak > 0));
    Alcotest.test_case "stages split the remaining deadline equally" `Quick
      (fun () ->
        (* 600 ms over three stages: each exact-bb stage times out after
           its 200 ms slice (0.6/3, then 0.4/2), and bfd-height answers.
           The upper bound leaves 80 ms of scheduler slack. *)
        let res =
          Runner.solve ~timeout_ms:600
            ~chain:[ find "exact-bb"; find "exact-bb"; find "bfd-height" ]
            (hard_instance ())
        in
        Alcotest.(check string) "winner" "bfd-height" res.Runner.winner;
        Alcotest.(check (list string))
          "two timeouts" [ "timeout"; "timeout" ]
          (List.map (fun f -> Runner.kind_name f.Runner.kind) res.Runner.failures);
        List.iteri
          (fun i f ->
            if f.Runner.seconds < 0.19 || f.Runner.seconds > 0.28 then
              Alcotest.failf "stage %d ran %.3f s, want a 0.2 s slice" (i + 1)
                f.Runner.seconds)
          res.Runner.failures);
    Alcotest.test_case "empty chain rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Runner.solve ~chain:[] (small_instance ()));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "parse_chain round-trips and rejects unknowns" `Quick
      (fun () ->
        (match Runner.parse_chain "exact-bb,approx54,bfd-height" with
        | Ok chain ->
            Alcotest.(check string)
              "round trip" "exact-bb,approx54,bfd-height"
              (Runner.chain_to_string chain)
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "unknown solver refused" true
          (Result.is_error (Runner.parse_chain "exact-bb,nonsense")));
  ]

let fault_tests =
  [
    Alcotest.test_case "fault spec parser round-trips" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.parse_spec spec with
            | Ok plan ->
                Alcotest.(check string) spec spec (Fault.spec_to_string plan)
            | Error e -> Alcotest.failf "%s: %s" spec e)
          [
            "bb.nodes:raise:1";
            "segtree.range_add:corrupt:3";
            "simplex.pivots:stall250:2";
          ];
        (match Fault.parse_spec "bb.nodes:raise" with
        | Ok plan -> Alcotest.(check int) "default after" 1 plan.Fault.after
        | Error e -> Alcotest.fail e);
        (* Sites outside the canonical Instr.Sites table are rejected:
           a typo'd site would arm a plan that can never fire. *)
        List.iter
          (fun spec ->
            Alcotest.(check bool) spec true
              (Result.is_error (Fault.parse_spec spec)))
          [
            "";
            "no-action";
            "bb.nodes:explode";
            "bb.nodes:raise:0";
            "bb.nodes:raise:x";
            ":raise";
            "bb.typo:raise";
            "x.y:corrupt:3";
          ]);
    Alcotest.test_case "fault fires on the n-th hit, once" `Quick (fun () ->
        let c = Dsp_util.Instr.counter "test.fault_site" in
        with_fault
          { Fault.site = "test.fault_site"; action = Fault.Raise; after = 3 }
          (fun () ->
            Dsp_util.Instr.bump c;
            Dsp_util.Instr.bump c;
            Alcotest.(check bool) "not yet fired" false (Fault.fired ());
            Alcotest.check_raises "third hit fires"
              (Fault.Injected "injected fault at test.fault_site (hit 3)")
              (fun () -> Dsp_util.Instr.bump c);
            (* One-shot: the site is harmless afterwards. *)
            Dsp_util.Instr.bump c;
            Alcotest.(check bool) "fired" true (Fault.fired ())));
  ]

let suite = taxonomy_tests @ chain_tests @ fault_tests
