(* dsp_lint golden suite: every rule against its fixture pair under
   tools/lint/fixtures, plus the three suppression channels, the
   --only selector, and the dune-graph scrape behind the R2 scope.
   Findings are projected to (rule, basename, line) so the assertions
   pin exact locations without caring about absolute paths. *)

module L = Lint_core

let fixtures = "../tools/lint/fixtures"
let fx name = Filename.concat fixtures name

(* A fixture-local config: designation by basename, fixture dir as the
   domain-shared/budgeted scope, the fixture sites table for R4. *)
let cfg =
  {
    L.r1_scope =
      [
        ("r1_bad.ml", L.All);
        ("r1_good.ml", L.All);
        ("r1_flat_bad.ml", L.All);
        ("r1_flat_good.ml", L.All);
        ("suppress.ml", L.All);
      ];
    r2_dirs = [ "fixtures" ];
    r3_dirs = [ "fixtures" ];
    r4_sites_file = Some "r4_sites.ml";
    r5_allow = [];
  }

let run ?only ?(cfg = cfg) paths =
  let res = L.run ?only cfg paths in
  Alcotest.(check (list string)) "no parse errors" [] res.L.errors;
  List.map
    (fun f -> (L.rule_name f.L.rule, Filename.basename f.L.file, f.L.line))
    res.L.findings

let check = Alcotest.(check (list (triple string string int)))

let case name f = Alcotest.test_case name `Quick f

let rule_tests =
  [
    case "R1 flags raw arithmetic, exempts small literals" (fun () ->
        check "r1_bad"
          [ ("R1", "r1_bad.ml", 3); ("R1", "r1_bad.ml", 4) ]
          (run ~only:[ L.R1 ] [ fx "r1_bad.ml" ]));
    case "R1 accepts checked helpers and index idioms" (fun () ->
        check "r1_good" [] (run ~only:[ L.R1 ] [ fx "r1_good.ml" ]));
    case "R1 flags raw Bigarray-cell accumulation (flat-kernel style)" (fun () ->
        check "r1_flat_bad"
          [
            ("R1", "r1_flat_bad.ml", 3);
            ("R1", "r1_flat_bad.ml", 4);
            ("R1", "r1_flat_bad.ml", 5);
          ]
          (run ~only:[ L.R1 ] [ fx "r1_flat_bad.ml" ]));
    case "R1 accepts saturating thresholds and waivered guard sites" (fun () ->
        check "r1_flat_good" [] (run ~only:[ L.R1 ] [ fx "r1_flat_good.ml" ]));
    case "R2 flags bare toplevel mutable state" (fun () ->
        check "r2_bad"
          [ ("R2", "r2_bad.ml", 2); ("R2", "r2_bad.ml", 3); ("R2", "r2_bad.ml", 4) ]
          (run ~only:[ L.R2 ] [ fx "r2_bad.ml" ]));
    case "R2 accepts Atomic/DLS/Mutex/per-call and the local waiver" (fun () ->
        check "r2_good" [] (run ~only:[ L.R2 ] [ fx "r2_good.ml" ]));
    case "R2 flags an unguarded hand-rolled stealing deque" (fun () ->
        check "r2_deque_bad"
          [
            ("R2", "r2_deque_bad.ml", 3);
            ("R2", "r2_deque_bad.ml", 4);
            ("R2", "r2_deque_bad.ml", 5);
          ]
          (run ~only:[ L.R2 ] [ fx "r2_deque_bad.ml" ]));
    case "R2 accepts the Atomic-indexed deque with a waived ring" (fun () ->
        check "r2_deque_good" [] (run ~only:[ L.R2 ] [ fx "r2_deque_good.ml" ]));
    case "R3 flags checkpoint-free recursion" (fun () ->
        check "r3_bad"
          [ ("R3", "r3_bad.ml", 3) ]
          (run ~only:[ L.R3 ] [ fx "r3_bad.ml" ]));
    case "R3 accepts direct and helper-mediated checkpoints" (fun () ->
        check "r3_good" [] (run ~only:[ L.R3 ] [ fx "r3_good.ml" ]));
    case "R4 flags off-table literals and dead sites" (fun () ->
        check "r4_bad"
          [ ("R4", "r4_bad.ml", 4); ("R4", "r4_sites.ml", 4) ]
          (run ~only:[ L.R4 ] [ fx "r4_sites.ml"; fx "r4_bad.ml" ]));
    case "R4 accepts table bindings and canonical literals" (fun () ->
        check "r4_good" []
          (run ~only:[ L.R4 ] [ fx "r4_sites.ml"; fx "r4_good.ml" ]));
    case "R4 reports a missing sites table instead of going silent" (fun () ->
        check "r4_missing"
          [ ("R4", "r4_sites.ml", 1) ]
          (run ~only:[ L.R4 ] [ fx "r4_bad.ml" ]));
    case "R5 flags try-wildcard and exception-wildcard" (fun () ->
        check "r5_bad"
          [ ("R5", "r5_bad.ml", 2); ("R5", "r5_bad.ml", 4) ]
          (run ~only:[ L.R5 ] [ fx "r5_bad.ml" ]));
    case "R5 accepts named handlers and rebind-and-reraise" (fun () ->
        check "r5_good" [] (run ~only:[ L.R5 ] [ fx "r5_good.ml" ]));
    case "R5 honours the absorber allowlist" (fun () ->
        let allowed = { cfg with L.r5_allow = [ "r5_bad.ml" ] } in
        let res = L.run ~only:[ L.R5 ] allowed [ fx "r5_bad.ml" ] in
        check "allowlisted" [] (List.map (fun f ->
            (L.rule_name f.L.rule, Filename.basename f.L.file, f.L.line))
            res.L.findings));
    case "R1 reports a scope name with no binding in its file" (fun () ->
        let stale =
          {
            cfg with
            L.r1_scope =
              [ ("r1_good.ml", L.Only [ "scale"; "no_such_binding" ]) ];
          }
        in
        check "stale name"
          [ ("R1", "r1_good.ml", 1) ]
          (run ~cfg:stale ~only:[ L.R1 ] [ fx "r1_good.ml" ]));
  ]

let suppression_tests =
  [
    case "file attribute and line waivers silence real findings" (fun () ->
        check "suppress" []
          (run ~only:[ L.R1; L.R3; L.R5 ] [ fx "suppress.ml" ]));
    case "--only restricts the rule set over the whole corpus" (fun () ->
        check "only R5"
          [ ("R5", "r5_bad.ml", 2); ("R5", "r5_bad.ml", 4) ]
          (run ~only:[ L.R5 ] [ fixtures ]));
  ]

let plumbing_tests =
  [
    case "findings print as file:line:col [rule] message" (fun () ->
        Alcotest.(check string)
          "format" "a.ml:3:7 [R1] m"
          (L.finding_to_string
             { L.rule = L.R1; file = "a.ml"; line = 3; col = 7; msg = "m" }));
    case "rule names round-trip through rule_of_string" (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (L.rule_name r) true
              (L.rule_of_string (L.rule_name r) = Some r))
          L.all_rules;
        Alcotest.(check bool) "junk rejected" true (L.rule_of_string "R12" = None));
    case "R2 scope follows the dune graph from the engine roots" (fun () ->
        (* The test binary runs in _build/default/test; the parent holds
           the copied dune files of every library. *)
        let dirs = (L.project_config ~root:"..").L.r2_dirs in
        List.iter
          (fun d ->
            Alcotest.(check bool) (d ^ " reachable") true (List.mem d dirs))
          [ "lib/util"; "lib/core"; "lib/exact"; "lib/engine"; "lib/serve" ];
        Alcotest.(check bool) "augment is outside the engine cone" false
          (List.mem "lib/augment" dirs));
  ]

(* ----- whole-program rules (R6-R9, parsetree front-end) -------------- *)

module W = Lint_whole

(* Fixture roots: each fixture's entry points stand in for the
   production Segtree hot paths / Server.handle. *)
let wcfg =
  {
    W.r7_roots =
      [ "R7_bad.range_add"; "R7_good.range_add"; "Suppress_whole.hot" ];
    r8_roots = [ "R8_bad.handle"; "R8_good.handle"; "Suppress_whole.handle" ];
  }

(* Each case loads only some fixtures, so it keeps just the roots whose
   unit it loads: a root missing from the call graph is a finding. *)
let wrun ?only ?(config = wcfg) paths =
  let units = List.map Lint_ir.Of_parsetree.unit_name_of_file paths in
  let loaded r = List.mem (List.hd (String.split_on_char '.' r)) units in
  let config =
    {
      W.r7_roots = List.filter loaded config.W.r7_roots;
      r8_roots = List.filter loaded config.W.r8_roots;
    }
  in
  let res = W.run_files ?only ~config paths in
  Alcotest.(check (list string)) "no parse errors" [] res.W.errors;
  List.map
    (fun f -> (L.rule_name f.L.rule, Filename.basename f.L.file, f.L.line))
    res.W.findings

let whole_rule_tests =
  [
    case "R6 flags both edges of an ABBA cycle and a re-acquire" (fun () ->
        check "r6_bad"
          [
            ("R6", "r6_bad.ml", 9);
            ("R6", "r6_bad.ml", 15);
            ("R6", "r6_bad.ml", 21);
          ]
          (wrun ~only:[ L.R6 ] [ fx "r6_bad.ml" ]));
    case "R6 accepts a consistent order, including under Fun.protect"
      (fun () -> check "r6_good" [] (wrun ~only:[ L.R6 ] [ fx "r6_good.ml" ]));
    case "R7 flags a seeded closure and a reachable allocator, not cold code"
      (fun () ->
        check "r7_bad"
          [ ("R7", "r7_bad.ml", 5); ("R7", "r7_bad.ml", 8) ]
          (wrun ~only:[ L.R7 ] [ fx "r7_bad.ml" ]));
    case "R7 certifies an in-place hot path with a cold allocator nearby"
      (fun () -> check "r7_good" [] (wrun ~only:[ L.R7 ] [ fx "r7_good.ml" ]));
    case "R8 flags mutate-before-append and append-before-validate" (fun () ->
        check "r8_bad"
          [ ("R8", "r8_bad.ml", 8); ("R8", "r8_bad.ml", 9) ]
          (wrun ~only:[ L.R8 ] [ fx "r8_bad.ml" ]));
    case "R8 accepts validate-append-mutate through a helper" (fun () ->
        check "r8_good" [] (wrun ~only:[ L.R8 ] [ fx "r8_good.ml" ]));
    case "R9 flags IO under lock: direct, via helper, via locked closure"
      (fun () ->
        check "r9_bad"
          [
            ("R9", "r9_bad.ml", 9);
            ("R9", "r9_bad.ml", 14);
            ("R9", "r9_bad.ml", 23);
          ]
          (wrun ~only:[ L.R9 ] [ fx "r9_bad.ml" ]));
    case "R9 accepts IO outside the section and Condition.wait" (fun () ->
        check "r9_good" [] (wrun ~only:[ L.R9 ] [ fx "r9_good.ml" ]));
    case "R9 flags a settle that writes the wake pipe under the future's lock"
      (fun () ->
        check "r9_wake_bad"
          [ ("R9", "r9_wake_bad.ml", 11); ("R9", "r9_wake_bad.ml", 17) ]
          (wrun ~only:[ L.R9 ] [ fx "r9_wake_bad.ml" ]));
    case "R9 accepts the wake written after Mutex.unlock" (fun () ->
        check "r9_wake_good" [] (wrun ~only:[ L.R9 ] [ fx "r9_wake_good.ml" ]));
    case "R7 and R8 report configured roots missing from the call graph"
      (fun () ->
        let config =
          {
            W.r7_roots = [ "R7_good.range_add"; "R7_good.no_such_entry" ];
            r8_roots = [ "R8_good.handle"; "R8_good.no_such_handler" ];
          }
        in
        check "stale roots"
          [ ("R7", "r7_good.ml", 1); ("R8", "r8_good.ml", 1) ]
          (wrun ~config ~only:[ L.R7; L.R8 ]
             [ fx "r7_good.ml"; fx "r8_good.ml" ]));
    case "line waivers silence R6-R9 findings" (fun () ->
        check "suppress_whole" []
          (wrun
             ~only:[ L.R6; L.R7; L.R8; L.R9 ]
             [ fx "suppress_whole.ml" ]));
  ]

let suite =
  rule_tests @ suppression_tests @ plumbing_tests @ whole_rule_tests
