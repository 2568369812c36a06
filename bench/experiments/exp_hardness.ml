(* E4: the hardness pipeline — exact cost and approximation behaviour
   on 3-Partition-derived instances (Theorem 1).  The simplified frame
   is a relaxation (see Hardness), so 3P solvability is reported next
   to the exact DSP optimum.  Node counts come from the engine's
   per-solve counter reports ("bb.nodes"). *)

module Registry = Dsp_engine.Registry
module Report = Dsp_engine.Report
module Runner = Dsp_engine.Runner
module Rng = Dsp_util.Rng
module Json = Dsp_serve.Json

let e4 () =
  Common.section "E4" "hardness family: 3-Partition -> PTS(m=4) -> DSP (Theorem 1)";
  Printf.printf "%-18s %5s %5s %9s %11s %6s %6s %6s\n" "instance" "3P?" "OPT"
    "3P-nodes" "bb-nodes" "bfd" "a53" "a54";
  let exact = Registry.find_exn "exact-bb" in
  let report name tp =
    let dsp = Dsp_instance.Hardness.to_dsp tp in
    let solvable, tp_nodes =
      Dsp_exact.Three_partition.count_nodes
        ~numbers:tp.Dsp_instance.Hardness.numbers
        ~bound:tp.Dsp_instance.Hardness.bound ()
    in
    let budget = 50_000_000 in
    let opt_str, bb_nodes =
      match Runner.run_one ~node_budget:budget exact dsp with
      | Ok r -> (string_of_int r.Report.peak, Report.counter r "bb.nodes")
      | Error _ -> ("?", budget)
    in
    Bench_json.record ~experiment:"E4" (name ^ ".bb_nodes") (Json.Int bb_nodes);
    Bench_json.record ~experiment:"E4" (name ^ ".tp_nodes") (Json.Int tp_nodes);
    Printf.printf "%-18s %5s %5s %9d %11d %6d %6d %6d\n" name
      (if solvable then "yes" else "no")
      opt_str tp_nodes bb_nodes
      (Common.height_by_name "bfd-height" dsp)
      (Common.height_by_name "approx53" dsp)
      (Common.height_by_name "approx54" dsp)
  in
  List.iter
    (fun (k, seed) ->
      let rng = Rng.create (Common.seed_for seed) in
      report (Printf.sprintf "yes k=%d" k)
        (Dsp_instance.Hardness.yes_instance rng ~k ~bound:16))
    [ (2, 1); (3, 2); (4, 3); (5, 4) ];
  report "no k=3 (mod-3)" (Dsp_instance.Hardness.no_instance ~k:3);
  report "no k=6 (mod-3)" (Dsp_instance.Hardness.no_instance ~k:6);
  print_endline
    "(forward direction of Theorem 1: every 3P yes-instance packs to peak 4;\n\
    \ recovering 4 exactly is what a pseudo-polynomial ratio < 5/4 would\n\
    \ need on the full Henning et al. gadget -- see DESIGN.md s3)"

let experiments = [ ("E4", e4) ]
