(* counters: the standard instrumentation experiment.  Every
   registered solver runs over a fixed instance set; the per-solve
   Instr counter deltas (already attributed by Runner.run_one) are
   summed per solver and emitted into BENCH.json under the dotted
   "<solver>.<counter>" keys of schema dsp-bench/2.  The set includes
   a tall-and-flat instance (drives approx53/approx54 through the
   configuration LP, so simplex pivots show up) and a tiny instance
   the exact branch-and-bound can finish within budget. *)

module Registry = Dsp_engine.Registry
module Solver = Dsp_engine.Solver
module Report = Dsp_engine.Report
module Runner = Dsp_engine.Runner
module Rng = Dsp_util.Rng

let standard_set () =
  let mk f seed = f (Rng.create (Common.seed_for seed)) in
  [
    ( "uniform-60",
      mk (fun rng ->
          Dsp_instance.Generators.uniform rng ~n:60 ~width:80 ~max_w:20 ~max_h:30)
        11 );
    ( "tall-flat-40",
      mk (fun rng ->
          Dsp_instance.Generators.tall_and_flat rng ~n:40 ~width:40 ~max_h:20)
        12 );
    ( "correlated-30",
      mk (fun rng ->
          Dsp_instance.Generators.correlated rng ~n:30 ~width:40 ~max_w:12
            ~max_h:12)
        13 );
    ( "tiny-8",
      mk (fun rng ->
          Dsp_instance.Generators.uniform rng ~n:8 ~width:10 ~max_w:6 ~max_h:8)
        14 );
    (* A wide strip with many narrow mid-height items: approx54's
       vertical class is non-empty (w <= mu*W, delta*H' < h < H'/2),
       so the Lemma 10 configuration LP — and its simplex pivot
       counter — is exercised. *)
    ( "vertical-lp",
      Dsp_core.Instance.of_dims ~width:128
        (List.init 4 (fun _ -> (3, 40))
        @ List.init 40 (fun _ -> (2, 15))
        @ List.init 10 (fun _ -> (20, 3))) );
  ]

let counters () =
  Common.section "counters"
    "per-solver Instr counters over the standard instance set";
  let set = standard_set () in
  Printf.printf "instances: %s\n"
    (String.concat ", " (List.map fst set));
  List.iter
    (fun (s : Solver.t) ->
      let totals = Hashtbl.create 16 in
      let solved = ref 0 in
      (* GC cost of the whole per-solver sweep, emitted as a
         dsp-bench/4 sub-record next to the op counters: kernel ops
         per solve and words allocated per solve trend together. *)
      let (), _, gc =
        Dsp_util.Xutil.timeit_gc (fun () ->
            List.iter
              (fun (_, inst) ->
                match Runner.run_one ~node_budget:2_000_000 s inst with
                | Ok r ->
                    incr solved;
                    List.iter
                      (fun (name, v) ->
                        let prev =
                          Option.value (Hashtbl.find_opt totals name) ~default:0
                        in
                        Hashtbl.replace totals name (prev + v))
                      r.Report.counters
                | Error _ -> ())
              set)
      in
      Common.record_gc ~experiment:"counters" (s.Solver.name ^ ".gc") gc;
      let merged =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
        |> List.sort compare
      in
      (* Every counter a solve moved must come from the canonical
         Instr.Sites vocabulary: an unregistered name here means a
         counter was minted outside the table (the static side of this
         guard is dsp_lint rule R4). *)
      let unregistered =
        List.filter (fun (k, _) -> not (Dsp_util.Instr.Sites.mem k)) merged
      in
      List.iter
        (fun (k, _) ->
          Printf.printf "  WARNING: counter %S is not in Instr.Sites\n" k)
        unregistered;
      Bench_json.record ~experiment:"counters"
        (s.Solver.name ^ ".unregistered_sites")
        (Bench_json.Int (List.length unregistered));
      Bench_json.record ~experiment:"counters" (s.Solver.name ^ ".solved")
        (Bench_json.Int !solved);
      Bench_json.record_counters ~experiment:"counters" ~solver:s.Solver.name
        merged;
      Printf.printf "\n%s (%d/%d instances within budget):\n" s.Solver.name
        !solved (List.length set);
      if merged = [] then print_endline "  (no counters bumped)"
      else
        List.iter (fun (k, v) -> Printf.printf "  %-32s %12d\n" k v) merged)
    (Registry.all ())

let experiments = [ ("counters", counters) ]
