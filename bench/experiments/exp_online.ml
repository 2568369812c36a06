(* Online DSP: replay generated traces through incremental sessions
   and measure the empirical competitive ratio against offline
   registry solvers, per-event latency percentiles, and GC pressure.

   Trace families: a smart-grid day with churn (arrivals and
   departures), the gap-family lower-bound instance in a shuffled
   arrival order, and a synthetic churn stream.  Policies: incremental
   first-fit, incremental best-fit, and bounded migration with
   k in {0, 1, 3} repair moves per arrival — migrate-0 doubles as the
   no-migration control the k-sweep is read against.

   Ratios compare the session's final peak with each offline solver's
   peak on the set of items still live at the end of the trace (for
   arrivals-only families that is the whole instance).  [max_peak]
   additionally tracks the worst peak the session ever held, which is
   the online objective proper. *)

module Rng = Dsp_util.Rng
module Trace = Dsp_instance.Trace
module Session = Dsp_engine.Session
module Json = Dsp_serve.Json

let offline_solvers = [ "bfd-height"; "approx54" ]

let policies () =
  [
    Session.first_fit;
    Session.best_fit;
    Session.bounded_migration ~k:0;
    Session.bounded_migration ~k:1;
    Session.bounded_migration ~k:3;
  ]

let us s = 1e6 *. s

(* Replay [trace] under [policy], timing every event.  Returns the
   final session, the worst peak ever held, and the per-event
   latencies of the (last) replay. *)
let replay_timed policy trace =
  let events = Array.of_list trace.Trace.events in
  let lats = Array.make (max 1 (Array.length events)) 0. in
  let run () =
    let s = Session.create ~policy ~width:trace.Trace.width () in
    let maxpk = ref 0 in
    Array.iteri
      (fun i ev ->
        let (), dt = Dsp_util.Xutil.timeit (fun () -> Session.apply s ev) in
        lats.(i) <- dt;
        let pk = Session.peak s in
        if pk > !maxpk then maxpk := pk)
      events;
    (s, !maxpk)
  in
  let (s, maxpk), seconds, gc = Common.time_reps run in
  Array.sort compare lats;
  (s, maxpk, lats, seconds, gc)

let run_policy ~experiment ~family ~offline trace policy =
  let s, maxpk, lats, seconds, gc = replay_timed policy trace in
  let st = Session.stats s in
  (* [snapshot] validates the packing of the live items; an invalid
     final state raises and crashes the experiment, which is what the
     smoke stage greps for. *)
  let _ = Session.snapshot s in
  let key k = Printf.sprintf "%s.%s.%s" family policy.Session.pname k in
  Bench_json.record ~experiment (key "final_peak") (Json.Int st.Session.peak_now);
  Bench_json.record ~experiment (key "max_peak") (Json.Int maxpk);
  Bench_json.record ~experiment (key "migrations") (Json.Int st.Session.migrations);
  Bench_json.record ~experiment (key "replay_seconds") (Json.Float seconds);
  Common.record_gc ~experiment (key "gc") gc;
  let lat_us q = us (Dsp_util.Xutil.percentile lats q) in
  Bench_json.record_group ~experiment (key "latency")
    [
      ("p50_us", Json.Float (lat_us 0.50));
      ("p95_us", Json.Float (lat_us 0.95));
      ("p99_us", Json.Float (lat_us 0.99));
      ("max_us", Json.Float (lat_us 1.0));
    ];
  let ratios =
    List.map
      (fun (name, off_pk) ->
        let r = float_of_int st.Session.peak_now /. float_of_int off_pk in
        Bench_json.record ~experiment
          (key ("ratio_" ^ name))
          (Json.Float r);
        (name, r))
      offline
  in
  Printf.printf "%-12s %7d %7d %6d %8.3f %8.3f %9.1f\n" policy.Session.pname
    st.Session.peak_now maxpk st.Session.migrations
    (List.assoc (List.nth offline_solvers 0) ratios)
    (List.assoc (List.nth offline_solvers 1) ratios)
    (lat_us 0.95);
  (policy.Session.pname, List.nth ratios 0 |> snd)

let run_family ~experiment (family, trace) =
  Printf.printf "\n-- %s: %d events (%d arrivals, %d departures), width %d\n"
    family
    (List.length trace.Trace.events)
    (Trace.n_arrivals trace) (Trace.n_departures trace) trace.Trace.width;
  let live, _ = Trace.live_instance trace in
  Bench_json.record ~experiment (family ^ ".events")
    (Json.Int (List.length trace.Trace.events));
  Bench_json.record ~experiment (family ^ ".lower_bound")
    (Json.Int (Dsp_core.Instance.lower_bound live));
  let offline =
    List.map (fun name -> (name, Common.height_by_name name live)) offline_solvers
  in
  List.iter
    (fun (name, pk) ->
      Bench_json.record ~experiment
        (Printf.sprintf "%s.offline_%s" family name)
        (Json.Int pk))
    offline;
  Printf.printf "offline:";
  List.iter (fun (name, pk) -> Printf.printf " %s=%d" name pk) offline;
  Printf.printf "\n%-12s %7s %7s %6s %8s %8s %9s\n" "policy" "final" "max"
    "migr" "r/bfd" "r/a54" "p95(us)";
  let ratios =
    List.map (run_policy ~experiment ~family ~offline trace) (policies ())
  in
  (* The k-sweep acceptance signal: how much bounded migration buys
     over the k=0 control, in ratio points against the first offline
     yardstick.  Greedy repair is not monotone in k, so the family
     gain is the best over the non-zero budgets. *)
  let gain_of k =
    List.assoc "migrate-0" ratios
    -. List.assoc (Printf.sprintf "migrate-%d" k) ratios
  in
  let g1 = gain_of 1 and g3 = gain_of 3 in
  Bench_json.record ~experiment (family ^ ".migration_gain_k1")
    (Json.Float g1);
  Bench_json.record ~experiment (family ^ ".migration_gain_k3")
    (Json.Float g3);
  Printf.printf "migration gain vs k=0: k=1 %+.3f, k=3 %+.3f ratio points\n" g1
    g3;
  Float.max g1 g3

let traces ~smoke =
  let seed site = Rng.create (Common.seed_for site) in
  if smoke then
    [
      ("smartgrid", Trace.smartgrid (seed 9101) ~households:8 ~departures:true);
      ("gap", Trace.gap_arrivals (seed 9102) ~scale:1);
      ("churn", Trace.churn (seed 9103) ~width:60 ~n:60);
    ]
  else
    [
      ("smartgrid", Trace.smartgrid (seed 9001) ~households:30 ~departures:true);
      ("gap", Trace.gap_arrivals (seed 9002) ~scale:6);
      ("churn", Trace.churn (seed 9003) ~width:200 ~n:400);
    ]

let run ~experiment ~smoke () =
  Common.section experiment
    (if smoke then "online sessions, CI-sized traces"
     else "online sessions vs offline solvers");
  let gains = List.map (run_family ~experiment) (traces ~smoke) in
  let best = List.fold_left max neg_infinity gains in
  Bench_json.record ~experiment "migration_gain_best" (Json.Float best);
  Bench_json.record ~experiment "migration_improves"
    (Json.Int (if best > 0. then 1 else 0));
  Printf.printf "\nbest migration gain across families: %+.3f\n" best

let experiments =
  [
    ("online", run ~experiment:"online" ~smoke:false);
    ("online-smoke", run ~experiment:"online-smoke" ~smoke:true);
  ]
