(* The traced run: the workload's stream replayed in-process, with
   spans recorded from outside around calls into each module's public
   functions.

   1. Through [Server.handle] on a fresh server with the workload's
      WAL settings but no pool, so a solve runs inline and its whole
      cost sits inside the handle span.
   2. Through the calls the handler makes, on shadow state with the
      same fsync policy and compaction period: [Protocol.parse_request],
      [Wal.append] / [Wal.sync] / [Wal.compact], [Session.arrive] /
      [depart_result] / [stats], [Runner.run_one] per chain stage on a
      bench-owned 1-worker [Pool], and [Protocol.ok_response].
   3. Through the sessions alone, with a [Profile.best_start] probe
      before each arrival.  The probe pays the same segment-tree
      flatten and scan the policy's own best_start would, so it stands
      for the kernel's share of that arrival: it becomes a child of
      pass 2's arrive span.  It has a pass of its own because two
      extra O(W) scans per arrival, run inside pass 2, slowed every
      call there by a factor of two on churn-wide.

   A span holds name, start, end, parent and request id.  Spans stay
   in memory and are written out when the replay is done.  Self time
   is a span's duration minus its children's.  Besides the kernel
   probe, one more child is a stand-in rather than a nested call: a
   solver span is the time [Runner.run_one]'s report gives the solver
   within its stage. *)

module Server = Dsp_serve.Server
module Protocol = Dsp_serve.Protocol
module Json = Dsp_serve.Json
module Wal = Dsp_serve.Wal
module Session = Dsp_engine.Session
module Runner = Dsp_engine.Runner
module Report = Dsp_engine.Report
module Solver = Dsp_engine.Solver
module Registry = Dsp_engine.Registry
module Profile = Dsp_core.Profile
module Instance = Dsp_core.Instance
module Item = Dsp_core.Item
module Trace = Dsp_instance.Trace
module Pool = Dsp_util.Pool

let now_ns = Daemon.now_ns

(* ----- the span store ------------------------------------------------- *)

type store = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable rid : int array;
}

let create_store () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap 0;
  }

let grow st =
  let cap = 2 * Array.length st.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 st.n;
    b
  in
  st.name <- ext st.name "";
  st.start <- ext st.start 0;
  st.stop <- ext st.stop 0;
  st.parent <- ext st.parent (-1);
  st.rid <- ext st.rid 0

(* Open a span now; [close] stamps its end. *)
let enter st name ~parent ~rid =
  if st.n = Array.length st.start then grow st;
  let i = st.n in
  st.n <- i + 1;
  st.name.(i) <- name;
  st.parent.(i) <- parent;
  st.rid.(i) <- rid;
  st.start.(i) <- now_ns ();
  i

let close st i = st.stop.(i) <- now_ns ()

let span st name ~parent ~rid f =
  let i = enter st name ~parent ~rid in
  let r = f () in
  close st i;
  r

(* A span whose interval was measured elsewhere. *)
let add st name ~parent ~rid ~start ~stop =
  let i = enter st name ~parent ~rid in
  st.start.(i) <- start;
  st.stop.(i) <- stop;
  i

let duration st i = st.stop.(i) - st.start.(i)

let self_times st =
  let self = Array.init st.n (duration st) in
  for i = 0 to st.n - 1 do
    let p = st.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration st i
  done;
  self

let write_tsv st path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "rid\tname\tstart_ns\tend_ns\tparent\n";
      for i = 0 to st.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" st.rid.(i) st.name.(i)
          st.start.(i) st.stop.(i) st.parent.(i)
      done)

(* Cost of recording one span, from a burst of empty ones. *)
let span_cost_ns () =
  let st = create_store () in
  let m = 200_000 in
  let t0 = now_ns () in
  for r = 1 to m do
    span st "calibrate" ~parent:(-1) ~rid:r ignore
  done;
  float_of_int (now_ns () - t0) /. float_of_int m

(* ----- replay 1: Server.handle --------------------------------------- *)

type handle_run = {
  handle_ns : int array;  (** per request id *)
  minor_words : float;
  major_collections : int;
}

let fail fmt = Printf.ksprintf failwith fmt

let replay_handle (w : Workload.t) ~wal_dir ~lines st =
  let server = Server.create (Daemon.config w wal_dir) in
  let now_reply line =
    match Server.handle server line with
    | Server.Now reply -> reply
    | Server.Later _ -> fail "replay: %s was deferred without a pool" line
  in
  List.iter (fun l -> ignore (now_reply l)) w.Workload.opens;
  let n = Array.length lines in
  let handle_ns = Array.make n 0 in
  let g0 = Gc.quick_stat () in
  for rid = 0 to n - 1 do
    let i = enter st "server.handle" ~parent:(-1) ~rid in
    let reply = Server.handle server lines.(rid) in
    close st i;
    handle_ns.(rid) <- duration st i;
    match reply with
    | Server.Now _ -> ()
    | Server.Later _ -> fail "replay: request %d was deferred" rid
  done;
  let g1 = Gc.quick_stat () in
  Server.close server;
  {
    handle_ns;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ----- replay 2: the handler's calls on shadow state ------------------ *)

type shadow = {
  sess : Session.t;
  wal : Wal.t option;
  policy_name : string;
  k : int;
  mutable unsynced : int;  (** appends since the last fsync *)
}

type shadow_run = {
  arrive_span : int array;  (** per request id: its session.arrive span, or -1 *)
  wal_bytes : int;  (** frame bytes appended and compacted *)
  wal_appends : int;
  shadow_ns : int;  (** wall time of the whole replay *)
}

let frame_bytes record = 8 + String.length (Wal.encode_record record)

(* The record the server compacts to, built the way the server builds
   it. *)
let snapshot_record sh =
  let st = Session.stats sh.sess in
  Wal.Snapshot
    {
      width = Session.width sh.sess;
      policy = sh.policy_name;
      k = sh.k;
      n_arrived = st.Session.arrivals;
      n_migrations = st.Session.migrations;
      live =
        List.map
          (fun (id, (it : Item.t), start) -> (id, it.Item.w, it.Item.h, start))
          (Session.live_items sh.sess);
    }

let json_stats sess =
  let st = Session.stats sess in
  Json.Obj
    [
      ("arrivals", Json.Int st.Session.arrivals);
      ("departures", Json.Int st.Session.departures);
      ("live", Json.Int st.Session.live);
      ("migrations", Json.Int st.Session.migrations);
      ("peak", Json.Int st.Session.peak_now);
    ]

let resolution_json (r : Runner.resolution) =
  let rep = r.Runner.report in
  let failure (f : Runner.failure) =
    Json.Obj
      [
        ("solver", Json.String f.Runner.solver);
        ("kind", Json.String (Runner.kind_name f.Runner.kind));
        ("seconds", Json.Float f.Runner.seconds);
      ]
  in
  Json.Obj
    [
      ("solver", Json.String r.Runner.winner);
      ("peak", Json.Int rep.Report.peak);
      ("lower_bound", Json.Int rep.Report.lower_bound);
      ("ratio", Json.Float rep.Report.ratio);
      ("seconds", Json.Float rep.Report.seconds);
      ("safety_net", Json.Bool r.Runner.safety_net);
      ("failures", Json.List (List.map failure r.Runner.failures));
    ]

let solver_span (s : Solver.t) = "solver." ^ s.Solver.name

(* One chain stage on the pool: queue wait, the [Runner.run_one] call,
   and within it the solver's own reported time. *)
let run_stage st pool ~parent ~rid ?timeout_ms (s : Solver.t) inst =
  let submitted = now_ns () in
  let fut =
    Pool.submit pool (fun () ->
        let t0 = now_ns () in
        let out = Runner.run_one ?timeout_ms s inst in
        (t0, now_ns (), out))
  in
  let t0, t1, out = Pool.await fut in
  ignore (add st "pool.queue_wait" ~parent ~rid ~start:submitted ~stop:t0);
  let stage = add st "runner.stage" ~parent ~rid ~start:t0 ~stop:t1 in
  let seconds =
    match out with Ok rep -> rep.Report.seconds | Error f -> f.Runner.seconds
  in
  let solver_ns = min (t1 - t0) (int_of_float (seconds *. 1e9)) in
  ignore (add st (solver_span s) ~parent:stage ~rid ~start:t0 ~stop:(t0 + solver_ns));
  out

(* [Runner.solve]'s sequential chain, stage by stage: each stage gets
   its equal share of the deadline that remains, the first validated
   report wins, and bfd-height is the safety net. *)
let shadow_solve st pool ~parent ~rid ?timeout_ms ~chain inst =
  let overall = Dsp_util.Budget.create ?timeout_ms () in
  let rec go failures = function
    | [] ->
        let bfd = Registry.find_exn "bfd-height" in
        (match run_stage st pool ~parent ~rid bfd inst with
        | Ok report ->
            { Runner.report; winner = bfd.Solver.name; failures = List.rev failures;
              safety_net = true }
        | Error _ -> fail "shadow: the safety net failed")
    | (s : Solver.t) :: rest -> (
        let timeout_ms =
          Option.map
            (fun ms -> max 1 (int_of_float (ms /. float_of_int (1 + List.length rest))))
            (Dsp_util.Budget.remaining_ms overall)
        in
        match run_stage st pool ~parent ~rid ?timeout_ms s inst with
        | Ok report ->
            { Runner.report; winner = s.Solver.name; failures = List.rev failures;
              safety_net = false }
        | Error f -> go (f :: failures) rest)
  in
  go [] chain

let replay_shadow (w : Workload.t) ~wal_dir ~lines st =
  let n = Array.length lines in
  let compact_every = Server.default_config.Server.compact_every in
  let shadows = Hashtbl.create 64 in
  let wal_bytes = ref 0 and wal_appends = ref 0 in
  (* The shadow logs are opened fsync=never and synced here, as the
     workload's policy would inside [Wal.append], so the fsync gets its
     own span. *)
  let sync_due sh =
    match w.Workload.wal with
    | Some Wal.Always -> true
    | Some (Wal.Every n) -> sh.unsynced >= n
    | Some Wal.Never | None -> false
  in
  let append sh record ~parent ~rid =
    Option.iter
      (fun wal ->
        span st "wal.append" ~parent ~rid (fun () -> Wal.append wal record);
        sh.unsynced <- sh.unsynced + 1;
        if sync_due sh then begin
          span st "wal.fsync" ~parent ~rid (fun () -> Wal.sync wal);
          sh.unsynced <- 0
        end;
        incr wal_appends;
        wal_bytes := !wal_bytes + frame_bytes record)
      sh.wal
  in
  let maybe_compact sh ~parent ~rid =
    match sh.wal with
    | Some wal when compact_every > 0 && Wal.appended wal >= compact_every ->
        span st "wal.compact" ~parent ~rid (fun () ->
            let record = snapshot_record sh in
            Wal.compact wal record;
            sh.unsynced <- 0;
            wal_bytes := !wal_bytes + frame_bytes record)
    | _ -> ()
  in
  List.iter
    (fun (s : Workload.session) ->
      let policy =
        match Session.find_policy ~k:s.Workload.k s.Workload.policy with
        | Some p -> p
        | None -> fail "shadow: unknown policy %s" s.Workload.policy
      in
      let width = s.Workload.trace.Trace.width in
      let wal =
        Option.map
          (fun dir ->
            let wal =
              Wal.create ~fsync:Wal.Never
                (Filename.concat dir (s.Workload.sname ^ ".wal"))
            in
            Wal.append wal (Wal.Header { width; policy = s.Workload.policy; k = s.Workload.k });
            Wal.sync wal;
            wal)
          wal_dir
      in
      Hashtbl.replace shadows s.Workload.sname
        { sess = Session.create ~policy ~width (); wal; policy_name = s.Workload.policy;
          k = s.Workload.k; unsynced = 0 })
    (Array.to_list w.Workload.sessions);
  let pool = if w.Workload.pool_jobs > 0 then Some (Pool.create ~jobs:1) else None in
  let find name =
    match Hashtbl.find_opt shadows name with
    | Some sh -> sh
    | None -> fail "shadow: unknown session %s" name
  in
  let arrive_span = Array.make n (-1) in
  let t_begin = now_ns () in
  for rid = 0 to n - 1 do
    let root = enter st "request" ~parent:(-1) ~rid in
    let id, req =
      match span st "codec.parse" ~parent:root ~rid (fun () -> Protocol.parse_request lines.(rid)) with
      | Ok x -> x
      | Error _ -> fail "shadow: request %d does not parse" rid
    in
    let result =
      match req with
      | Protocol.Arrive { session; w; h } ->
          let sh = find session in
          append sh (Wal.Event (Trace.Arrive { w; h })) ~parent:root ~rid;
          let arrive = enter st "session.arrive" ~parent:root ~rid in
          let arrival = Session.arrive sh.sess ~w ~h in
          close st arrive;
          arrive_span.(rid) <- arrive;
          maybe_compact sh ~parent:root ~rid;
          Json.Obj
            [
              ("arrival", Json.Int arrival);
              ("start", Json.Int (Option.value ~default:0 (Session.start_of sh.sess arrival)));
              ("peak", Json.Int (Session.peak sh.sess));
            ]
      | Protocol.Depart { session; arrival } ->
          let sh = find session in
          if Session.start_of sh.sess arrival = None then
            fail "shadow: stale departure in request %d" rid;
          append sh (Wal.Event (Trace.Depart { arrival })) ~parent:root ~rid;
          let freed =
            match
              span st "session.depart" ~parent:root ~rid (fun () ->
                  Session.depart_result sh.sess arrival)
            with
            | Ok s -> s
            | Error _ -> fail "shadow: departure %d refused" rid
          in
          maybe_compact sh ~parent:root ~rid;
          Json.Obj [ ("freed_start", Json.Int freed); ("peak", Json.Int (Session.peak sh.sess)) ]
      | Protocol.Peak { session } ->
          let sh = find session in
          span st "session.peak" ~parent:root ~rid (fun () -> json_stats sh.sess)
      | Protocol.Stats ->
          let served (name, _) =
            List.exists
              (fun p -> String.starts_with ~prefix:p name)
              [ "serve."; "wal."; "session." ]
          in
          Json.Obj
            [
              ("sessions", Json.Int 0);
              ("inflight", Json.Int 0);
              ( "counters",
                Json.Obj
                  (List.map
                     (fun (n, v) -> (n, Json.Int v))
                     (List.filter served (Dsp_util.Instr.snapshot ()))) );
            ]
      | Protocol.Solve { width; items; timeout_ms; chain } ->
          let pool = match pool with Some p -> p | None -> fail "shadow: solve without a pool" in
          let chain =
            match chain with
            | None -> Runner.default_chain ()
            | Some spec -> (
                match Runner.parse_chain spec with
                | Ok c -> c
                | Error m -> fail "shadow: %s" m)
          in
          let inst = Instance.of_dims ~width items in
          resolution_json (shadow_solve st pool ~parent:root ~rid ?timeout_ms ~chain inst)
      | _ -> fail "shadow: request %d is not part of any workload" rid
    in
    ignore (span st "codec.encode" ~parent:root ~rid (fun () -> Protocol.ok_response ~id result));
    close st root
  done;
  let shadow_ns = now_ns () - t_begin in
  Option.iter Pool.shutdown pool;
  Hashtbl.iter (fun _ sh -> Option.iter Wal.close sh.wal) shadows;
  { arrive_span; wal_bytes = !wal_bytes; wal_appends = !wal_appends; shadow_ns }

(* ----- replay 3: the kernel's share of each arrival -------------------- *)

let probe_kernel (w : Workload.t) ~n ~arrive_span st =
  let sessions =
    Array.map
      (fun (s : Workload.session) ->
        let policy = Option.get (Session.find_policy ~k:s.Workload.k s.Workload.policy) in
        Session.create ~policy ~width:s.Workload.trace.Trace.width ())
      w.Workload.sessions
  in
  if sessions <> [||] then
    for rid = 0 to n - 1 do
      match Workload.event w rid with
      | None -> ()
      | Some (t, (Trace.Arrive { w = len; _ } as ev)) ->
          let sess = sessions.(t) in
          ignore
            (span st "kernel.best_start" ~parent:arrive_span.(rid) ~rid (fun () ->
                 Profile.best_start (Session.profile sess) ~len));
          Session.apply sess ev
      | Some (t, ev) -> Session.apply sessions.(t) ev
    done
