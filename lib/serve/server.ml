(* The service core.  One design rule throughout: classify, then log,
   then apply.  A request only reaches the WAL after full validation,
   so every logged record replays; it only mutates the session after
   it is logged, so the WAL is never behind acknowledged state. *)

module Session = Dsp_engine.Session
module Runner = Dsp_engine.Runner
module Registry = Dsp_engine.Registry
open Dsp_core

let c_requests = Dsp_util.Instr.counter Dsp_util.Instr.Sites.serve_requests
let c_errors = Dsp_util.Instr.counter Dsp_util.Instr.Sites.serve_errors
let c_shed = Dsp_util.Instr.counter Dsp_util.Instr.Sites.serve_shed
let c_solves = Dsp_util.Instr.counter Dsp_util.Instr.Sites.serve_solves

type config = {
  wal_dir : string option;
  fsync : Wal.fsync_policy;
  queue_limit : int;
  compact_every : int;
  retry_after_ms : int;
}

let default_config =
  {
    wal_dir = None;
    fsync = Wal.Always;
    queue_limit = 64;
    compact_every = 256;
    retry_after_ms = 50;
  }

type session_entry = {
  sname : string;
  sess : Session.t;
  wal : Wal.t option;
  policy_name : string;  (* find_policy vocabulary, for WAL records *)
  k : int;
}

(* The completion wake, a self-pipe: a pool task that has settled its
   future writes one byte, and the socket loop, which selects on the
   read end, wakes and polls its deferred replies.

   Lifetime rule: the server (until [close]) and every dispatched task
   whose hook has not yet run each hold one reference, and the last
   holder closes both ends.  A task may finish long after the loop
   returned and the server was closed; were the pipe already closed,
   its write would go to whatever file took the descriptor number
   next, a WAL for instance. *)
type wake = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  refs : int Atomic.t;
  owned : bool Atomic.t;  (* the server's reference is still held *)
}

let close_quietly fd =
  match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ()

let wake_create () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  { rd; wr; refs = Atomic.make 1; owned = Atomic.make true }

let wake_release w =
  if Atomic.fetch_and_add w.refs (-1) = 1 then begin
    close_quietly w.rd;
    close_quietly w.wr
  end

(* The pool's [on_done] hook: runs on the worker, after the settle and
   outside every lock, and must not raise.  A full pipe already holds
   an unread wake-up, so EAGAIN loses nothing. *)
let wake_signal w =
  let rec write () =
    match Unix.single_write_substring w.wr "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write ()
  in
  write ()

(* Empty the pipe before polling, so a task that settles after the
   poll leaves a byte behind and the next select returns at once. *)
let wake_drain w =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read w.rd buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

type t = {
  cfg : config;
  pool : (Dsp_util.Pool.t * wake) option;
  sessions : (string, session_entry) Hashtbl.t; (* lint: local *)
  mutable n_inflight : int;
}

let create ?pool cfg =
  {
    cfg;
    pool = Option.map (fun p -> (p, wake_create ())) pool;
    sessions = Hashtbl.create 16;
    n_inflight = 0;
  }

type deferred = { poll : unit -> string option; wait : unit -> unit }
type reply = Now of string | Later of deferred

let rec await = function
  | Now line -> line
  | Later d as reply -> (
      match d.poll () with
      | Some line -> line
      | None ->
          d.wait ();
          await reply)

let err ~id kind =
  Dsp_util.Instr.bump c_errors;
  Now (Protocol.error_response ~id kind)

(* ----- session helpers ---------------------------------------------- *)

let wal_path t name =
  Option.map (fun dir -> Filename.concat dir (name ^ ".wal")) t.cfg.wal_dir

let find_session t name = Hashtbl.find_opt t.sessions name

let snapshot_record entry =
  let st = Session.stats entry.sess in
  let live =
    List.map
      (fun (id, (it : Item.t), start) -> (id, it.w, it.h, start))
      (Session.live_items entry.sess)
  in
  Wal.Snapshot
    {
      width = Session.width entry.sess;
      policy = entry.policy_name;
      k = entry.k;
      n_arrived = st.Session.arrivals;
      n_migrations = st.Session.migrations;
      live;
    }

(* Append one record to the session's WAL, converting IO failures —
   including injected short writes — into the typed wal error.  The
   session has not been touched yet, so a failed append leaves state
   and log consistent (the record is absent from both; a torn tail is
   cut by the next recovery). *)
let wal_append entry record =
  match entry.wal with
  | None -> Ok ()
  | Some wal -> (
      match Wal.append wal record with
      | () -> Ok ()
      | exception Dsp_util.Fault.Injected m -> Error (Protocol.Wal_failure m)
      | exception Unix.Unix_error (e, fn, _) ->
          Error
            (Protocol.Wal_failure
               (Printf.sprintf "%s: %s" fn (Unix.error_message e))))

let maybe_compact t entry =
  match entry.wal with
  | Some wal
    when t.cfg.compact_every > 0 && Wal.appended wal >= t.cfg.compact_every
    -> (
      match Wal.compact wal (snapshot_record entry) with
      | () -> ()
      | exception Unix.Unix_error _ ->
          (* compaction is an optimization; the pre-compaction log is
             still intact and replayable, so keep serving *)
          ())
  | _ -> ()

(* ----- ops ----------------------------------------------------------- *)

let json_stats entry =
  let st = Session.stats entry.sess in
  Json.Obj
    [
      ("arrivals", Json.Int st.Session.arrivals);
      ("departures", Json.Int st.Session.departures);
      ("live", Json.Int st.Session.live);
      ("migrations", Json.Int st.Session.migrations);
      ("peak", Json.Int st.Session.peak_now);
    ]

let do_open t ~id ~session ~width ~policy ~k =
  if Hashtbl.mem t.sessions session then
    err ~id (Protocol.Session_exists session)
  else
    let policy_name = Option.value ~default:"best-fit" policy in
    let k = Option.value ~default:1 k in
    if k < 0 then err ~id (Protocol.Bad_request "field \"k\" must be >= 0")
    else
      match Session.find_policy ~k policy_name with
      | None ->
          err ~id
            (Protocol.Bad_request
               (Printf.sprintf
                  "unknown policy %S (first-fit|best-fit|migrate)" policy_name))
      | Some p -> (
          let open_wal =
            match wal_path t session with
            | None -> Ok None
            | Some path -> (
                match Wal.create ~fsync:t.cfg.fsync path with
                | wal -> Ok (Some wal)
                | exception Unix.Unix_error (e, fn, _) ->
                    Error
                      (Protocol.Wal_failure
                         (Printf.sprintf "%s: %s" fn (Unix.error_message e))))
          in
          match open_wal with
          | Error kind -> err ~id kind
          | Ok wal -> (
              let entry =
                {
                  sname = session;
                  sess = Session.create ~policy:p ~width ();
                  wal;
                  policy_name;
                  k;
                }
              in
              match
                wal_append entry (Wal.Header { width; policy = policy_name; k })
              with
              | Error kind ->
                  Option.iter Wal.close wal;
                  err ~id kind
              | Ok () ->
                  Hashtbl.replace t.sessions session entry;
                  Now
                    (Protocol.ok_response ~id
                       (Json.Obj
                          [
                            ("session", Json.String session);
                            ("width", Json.Int width);
                            ("policy", Json.String policy_name);
                            ( "durable",
                              Json.Bool (Option.is_some entry.wal) );
                          ]))))

let with_session t ~id name f =
  match find_session t name with
  | None -> err ~id (Protocol.Unknown_session name)
  | Some entry -> f entry

let do_arrive t ~id ~session ~w ~h =
  with_session t ~id session (fun entry ->
      let width = Session.width entry.sess in
      if w > width then
        err ~id
          (Protocol.Bad_instance
             (Printf.sprintf "demand %d exceeds the strip width %d" w width))
      else
        match
          wal_append entry (Wal.Event (Dsp_instance.Trace.Arrive { w; h }))
        with
        | Error kind -> err ~id kind
        | Ok () ->
            let arrival = Session.arrive entry.sess ~w ~h in
            let start =
              Option.value ~default:0 (Session.start_of entry.sess arrival)
            in
            maybe_compact t entry;
            Now
              (Protocol.ok_response ~id
                 (Json.Obj
                    [
                      ("arrival", Json.Int arrival);
                      ("start", Json.Int start);
                      ("peak", Json.Int (Session.peak entry.sess));
                    ])))

let do_depart t ~id ~session ~arrival =
  with_session t ~id session (fun entry ->
      (* check staleness before logging: a stale departure must not
         reach the WAL, where it would poison replay *)
      match Session.start_of entry.sess arrival with
      | None ->
          err ~id
            (Protocol.Stale_departure
               (* stale branch: depart_result only builds the error
                  string here — start_of already returned None, so no
                  mutation happens and nothing needs logging *)
               (* lint: ok R8 — error-path probe, not a mutation *)
               (match Session.depart_result entry.sess arrival with
               | Error e -> Session.depart_error_to_string e
               | Ok _ -> assert false))
      | Some _ -> (
          match
            wal_append entry (Wal.Event (Dsp_instance.Trace.Depart { arrival }))
          with
          | Error kind -> err ~id kind
          | Ok () -> (
              match Session.depart_result entry.sess arrival with
              | Error e ->
                  (* unreachable: liveness was checked above *)
                  err ~id
                    (Protocol.Internal (Session.depart_error_to_string e))
              | Ok freed ->
                  maybe_compact t entry;
                  Now
                    (Protocol.ok_response ~id
                       (Json.Obj
                          [
                            ("freed_start", Json.Int freed);
                            ("peak", Json.Int (Session.peak entry.sess));
                          ])))))

let do_snapshot t ~id ~session =
  with_session t ~id session (fun entry ->
      let live =
        List.map
          (fun (iid, (it : Item.t), start) ->
            Json.Obj
              [
                ("id", Json.Int iid);
                ("w", Json.Int it.w);
                ("h", Json.Int it.h);
                ("start", Json.Int start);
              ])
          (Session.live_items entry.sess)
      in
      Now
        (Protocol.ok_response ~id
           (Json.Obj
              [
                ("width", Json.Int (Session.width entry.sess));
                ("peak", Json.Int (Session.peak entry.sess));
                ("live", Json.List live);
              ])))

let do_close t ~id ~session =
  with_session t ~id session (fun entry ->
      let stats = json_stats entry in
      Option.iter
        (fun wal ->
          let p = Wal.path wal in
          Wal.close wal;
          (* an explicit close ends the durable lifetime too *)
          match Sys.remove p with () -> () | exception Sys_error _ -> ())
        entry.wal;
      (* explicit close ends the durable lifetime: the WAL file was
         just deleted above, so there is deliberately nothing left to
         append to before dropping the in-memory entry *)
      (* lint: ok R8 — close tears down durability by design *)
      Hashtbl.remove t.sessions session;
      Now
        (Protocol.ok_response ~id
           (Json.Obj [ ("closed", Json.Bool true); ("stats", stats) ])))

(* ----- solves -------------------------------------------------------- *)

let failure_json (f : Runner.failure) =
  Json.Obj
    [
      ("solver", Json.String f.Runner.solver);
      ("kind", Json.String (Runner.kind_name f.Runner.kind));
      ("seconds", Json.Float f.Runner.seconds);
    ]

let resolution_json (r : Runner.resolution) =
  let rep = r.Runner.report in
  Json.Obj
    [
      ("solver", Json.String r.Runner.winner);
      ("peak", Json.Int rep.Dsp_engine.Report.peak);
      ("lower_bound", Json.Int rep.Dsp_engine.Report.lower_bound);
      ("ratio", Json.Float rep.Dsp_engine.Report.ratio);
      ("seconds", Json.Float rep.Dsp_engine.Report.seconds);
      ("safety_net", Json.Bool r.Runner.safety_net);
      ("failures", Json.List (List.map failure_json r.Runner.failures));
    ]

(* Run [task] on the pool behind admission control, answering
   [overloaded] once the in-flight cap is reached.  The task's hook
   wakes the transport loop, which runs the poll thunk; the decrement
   runs there too — the whole server is single-loop, so plain mutation
   is safe. *)
let dispatch t ~id task render =
  Dsp_util.Instr.bump c_solves;
  match t.pool with
  | None -> Now (render (task ()))
  | Some (pool, wake) ->
      if t.n_inflight >= t.cfg.queue_limit then begin
        Dsp_util.Instr.bump c_shed;
        err ~id (Protocol.Overloaded t.cfg.retry_after_ms)
      end
      else begin
        t.n_inflight <- t.n_inflight + 1;
        (* the task's reference, taken before it can possibly run *)
        Atomic.incr wake.refs;
        let on_done () =
          wake_signal wake;
          wake_release wake
        in
        let fut = Dsp_util.Pool.submit ~on_done pool task in
        Later
          {
            poll =
              (fun () ->
                match Dsp_util.Pool.poll fut with
                | None -> None
                | Some outcome ->
                    t.n_inflight <- t.n_inflight - 1;
                    Some
                      (match outcome with
                      | Ok v -> render v
                      | Error e ->
                          Dsp_util.Instr.bump c_errors;
                          Protocol.error_response ~id
                            (Protocol.Internal (Printexc.to_string e))));
            wait = (fun () -> ignore (Dsp_util.Pool.await_result fut));
          }
      end

let do_solve t ~id ~width ~items ~timeout_ms ~chain =
  let parsed_chain =
    match chain with
    | None -> Ok None
    | Some spec -> (
        match Runner.parse_chain spec with
        | Ok c -> Ok (Some c)
        | Error m -> Error m)
  in
  match parsed_chain with
  | Error m -> err ~id (Protocol.Bad_request m)
  | Ok chain ->
      let inst = Instance.of_dims ~width items in
      dispatch t ~id
        (fun () -> Runner.solve ?timeout_ms ?chain inst)
        (fun r -> Protocol.ok_response ~id (resolution_json r))

let do_compare t ~id ~width ~items ~timeout_ms ~solvers =
  let chosen =
    match solvers with
    | None -> Ok (Registry.heuristics ())
    | Some names ->
        List.fold_left
          (fun acc name ->
            match acc with
            | Error _ -> acc
            | Ok sofar -> (
                match Registry.find name with
                | Some s -> Ok (s :: sofar)
                | None ->
                    Error
                      (Printf.sprintf "unknown solver %S (known: %s)" name
                         (String.concat ", " (Registry.names ())))))
          (Ok []) names
        |> Result.map List.rev
  in
  match chosen with
  | Error m -> err ~id (Protocol.Bad_request m)
  | Ok solvers ->
      let inst = Instance.of_dims ~width items in
      dispatch t ~id
        (fun () ->
          List.map
            (fun s -> (s.Dsp_engine.Solver.name, Runner.run_one ?timeout_ms s inst))
            solvers)
        (fun results ->
          let entries =
            List.map
              (fun (name, outcome) ->
                match outcome with
                | Ok rep ->
                    Json.Obj
                      [
                        ("solver", Json.String name);
                        ("ok", Json.Bool true);
                        ("peak", Json.Int rep.Dsp_engine.Report.peak);
                        ("ratio", Json.Float rep.Dsp_engine.Report.ratio);
                        ("seconds", Json.Float rep.Dsp_engine.Report.seconds);
                      ]
                | Error (f : Runner.failure) ->
                    Json.Obj
                      [
                        ("solver", Json.String name);
                        ("ok", Json.Bool false);
                        ("kind", Json.String (Runner.kind_name f.Runner.kind));
                        ("seconds", Json.Float f.Runner.seconds);
                      ])
              results
          in
          Protocol.ok_response ~id (Json.Obj [ ("results", Json.List entries) ]))

let do_stats t ~id =
  let prefixes = [ "serve."; "wal."; "session." ] in
  let counters =
    List.filter
      (fun (name, _) ->
        List.exists
          (fun p ->
            String.length name >= String.length p
            && String.sub name 0 (String.length p) = p)
          prefixes)
      (Dsp_util.Instr.snapshot ())
  in
  Now
    (Protocol.ok_response ~id
       (Json.Obj
          [
            ("sessions", Json.Int (Hashtbl.length t.sessions));
            ("inflight", Json.Int t.n_inflight);
            ( "counters",
              Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters) );
          ]))

(* ----- the entry point ----------------------------------------------- *)

let handle t line =
  Dsp_util.Instr.bump c_requests;
  match Protocol.parse_request line with
  | Error (id, kind) -> err ~id kind
  | Ok (id, req) -> (
      match req with
      | Protocol.Ping ->
          Now (Protocol.ok_response ~id (Json.Obj [ ("pong", Json.Bool true) ]))
      | Protocol.Stats -> do_stats t ~id
      | Protocol.Open { session; width; policy; k } ->
          do_open t ~id ~session ~width ~policy ~k
      | Protocol.Arrive { session; w; h } -> do_arrive t ~id ~session ~w ~h
      | Protocol.Depart { session; arrival } ->
          do_depart t ~id ~session ~arrival
      | Protocol.Peak { session } ->
          with_session t ~id session (fun entry ->
              Now (Protocol.ok_response ~id (json_stats entry)))
      | Protocol.Snapshot { session } -> do_snapshot t ~id ~session
      | Protocol.Close { session } -> do_close t ~id ~session
      | Protocol.Solve { width; items; timeout_ms; chain } ->
          do_solve t ~id ~width ~items ~timeout_ms ~chain
      | Protocol.Compare { width; items; timeout_ms; solvers } ->
          do_compare t ~id ~width ~items ~timeout_ms ~solvers)

(* ----- recovery ------------------------------------------------------ *)

(* Rebuild one session from its recovered records: the last state
   anchor (Header for a young log, Snapshot after a compaction) and
   the event tail after it.  Replay applies events through the same
   deterministic policy that placed them originally, so the rebuilt
   placements are identical to the pre-crash ones. *)
let rebuild records =
  let anchor ~policy ~k ~make =
    match Session.find_policy ~k policy with
    | None -> Error (Printf.sprintf "unknown policy %S in WAL" policy)
    | Some p -> Ok (make p)
  in
  List.fold_left
    (fun acc record ->
      match acc with
      | Error _ -> acc
      | Ok st -> (
          match record with
          | Wal.Header { width; policy; k } ->
              anchor ~policy ~k ~make:(fun p ->
                  (Some (Session.create ~policy:p ~width ()), policy, k))
          | Wal.Snapshot { width; policy; k; n_arrived; n_migrations; live }
            ->
              anchor ~policy ~k ~make:(fun p ->
                  ( Some
                      (Session.restore ~policy:p ~width ~n_arrived
                         ~n_migrations ~live ()),
                    policy,
                    k ))
          | Wal.Event ev -> (
              match st with
              | None, _, _ -> Error "event before any header record"
              | Some sess, _, _ ->
                  Session.apply sess ev;
                  Ok st)))
    (Ok (None, "best-fit", 1))
    records

let recover_one t name path =
  match Wal.recover ~fsync:t.cfg.fsync path with
  | Error m -> Error m
  | Ok (wal, { Wal.records; truncated_bytes = _ }) -> (
      match rebuild records with
      | Error m ->
          Wal.close wal;
          Error m
      | exception Invalid_argument m ->
          Wal.close wal;
          Error m
      | Ok (None, _, _) ->
          Wal.close wal;
          Error "empty WAL (no header record)"
      | Ok (Some sess, policy_name, k) ->
          Hashtbl.replace t.sessions name
            { sname = name; sess; wal = Some wal; policy_name; k };
          Ok (List.length records))

let recover_sessions t =
  match t.cfg.wal_dir with
  | None -> []
  | Some dir ->
      let files =
        match Sys.readdir dir with
        | files -> Array.to_list files
        | exception Sys_error _ -> []
      in
      List.filter_map
        (fun file ->
          if Filename.check_suffix file ".wal" then
            let name = Filename.chop_suffix file ".wal" in
            Some (name, recover_one t name (Filename.concat dir file))
          else None)
        (List.sort compare files)

let close t =
  Hashtbl.iter
    (fun _ entry -> Option.iter Wal.close entry.wal)
    t.sessions;
  Hashtbl.reset t.sessions;
  Option.iter
    (fun (_, w) -> if Atomic.exchange w.owned false then wake_release w)
    t.pool

(* ----- transports ---------------------------------------------------- *)

let run_pipe t ic oc =
  let rec loop () =
    match input_line ic with
    | line ->
        if String.trim line <> "" then begin
          output_string oc (await (handle t line));
          output_char oc '\n';
          flush oc
        end;
        loop ()
    | exception End_of_file -> ()
  in
  loop ()

(* One client connection: an input buffer accumulating a partial line,
   and the FIFO of deferred replies not yet completed. *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable deferred : deferred list; (* newest last *)
  mutable open_ : bool;
}

let max_line_bytes = 1 lsl 20

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let shed_line t line =
  Dsp_util.Instr.bump c_shed;
  Dsp_util.Instr.bump c_errors;
  let id =
    match Protocol.parse_request line with Ok (id, _) | Error (id, _) -> id
  in
  Protocol.error_response ~id (Protocol.Overloaded t.cfg.retry_after_ms)

let handle_conn_line t conn ~max_pending line =
  if String.trim line = "" then ()
  else if List.length conn.deferred >= max_pending then
    send_line conn.fd (shed_line t line)
  else
    match handle t line with
    | Now reply -> send_line conn.fd reply
    | Later d -> conn.deferred <- conn.deferred @ [ d ]

let split_buffer conn =
  let data = Buffer.contents conn.inbuf in
  Buffer.clear conn.inbuf;
  let rec cut acc start =
    match String.index_from_opt data start '\n' with
    | Some nl ->
        cut (String.sub data start (nl - start) :: acc) (nl + 1)
    | None ->
        Buffer.add_string conn.inbuf
          (String.sub data start (String.length data - start));
        List.rev acc
  in
  cut [] 0

let service_read t conn ~max_pending =
  let chunk = Bytes.create 4096 in
  let n = Unix.read conn.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then conn.open_ <- false
  else begin
    Buffer.add_subbytes conn.inbuf chunk 0 n;
    List.iter (handle_conn_line t conn ~max_pending) (split_buffer conn);
    if Buffer.length conn.inbuf > max_line_bytes then begin
      (* a line that long is not a protocol request; cut the peer off
         rather than buffer without bound *)
      send_line conn.fd
        (Protocol.error_response ~id:None
           (Protocol.Bad_request "request line too long"));
      conn.open_ <- false
    end
  end

let poll_deferred conn =
  conn.deferred <-
    List.filter
      (fun d ->
        match d.poll () with
        | None -> true
        | Some reply ->
            send_line conn.fd reply;
            false)
      conn.deferred

let run_socket t ~path ?(max_pending_per_conn = 64) ?(stop = Atomic.make false)
    () =
  let listener =
    try
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Ok fd
    with
    | Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    | Sys_error m -> Error m
  in
  match listener with
  | Error _ as e -> e
  | Ok listen_fd ->
      let conns = ref [] in
      (* deferred replies of dropped connections: still polled (their
         pool tasks run to completion and must release their
         admission slot), answers discarded *)
      let orphans = ref [] in
      let drop conn =
        conn.open_ <- false;
        orphans := conn.deferred @ !orphans;
        conn.deferred <- [];
        close_quietly conn.fd
      in
      (* the wake pipe exists only with a pool: without one every
         reply is immediate and the loop selects on sockets alone *)
      let wake = Option.map snd t.pool in
      let wake_fds = Option.to_list (Option.map (fun w -> w.rd) wake) in
      Fun.protect
        ~finally:(fun () ->
          List.iter drop !conns;
          close_quietly listen_fd;
          match Unix.unlink path with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        (fun () ->
          while not (Atomic.get stop) do
            orphans :=
              List.filter (fun d -> Option.is_none (d.poll ())) !orphans;
            let fds =
              (listen_fd :: wake_fds) @ List.map (fun c -> c.fd) !conns
            in
            (* finished solves arrive through the wake pipe, so the
               timeout only bounds how late [stop] is noticed *)
            let readable, _, _ =
              match Unix.select fds [] [] 0.2 with
              | r -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            Option.iter
              (fun w -> if List.mem w.rd readable then wake_drain w)
              wake;
            if List.mem listen_fd readable then begin
              match Unix.accept listen_fd with
              | fd, _ ->
                  conns :=
                    {
                      fd;
                      inbuf = Buffer.create 256;
                      deferred = [];
                      open_ = true;
                    }
                    :: !conns
              | exception Unix.Unix_error _ -> ()
            end;
            List.iter
              (fun conn ->
                (* the one broad absorber in the tree: a peer that
                   vanishes mid-request (reset, EPIPE on reply, …)
                   must cost exactly its own connection, never the
                   server — so everything this connection throws is
                   absorbed and the connection dropped *)
                try
                  if List.mem conn.fd readable then
                    service_read t conn ~max_pending:max_pending_per_conn;
                  poll_deferred conn;
                  if not conn.open_ then drop conn
                with _ -> drop conn (* lint: ok R5 *))
              !conns;
            conns := List.filter (fun c -> c.open_) !conns
          done;
          Ok ())
