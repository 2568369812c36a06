(** The DSP service: NDJSON requests in, validated answers out.

    The server core ({!handle}) is transport-independent — it maps one
    request line to one response line (or a deferred one for
    pool-dispatched solves), so the test suite and the bench harness
    drive it in-process while the daemon wraps it in a Unix-domain
    socket loop ({!run_socket}) or a stdin/stdout pipe ({!run_pipe}).

    Robustness contract:
    - {e never crashes on input}: every malformed line becomes a typed
      NDJSON error (see {!Protocol}); the only broad exception
      absorber is the per-connection handler in {!run_socket}, which
      drops that connection and keeps serving the rest.
    - {e durability}: with a [wal_dir], every session mutation is
      validated, then appended to the session's {!Wal} (fsync per
      policy), then applied — so {!recover_sessions} after a crash
      replays to exactly the acknowledged state, and the WAL is
      compacted to a snapshot record every [compact_every] appends.
    - {e per-request SLAs}: solve requests carry optional
      [timeout_ms] / [fallback] lowered onto {!Dsp_engine.Runner}
      chains — a deadline miss degrades to the chain's safety net,
      never to a hung request.
    - {e overload protection}: at most [queue_limit] solves in flight;
      beyond that requests shed with a typed [overloaded] error and a
      [retry_after_ms] hint ({!Client} honors it).  [run_socket]
      additionally caps pending replies per connection and the line
      length it will buffer.

    Sessions are single-domain values, so the server is single-loop by
    design; only stateless solves fan out onto the worker pool. *)

type config = {
  wal_dir : string option;  (** durable sessions when set *)
  fsync : Wal.fsync_policy;
  queue_limit : int;  (** max in-flight pool solves before shedding *)
  compact_every : int;  (** WAL appends between compactions; 0 = never *)
  retry_after_ms : int;  (** backoff hint in [overloaded] errors *)
}

val default_config : config
(** No WAL, fsync [Always], [queue_limit = 64], [compact_every = 256],
    [retry_after_ms = 50]. *)

type t

val create : ?pool:Dsp_util.Pool.t -> config -> t
(** Without a pool, solves run inline on the caller (every reply is
    immediate) — the test-suite mode.  The daemon passes a pool; the
    server then also owns a wake pipe, which each pool solve signals
    when it completes. *)

type deferred
(** A solve running on the pool; its reply line exists once the task
    completes. *)

(** One request's answer: immediate, or deferred for a solve that went
    to the pool.  A deferred reply is ready when its task completes,
    not on a timer; {!run_socket} sends it then. *)
type reply = Now of string | Later of deferred

(* lint: ok R10 the in-process driver's way to a reply; the loops await inside *)
val await : reply -> string
(** The reply line: a [Now] line at once; a [Later] one once its pool
    task has completed, blocking until then.  Taking a deferred line
    releases the solve's admission slot, so the [stats] op's
    [inflight] drops only here (or when {!run_socket} sends it).
    Await each reply once. *)

val handle : t -> string -> reply
(** Process one NDJSON request line.  Total — any input yields a
    response line. *)

val recover_sessions : t -> (string * (int, string) result) list
(** Scan [wal_dir] for [*.wal] files and rebuild each session by
    replaying its log (snapshot record, then tail events).  Returns
    per-session [Ok records_replayed] or [Error reason]; a session
    that fails to rebuild is skipped, not fatal.  No-op without a
    [wal_dir]. *)

val close : t -> unit
(** Close every session WAL (files are kept — they are the durable
    state) and let go of the wake pipe.  The pipe itself closes when
    the last pool solve dispatched before [close] completes, so a late
    completion never writes to a closed or reused descriptor.  The
    server must not be used afterwards. *)

(** {2 Transports} *)

val run_pipe : t -> in_channel -> out_channel -> unit
(** Serve request lines until EOF — the [--stdio] daemon mode and the
    fuzz harness's entry.  One request at a time: a deferred reply is
    written as soon as its pool task completes ({!await}), before the
    next line is read. *)

val run_socket :
  t ->
  path:string ->
  ?max_pending_per_conn:int ->
  ?stop:bool Atomic.t ->
  unit ->
  (unit, string) result
(** Bind a Unix-domain stream socket at [path] (replacing a stale
    socket file) and serve until [stop] flips.  With a pool, the loop
    also selects on the server's wake pipe, so a deferred reply goes
    out as soon as its task completes; the loop's 0.2 s select timeout
    only bounds how late [stop] is noticed.  Per-connection failures
    (a peer vanishing mid-line, oversized lines) close that connection
    only.  [Error] is reserved for failure to bind. *)
