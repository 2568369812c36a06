(** Lightweight, always-on instrumentation: named monotonic
    counters.

    The solver engine ({!module:Dsp_engine} in [lib/engine]) snapshots
    these around every solve and reports the deltas, so the hot paths
    — {!Dsp_core.Segtree} ops, [Budget_fit] probes, [Dsp_bb] nodes,
    [Simplex] pivots, [Approx54] binary-search iterations — carry one
    shared counter vocabulary instead of ad-hoc per-module stats
    plumbing.

    Cost model: a counter handle is obtained once at module
    initialisation; bumping it touches only the calling domain's cell
    (a domain-local load, a bounds check, and an unboxed add), cheap
    enough to stay enabled in production and inside O(log n)
    kernels.  The global registry is only touched on {!counter}
    creation and on {!snapshot}.

    Multicore: counters are sharded per domain.  Each domain
    increments its own cell with no synchronization; {!snapshot}
    aggregates by summing the cell across every domain that
    ever bumped (cells of exited pool workers are retained, so their
    work is never lost).  Aggregates read while workers are still
    running are racy-but-monotone approximations; after the workers
    are joined they are exact — the engine only snapshots at such
    quiescent points, which is what makes "serial totals = sum of
    per-domain deltas" hold. *)

(** The canonical counter-site vocabulary: one binding per site the
    library tree may instrument, with the wire name as its value.

    This is the single source of truth rule R4 of [dsp_lint] enforces:
    a string literal handed to {!counter} from lib/ bin/ bench/ must
    appear here, and every entry must be referenced somewhere (no dead
    sites).  {!Fault.parse_spec} also validates injection-spec site
    names against {!Sites.all}.  Test suites may still create ad-hoc
    counters (conventionally ["test.*"]); only literals in the audited
    tree are policed. *)
module Sites : sig
  val segtree_range_add : string
  val segtree_range_max : string
  val segtree_first_fit : string
  val segtree_find_last_above : string
  val segtree_first_above : string
  val segtree_best_start : string
  val budget_fit_first_fit_probes : string
  val budget_fit_best_fit_probes : string
  val bb_nodes : string
  val bb_steals : string
  val bb_steal_fails : string
  val sp_bb_nodes : string
  val three_partition_nodes : string
  val simplex_pivots : string
  val approx54_guesses : string
  val approx54_attempts : string
  val session_arrivals : string
  val session_departures : string
  val session_migrations : string
  val session_migration_trials : string
  val session_scan_entries : string
  val wal_appends : string
  val wal_fsyncs : string
  val wal_records_recovered : string
  val wal_compactions : string
  val serve_requests : string
  val serve_errors : string
  val serve_shed : string
  val serve_solves : string

  val all : string list
  (** Every canonical site name, in registration order. *)

  val mem : string -> bool
  (** [mem name] is true iff [name] is a canonical site. *)
end

type counter
(** A named monotonic counter.  Counters are process-global: two
    {!counter} calls with the same name share state (each domain
    bumping its own cell of it). *)

val counter : string -> counter
(** Find or create the counter with this name.  Call it once at module
    initialisation and keep the handle; do not call it in a hot
    loop. *)

val bump : counter -> unit
(** Increment by one. *)

val add : counter -> int -> unit
(** Increment by [n] (negative [n] is rejected: counters are
    monotone). *)

val set_on_hit : (string -> unit) option -> unit
(** Install (or clear) the per-hit hook, called with the counter name
    on every {!bump}/{!add}.  This is how {!Fault} turns every counted
    site into a deterministic fault point; the hook may raise, and the
    raise propagates out of the instrumented hot loop.  Disarmed, a
    hit costs one load and branch.  Exactly one hook at a time —
    installing replaces the previous one. *)

type snapshot = (string * int) list
(** Counter values at one instant, sorted by name. *)

val snapshot : unit -> snapshot

val delta : before:snapshot -> after:snapshot -> (string * int) list
(** Per-counter increase between two snapshots, restricted to counters
    that moved (all deltas are [> 0]); sorted by name.  Counters
    created after [before] count from zero. *)
