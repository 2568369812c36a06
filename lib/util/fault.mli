(** Deterministic fault injection at counted {!Instr} sites.

    Every instrumented hot-loop site (["bb.nodes"],
    ["segtree.range_add"], ["simplex.pivots"], …) doubles as a fault
    point: arming a {!plan} installs an {!Instr} per-hit hook that
    counts hits on the chosen site and, on the [after]-th hit, fires
    the planned action exactly once:

    - {!Raise} aborts the solve with {!Injected} — models a solver bug
      or a crashed worker;
    - [Stall s] sleeps [s] seconds — models a hang, detected by the
      cooperative {!Budget} deadline at the next checkpoint;
    - {!Corrupt} flags the solve so the runner hands a structurally
      corrupted packing to [Report] validation — models a solver
      returning garbage.  At the WAL's append site the same action
      instead flips a byte of the record before it is written
      (corrupt-on-write), which recovery must detect by checksum;
    - {!Short} flags the next WAL append to write only a prefix of its
      record and then raise {!Injected} — models a crash mid-write,
      leaving the torn tail that recovery must truncate cleanly.

    Plans are one-shot and process-global; the hit count and the
    fired flag are atomic, so a plan fires {e exactly once} even when
    the instrumented site is hit concurrently from several pool
    worker domains (every hit draws a unique ordinal, and only the
    [after]-th fires).  Always {!disarm} in a [Fun.protect]
    finalizer.  The harness exists to prove the PR 2 "fail loudly"
    boundary and the {!Dsp_engine.Runner} fallback chains actually
    absorb faults instead of crashing. *)

type action =
  | Raise
  | Stall of float  (** seconds *)
  | Corrupt
  | Short  (** short write: the next WAL append is cut mid-record *)

type plan = {
  site : string;  (** an {!Instr} counter name *)
  action : action;
  after : int;  (** fire on the [after]-th hit of [site]; 1-based *)
}

exception Injected of string
(** Raised out of the instrumented site by a fired {!Raise} plan. *)

val arm : plan -> unit
(** Install the plan (replacing any previous one) and clear pending
    corruption.  @raise Invalid_argument if [after < 1]. *)

val disarm : unit -> unit
(** Remove the plan and clear pending corruption. *)

(* lint: ok R10 how a test sees that a one-shot plan went off *)
val fired : unit -> bool
(** Whether the armed plan has triggered (plans are one-shot). *)

val take_corruption : unit -> bool
(** Consume the pending-corruption flag set by a fired {!Corrupt}
    plan.  The runner calls this once per completed solve and, when
    true, corrupts the returned packing before validation.  The WAL
    calls it at its append site and, when true, flips a byte of the
    record on its way to disk instead. *)

val take_short_write : unit -> bool
(** Consume the pending short-write flag set by a fired {!Short} plan.
    The WAL calls this once per append and, when true, writes only a
    prefix of the record and raises {!Injected} — a deterministic
    crash mid-write. *)

val parse_spec : string -> (plan, string) result
(** Parse a CLI fault spec [SITE:ACTION[:AFTER]] where [ACTION] is
    [raise], [corrupt], [short], or [stall[MS]] (default 200 ms) and [AFTER]
    defaults to 1 — e.g. ["bb.nodes:raise:100"],
    ["segtree.range_add:stall50"], ["budget_fit.best_fit_probes:corrupt"].
    [SITE] must be a canonical {!Instr.Sites} name; unknown sites are
    rejected (a typo would arm a plan that can never fire).  {!arm}
    itself stays open-vocabulary for test-only counters. *)

(* lint: ok R10 the printer half of the spec grammar's round-trip test *)
val spec_to_string : plan -> string
(** Inverse of {!parse_spec} (canonical form). *)
