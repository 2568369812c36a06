(** Incremental solve sessions: online DSP with pluggable placement
    policies and bounded migration.

    A session owns a live {!Dsp_core.Profile} over a strip and the set
    of currently-placed items.  Items {!arrive} one at
    a time and are placed immediately by the session's policy — the
    online setting: no knowledge of future events — and may later
    {!depart_result}, freeing their demand.  The objective is the peak the
    profile ever reaches, measured against offline yardsticks by the
    [online] bench experiment.

    Policies are first-class values; the built-ins are incremental
    first-fit, incremental best-fit ({!Dsp_core.Profile.best_start}),
    and a bounded-migration repair policy that may re-place at most
    [k] already-placed items per arrival.  A migration trial that
    finds no destination re-adds its item at its old start, so an
    abandoned trial costs two kernel updates, never a profile copy.

    A session keeps only its live items, in one flat array: a departed
    item leaves nothing behind, so the session's memory and the cost of
    every walk over its items (the repair scan, {!live_items}) follow
    the live set, however many arrivals it has seen.  Ids are found by
    binary search, in O(log live).

    Sessions are single-domain values, like the budgets that meter
    them; create one per domain. *)

open Dsp_core

type t

(** What a policy decided for one arrival: the start of the new item
    and the already-placed items it moved ([(id, new_start)] pairs, in
    the order the moves were committed). *)
type placement = { start : int; migrations : (int * int) list }

(** A placement policy.  [place ~budget session item] must leave
    [profile session] equal to its pre-call state plus [item] placed
    at the returned start and each listed migration applied, moving
    migrated items in the item table as it goes ({!set_start}); the
    session itself only records the new item.  A policy is also the
    place to observe placements: wrap [place] to record each
    arrival's start and migrations.
    A policy that tries an update and abandons it undoes it itself
    (re-adding what it removed), and long repair loops must poll
    [budget]. *)
type policy = {
  pname : string;
  pdoc : string;
  place : budget:Dsp_util.Budget.t option -> t -> Item.t -> placement;
}

val first_fit : policy
(** Leftmost start that keeps the new peak at [max peak h] (the lower
    bound any placement of this arrival must reach); falls back to the
    best window when none exists. *)

val best_fit : policy
(** Leftmost start minimizing the new item's window peak
    ({!Dsp_core.Profile.best_start}). *)

val bounded_migration : k:int -> policy
(** Best-fit placement, then up to [k] repair moves: while the global
    peak can be lowered, pick a live item under every peak column,
    remove it and re-place it first-fit under [peak - 1], which
    strictly lowers the global peak; an item with no such start goes
    back where it was and the next is tried.  [k = 0] is exactly
    {!best_fit}. *)

val find_policy : ?k:int -> string -> policy option
(** Look up ["first-fit"], ["best-fit"] or ["migrate"] (with [?k],
    default 1) — the CLI/bench vocabulary. *)

(** {2 Session lifecycle} *)

val create : ?policy:policy -> width:int -> unit -> t
(** Fresh empty session ([policy] defaults to {!best_fit}). *)

val width : t -> int

val arrive : ?budget:Dsp_util.Budget.t -> t -> w:int -> h:int -> int
(** Place a new item with the session's policy and return its id (ids
    count arrivals from 0).  Raises [Invalid_argument] on dimensions
    outside the strip, mirroring {!Dsp_instance.Io}'s checks.  May
    raise [Dsp_util.Budget.Expired] from a migration loop. *)

(** Why a departure was refused: the id was never handed out by
    {!arrive}, or its item already departed.  Stale ids are expected
    input at the service boundary (a client may retry a departure after
    a reconnect), so they get a typed result instead of an exception. *)
type depart_error = Never_arrived of int | Already_departed of int

val depart_error_to_string : depart_error -> string

val depart_result : t -> int -> (int, depart_error) result
(** Remove a live item by id; [Ok start] gives the start the item
    occupied.  Total: every int is a valid argument. *)

val peak : t -> int
(** Current peak of the live profile. *)

val profile : t -> Profile.t
(** The live profile (shared, mutable — treat as read-only outside
    policies). *)

val snapshot : t -> Packing.t
(** A validated packing of the currently-live items (ids re-numbered
    densely in arrival order).  O(live items), as {!live_items}. *)

val live_items : t -> (int * Item.t * int) list
(** [(id, item, start)] for every live item, in arrival order.
    O(live items). *)

val start_of : t -> int -> int option
(** Start of a live item, [None] once departed / never arrived.
    O(log live items). *)

(* lint: ok R10 the call a migrating custom policy must make (see [policy]) *)
val set_start : t -> int -> int -> unit
(** Move a live item in the item table — policy-side API for committed
    migrations; the caller has already moved its demand in the
    profile.  O(log live items).  Raises [Invalid_argument] on a
    non-live id. *)

(** {2 Trace replay} *)

val apply : ?budget:Dsp_util.Budget.t -> t -> Dsp_instance.Trace.event -> unit
(** Feed one trace event to the session ({!arrive} or
    {!depart_result}); a departure of a stale id raises
    [Invalid_argument], since it means a malformed trace. *)

val replay :
  ?policy:policy -> ?budget:Dsp_util.Budget.t -> Dsp_instance.Trace.t -> t
(** Run a whole trace through a fresh session. *)

val restore :
  ?policy:policy ->
  width:int ->
  n_arrived:int ->
  n_migrations:int ->
  live:(int * int * int * int) list ->
  unit ->
  t
(** Rebuild a session from snapshot state — the WAL's compaction path.
    [live] lists [(id, w, h, start)] for every live item, in any
    order; placements are applied verbatim (no policy involved), so the
    restored profile equals the snapshotted one exactly.  Ids in
    [\[0, n_arrived)] not listed live have departed.
    Raises [Invalid_argument] on out-of-range ids, duplicate ids,
    non-positive dimensions, or a placement overflowing the strip. *)

(** {2 Introspection} *)

type stats = {
  arrivals : int;
  departures : int;
  live : int;
  migrations : int;  (** committed repair moves, all arrivals *)
  peak_now : int;
}

val stats : t -> stats
