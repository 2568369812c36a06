(** Exact Demand Strip Packing by branch and bound.

    Items are placed in descending area order; each node extends the
    partial packing by all start columns of the next item that keep
    the profile peak within the current budget.  One expansion routine
    does this for the serial search ({!find}, {!decide}, {!solve}), the
    stealing workers of {!solve_par} and the x-phase of
    {!Sp_exact}.  Pruning:

    - peak budget: a placement is cut when the window peak would
      exceed the decision bound;
    - duplicate items: items with equal dimensions are forced into
      non-decreasing start order;
    - mirror symmetry: the first item is confined to the left half.

    There is no area prune below the root: the remaining area plus the
    placed area is always the total, so "the remaining area does not
    fit under the bound" holds at some node only if the root check
    [total area > height · W] already rejected the height.

    Exact search is exponential — the paper proves the problem
    strongly NP-hard — so every entry point takes an optional
    {!Dsp_util.Budget.t} and checks it at every node: a spent node
    cap, deadline or cancellation escapes as
    {!Dsp_util.Budget.Expired}, never as an answer.  Without a budget
    the search runs to completion. *)

open Dsp_core

val find :
  ?budget:Dsp_util.Budget.t ->
  node:(unit -> unit) ->
  leaf:(int array -> bool) ->
  Instance.t ->
  height:int ->
  int array option
(** The search itself.  [find ~node ~leaf inst ~height] visits, depth
    first, every canonical start vector of [inst] with peak at most
    [height], and returns [Some starts] (indexed by item id) for the
    first one on which [leaf] answers [true], or [None] when none
    does.  A vector is canonical when, in
    {!Dsp_core.Item.compare_by_area_desc} order, the first item starts
    at or before [(W - w) / 2] and adjacent identical items (equal
    width and height) start in non-decreasing order; every packing has
    a canonical mirror image or permutation with the same peak.
    [node ()] runs first at every search node (the caller's node
    counter); [budget] adds one checkpoint per node.
    [leaf] sees the search's own array: copy it to keep it.  Answers
    [None] at once when the total area exceeds [height · W] or an item
    is taller than [height]. *)

val decide :
  ?budget:Dsp_util.Budget.t -> Instance.t -> height:int -> Packing.t option
(** A packing with peak at most [height], or [None] when there is
    none.  @raise Dsp_util.Budget.Expired when the optional [budget]
    runs out mid-search. *)

val solve : ?budget:Dsp_util.Budget.t -> Instance.t -> Packing.t
(** Optimal packing: {!Optimum.below} bisects {!decide} from
    {!Instance.lower_bound} up to a greedy packing's peak, inclusive;
    every decision checks the one [budget].  @raise
    Dsp_util.Budget.Expired when the optional [budget] runs out. *)

val optimal_height : ?budget:Dsp_util.Budget.t -> Instance.t -> int

type par_stats = {
  domains : int;  (** worker domains used (0 on trivial early returns) *)
  nodes_per_domain : int array;
      (** search nodes each worker expanded; their spread is the
          load-balance signal *)
  steals : int;  (** successful FIFO steals across all workers *)
  steal_fails : int;  (** steal attempts on empty/contended victims *)
  units : int;  (** frontier units executed (popped or stolen) *)
}
(** Scheduler telemetry of one {!solve_par} call, valid after it
    returns (the per-domain tallies are written without
    synchronization and only read once the workers are joined). *)

val solve_par :
  ?budget:Dsp_util.Budget.t ->
  ?jobs:int ->
  ?pool:Dsp_util.Pool.t ->
  ?stats:par_stats option ref ->
  Instance.t ->
  Packing.t
(** Parallel exact search: the same move generator and symmetry
    reductions as {!solve}, but incumbent-driven — the greedy packing
    seeds a shared atomic bound and every worker prunes against the
    global best, re-read at each node.  Work is balanced by stealing:
    each of the [jobs] domains (default {!Dsp_util.Pool.default_jobs};
    an existing [pool] can be supplied instead and overrides [jobs])
    owns a {!Dsp_util.Wsdeque} of search-frontier units seeded from
    the first item's start columns, pops its own units LIFO, pushes
    shallow children back as stealable units, and when idle steals the
    shallowest (largest) unit FIFO from a random victim.  Returns the
    optimal packing.  The caller's [budget] supplies the wall-clock
    deadline, the cooperative cancel flag and the node cap
    ({!Dsp_util.Budget.node_cap}), which is one cap shared by all
    workers.  Deterministic in its result (the optimum is the optimum
    from any search order) but not in its node count.  When [stats] is
    given it is filled with this solve's {!par_stats}.
    @raise Dsp_util.Budget.Expired when the budget runs out or is
    cancelled mid-search ([Expired Nodes] once the workers have
    jointly spent the node cap). *)

val optimal_height_par :
  ?budget:Dsp_util.Budget.t ->
  ?jobs:int ->
  ?pool:Dsp_util.Pool.t ->
  Instance.t ->
  int

(** Node counts: every explored node bumps the global ["bb.nodes"]
    counter ({!Dsp_util.Instr}); callers that want the count of one
    solve diff {!Dsp_util.Instr.snapshot}s around it (the solver
    engine's reports do this automatically). *)
