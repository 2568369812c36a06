(** Exact Demand Strip Packing by branch and bound.

    Items are placed in descending area order; each node extends the
    partial packing by all start columns of the next item that keep
    the profile peak within the current budget.  Pruning:

    - peak budget: a placement is cut when the window peak would
      exceed the decision bound;
    - area: remaining item area must fit into the free capacity below
      the bound;
    - duplicate items: items with equal dimensions are forced into
      non-decreasing start order;
    - mirror symmetry: the first item is confined to the left half.

    Exact search is exponential — the paper proves the problem
    strongly NP-hard — so all entry points accept a node budget and
    return [None] when it is exhausted. *)

open Dsp_core

type outcome = Feasible of Packing.t | Infeasible | Node_budget_exhausted

val default_node_limit : int
(** Node cap applied when the caller gives none (20,000,000). *)

val decide :
  ?node_limit:int -> ?budget:Dsp_util.Budget.t -> Instance.t -> height:int -> outcome
(** Is there a packing with peak at most [height]?  The optional
    [budget] adds cooperative cancellation (a checkpoint per node):
    {!Dsp_util.Budget.Expired} escapes to the caller. *)

val solve :
  ?node_limit:int -> ?budget:Dsp_util.Budget.t -> Instance.t -> Packing.t option
(** Optimal packing via binary search on the peak between
    {!Instance.lower_bound} and a greedy upper bound; [None] only on
    node-budget exhaustion.  @raise Dsp_util.Budget.Expired when the
    optional [budget] runs out mid-search. *)

val optimal_height :
  ?node_limit:int -> ?budget:Dsp_util.Budget.t -> Instance.t -> int option

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
  ?node_limit:int ->
  ?budget:Dsp_util.Budget.t ->
  ?jobs:int ->
  ?pool:Dsp_util.Pool.t ->
  ?stats:par_stats option ref ->
  Instance.t ->
  Packing.t option
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
    optimal packing, or [None] when the *shared* node cap
    ([node_limit], counted across all workers) is exhausted.  The
    caller's [budget] supplies the wall-clock deadline and the
    cooperative cancel flag; its node cap is ignored in favour of
    [node_limit].  Deterministic in its result (the optimum is the
    optimum from any search order) but not in its node count.  When
    [stats] is given it is filled with this solve's {!par_stats}.
    @raise Dsp_util.Budget.Expired when the budget runs out or is
    cancelled mid-search. *)

val optimal_height_par :
  ?node_limit:int ->
  ?budget:Dsp_util.Budget.t ->
  ?jobs:int ->
  ?pool:Dsp_util.Pool.t ->
  Instance.t ->
  int option

(** Node counts: every explored node bumps the global ["bb.nodes"]
    counter ({!Dsp_util.Instr}); callers that want the count of one
    solve diff {!Dsp_util.Instr.snapshot}s around it (the solver
    engine's reports do this automatically).  This replaces the old
    [solve_with_stats] plumbing. *)
