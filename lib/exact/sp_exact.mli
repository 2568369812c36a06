(** Exact classical (unsliced) Strip Packing for small instances.

    Used by the integrality-gap experiments (E1, E12) to compute
    OPT_SP exactly.  The search runs in two phases.  The x-phase is
    the DSP search under the height ({!Dsp_bb.find}): an SP packing's
    x-projection is a DSP packing with no greater peak, so every SP
    packing has a canonical start vector among its leaves.  At each
    leaf a complete backtracking check decides whether rectangles with
    those fixed x-intervals admit a non-overlapping vertical
    arrangement within the height (gravity-normalized candidate y
    positions: the floor or the top of an already-placed item).
    Strictly exponential; intended for n ≤ 10.  Both phases count
    their nodes against the one optional {!Dsp_util.Budget.t} of the
    solve; a spent budget escapes as {!Dsp_util.Budget.Expired}. *)

open Dsp_core

(* lint: ok R10 the packing behind optimal_height, which the tests check *)
val solve : ?budget:Dsp_util.Budget.t -> Instance.t -> Rect_packing.t
(** Optimal rectangle packing: {!Optimum.below} bisects the height
    from {!Instance.lower_bound} up to the total area.
    @raise Dsp_util.Budget.Expired when the optional [budget] runs out
    mid-search (checkpoints fire once per node, in both phases). *)

val optimal_height : ?budget:Dsp_util.Budget.t -> Instance.t -> int

(* lint: ok R10 the y-phase, which the tests hold to solve's witness *)
val y_feasible :
  ?budget:Dsp_util.Budget.t ->
  Instance.t ->
  starts:int array ->
  height:int ->
  int array option
(** Vertical-arrangement check for fixed start columns: [Some ys] with
    the bottom y of every item, or [None] when there is none.
    @raise Dsp_util.Budget.Expired when the optional [budget] runs
    out. *)
