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
    Strictly exponential; intended for n ≤ 10. *)

open Dsp_core

val solve :
  ?node_limit:int -> ?budget:Dsp_util.Budget.t -> Instance.t -> Rect_packing.t option
(** @raise Dsp_util.Budget.Expired when the optional [budget] runs out
    mid-search (cooperative cancellation checkpoints fire once per
    node, in both search phases). *)

val optimal_height :
  ?node_limit:int -> ?budget:Dsp_util.Budget.t -> Instance.t -> int option

val y_feasible :
  ?node_limit:int ->
  ?budget:Dsp_util.Budget.t ->
  Instance.t ->
  starts:int array ->
  height:int ->
  int array option
(** Vertical-arrangement check for fixed start columns: [Some ys] with
    the bottom y of every item, or [None] (also on budget
    exhaustion). *)
