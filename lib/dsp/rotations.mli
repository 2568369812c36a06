(** DSP with 90° rotations (the paper's conclusion, future work).

    A rotatable item may swap duration and demand — the paper's
    example is fast charging (short and power-hungry) versus slow
    charging (long and frugal).  An orientation assignment maps each
    item to either its original or its transposed dimensions; an
    orientation is admissible only if the resulting width fits the
    strip.

    This module provides a greedy rotating packer (each item tries
    both orientations at its best-fit position) and an exact search
    over orientations, pruned against the best height found so far,
    for ground truth on small instances. *)

open Dsp_core

type orientation = Fixed | Rotated

(* lint: ok R10 the tests rebuild optimal_height's witness with it *)
val apply : Instance.t -> orientation array -> Instance.t
(** The instance with each item re-dimensioned by its orientation.
    @raise Invalid_argument if an orientation is inadmissible. *)

val best_fit_rotating : Instance.t -> Packing.t * orientation array
(** Greedy: items by decreasing larger-dimension, each placed at the
    better of its two admissible (orientation, best-fit position)
    pairs.  The returned packing is over {!apply}'s instance. *)

(* lint: ok R10 the witness behind rotation_gain, which the capped tests check *)
val optimal_height :
  ?budget:Dsp_util.Budget.t -> Instance.t -> int * orientation array
(** Exact optimum over all orientation assignments, and an assignment
    attaining it.  The incumbent starts at {!best_fit_rotating}'s
    height; each assignment of the genuinely rotatable items is then
    one {!Dsp_exact.Optimum.variant} (bound {!Instance.lower_bound},
    decision {!Dsp_exact.Dsp_bb.decide}).  The search stops once the
    incumbent reaches {!Instance.area_lower_bound}, which no
    assignment beats: rotating keeps every item's area.  No size cap:
    the number of assignments is exponential in the rotatable items,
    and the [budget] bounds how many are visited.
    @raise Dsp_util.Budget.Expired when the optional [budget] runs
    out. *)

val rotation_gain : ?budget:Dsp_util.Budget.t -> Instance.t -> int * int
(** [(fixed_opt, rotated_opt)]: how much rotations lower the exact
    optimum.  Both optima check the one [budget].
    @raise Dsp_util.Budget.Expired when it runs out. *)
