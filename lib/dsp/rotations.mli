(** DSP with 90° rotations (the paper's conclusion, future work).

    A rotatable item may swap duration and demand — the paper's
    example is fast charging (short and power-hungry) versus slow
    charging (long and frugal).  An orientation assignment maps each
    item to either its original or its transposed dimensions; an
    orientation is admissible only if the resulting width fits the
    strip.

    This module provides a greedy rotating packer (each item tries
    both orientations at its best-fit position) and an exact
    branch-and-bound over orientations × the fixed-orientation exact
    solver for ground truth on small instances. *)

open Dsp_core

type orientation = Fixed | Rotated

val apply : Instance.t -> orientation array -> Instance.t
(** The instance with each item re-dimensioned by its orientation.
    @raise Invalid_argument if an orientation is inadmissible. *)

val best_fit_rotating : Instance.t -> Packing.t * orientation array
(** Greedy: items by decreasing larger-dimension, each placed at the
    better of its two admissible (orientation, best-fit position)
    pairs.  The returned packing is over {!apply}'s instance. *)

val optimal_height :
  ?budget:Dsp_util.Budget.t -> Instance.t -> (int * orientation array) option
(** Exact optimum over all orientation assignments (exponential in
    the number of genuinely rotatable items; intended for n ≤ 10), or
    [None] when more than 12 items are rotatable.  Every assignment's
    exact search checks the one [budget].
    @raise Dsp_util.Budget.Expired when the optional [budget] runs
    out. *)

val rotation_gain : ?budget:Dsp_util.Budget.t -> Instance.t -> (int * int) option
(** [(fixed_opt, rotated_opt)] — how much rotations lower the exact
    optimum; [None] as for {!optimal_height}.  Both optima check the
    one [budget].  @raise Dsp_util.Budget.Expired when it runs out. *)
