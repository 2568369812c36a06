(** A (5/3)-flavoured structured DSP algorithm.

    Stand-in for the polynomial-time (5/3+ε)-approximations of
    Deppert et al. and Gálvez et al. (see DESIGN.md §3): for a guessed
    optimum [T], items taller than T/2 — of which no two can overlap
    in any packing of height T, so their total width is at most W —
    are lined up side by side on the floor; everything else is
    best-fit under the peak budget ⌊5T/3⌋.  The smallest feasible [T]
    is found by binary search.  The achieved ratio is measured against
    exact optima in experiment E8. *)

open Dsp_core

val solve : Instance.t -> Packing.t
