(** Instances separating sliced (DSP) from unsliced (SP) optima.

    Bladek et al. exhibit a family where the classical strip-packing
    optimum exceeds the demand (sliced) optimum by a factor of 5/4 —
    the integrality gap this paper's Figure 1 illustrates, matched by
    the 5/4 hardness.  The concrete witnesses here were found with
    this repository's exact solvers (an exhaustive scan over small
    multisets plus local search; see DESIGN.md §3): {!instance} is a
    width-7, 9-item instance with OPT_DSP = 6 and OPT_SP = 7 (gap
    7/6 ≈ 1.167), the largest exactly-verified gap our search found
    at exhaustively checkable sizes.  Experiment E1 verifies both
    optima with the exact solvers and reports the measured gap next
    to the 5/4 bound of the literature.

    Height scaling preserves both optima proportionally, so the family
    is closed under [scale]. *)

open Dsp_core

val instance : scale:int -> Instance.t
(** The base gap instance with all heights multiplied by [scale].
    OPT_DSP = 6·scale, OPT_SP = 7·scale. *)

val slicing_wins : Instance.t list
(** Small instances (verified by the exact solvers in the test suite)
    where slicing strictly lowers the optimum, for tests and demos;
    includes {!instance}[ ~scale:1] and smaller 9/8- and 8/7-gap
    witnesses. *)
