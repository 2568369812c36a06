(** Baseline DSP algorithms from the related-work lineage.

    - {!best_fit_decreasing}: sort by height (area, width) descending
      and put each item where the profile is lowest — the natural
      greedy, in the spirit of Ranjan et al.'s first-fit algorithms.
    - {!first_fit_doubling}: Yaw et al. style budget first fit — try a
      peak budget, first-fit every item left to right, double the
      budget on failure; returns the first fully successful packing,
      then binary-searches the budget down between the last failure
      and the success.
    - {!steinberg2}: Steinberg's classical packing reinterpreted as a
      DSP solution (forget the y coordinates), the paper's source of
      the 2·OPT upper bound.
    - {!lpt}: longest (widest) processing time first; the natural
      translation of the scheduling heuristic. *)

open Dsp_core

type order = By_height | By_area | By_width

val best_fit_decreasing : ?order:order -> Instance.t -> Packing.t
val first_fit_doubling : Instance.t -> Packing.t
val steinberg2 : Instance.t -> Packing.t
val lpt : Instance.t -> Packing.t

(** The old [all] table of named algorithms is gone: the solver
    registry ([Dsp_engine.Registry], [lib/engine]) is the single
    source of named solvers; the baselines are its entries of family
    [Baseline]. *)
