(** Lemma 3 height rounding.

    Every item with height above δ·H' gets its height rounded up to a
    multiple of the grid ε^(ℓ+1)·H', where ℓ is the geometric scale
    with ε^ℓ·H' ≤ h ≤ ε^(ℓ-1)·H'.  After rounding, each scale has at
    most 1/ε² distinct heights, which is what bounds the number of
    boxes in Lemmas 6–9.  The paper proves the rounded instance still
    packs into (1+2ε)·H'.

    Item dimensions are integers, so the grid is floored to an
    integer (a grid below one unit means the scale needs no rounding —
    the instance is already at least as fine as the analysis
    requires).  For the same reason the scale tests are exact integer
    cut-offs, computed once per call (once per guess): h ≤ δH' iff
    h ≤ ⌊δH'⌋, and h ≥ ε^ℓH' iff h ≥ ⌈ε^ℓH'⌉. *)

open Dsp_core
module Rat = Dsp_util.Rat

type t = private {
  original : Instance.t;
  rounded : Instance.t;  (** same ids, heights rounded up *)
}

val round_heights : Instance.t -> Classify.params -> t

val restore : t -> Packing.t -> Packing.t
(** Reinterpret a packing of the rounded instance on the original
    one (same starts); the peak can only decrease.
    @raise Invalid_argument if the packing is not over [rounded]. *)
