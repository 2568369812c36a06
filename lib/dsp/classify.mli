(** Step 3 of the (5/4+ε) algorithm: δ/μ selection and item
    classification.

    Lemma 2 of the paper picks thresholds δ > μ out of the sequence
    σ₀ = f(ε), σᵢ₊₁ = σᵢ²·f(ε) such that the "medium" items falling
    between the thresholds have total area at most f(ε)·W·OPT — a
    pigeonhole over ⌈2/f(ε)⌉ candidate pairs.  The paper needs
    f(ε) = ε¹³/k for its analysis; those constants are astronomically
    impractical, so this implementation uses f(ε) = ε by default
    (substitution documented in DESIGN.md §3) — the pigeonhole
    argument is identical, only the guaranteed medium area changes
    from ε¹³·W·OPT to ε·W·OPT.

    Classification (w, h relative to the strip width W and the
    guessed optimum H'):
    - large:            h > δH' and w ≥ δW
    - tall:             h ≥ (1/4+ε)H' and w < δW
    - vertical:         δH' < h < (1/4+ε)H' and w ≤ μW
    - medium-vertical:  εH' ≤ h < (1/4+ε)H' and μW < w < δW
    - horizontal:       h ≤ μH' and w ≥ δW
    - small:            h ≤ μH' and w ≤ μW
    - medium:           everything else.

    The tests are exact.  Dimensions are integers, and for an integer
    v and a rational r, v > r iff v > ⌊r⌋ and v ≥ r iff v ≥ ⌈r⌉, so
    {!classify} and {!medium_area} round each boundary to an integer
    cut-off once per call (once per guess and δ/μ pair) and compare
    ints per item. *)

open Dsp_core
module Rat = Dsp_util.Rat

type params = { eps : Rat.t; delta : Rat.t; mu : Rat.t; target : int }

type classes = {
  large : Item.t list;
  tall : Item.t list;
  vertical : Item.t list;
  medium_vertical : Item.t list;
  horizontal : Item.t list;
  small : Item.t list;
  medium : Item.t list;
}

val choose_params :
  ?f:(Rat.t -> Rat.t) -> Instance.t -> target:int -> eps:Rat.t -> params
(** Runs the Lemma 2 pigeonhole: returns the first (δ, μ) pair in the
    σ sequence whose medium class has area at most [f eps · W ·
    target].  Such a pair always exists after at most ⌈2/f(ε)⌉ steps;
    the search is capped there and the last pair returned. *)

val classify : Instance.t -> params -> classes

val medium_area : Instance.t -> params -> int
(** Total area of the classes [medium ∪ medium_vertical] under the
    given thresholds (the quantity Lemma 2 bounds). *)

val class_sizes : classes -> (string * int) list
(** For logging and tests. *)

val total_items : classes -> int
