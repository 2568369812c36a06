(** The (5/4+ε) pseudo-polynomial DSP algorithm (Theorem 5).

    Faithful skeleton of the paper's seven steps:

    + Step 1 — lower bound from area/height/column arguments, upper
      bound from the Steinberg packing (≤ 2·OPT).
    + Step 2 — binary search on the guessed optimum H' (the
      Hochbaum–Shmoys dual-approximation frame).
    + Step 3 — Lemma 2 δ/μ selection, Lemma 3 height rounding,
      classification into L/T/V/Mv/H/S/M ({!Classify}, {!Rounding}).
    + Steps 4–5 — structured placement: the O_ε(1)-many large and
      medium-vertical items first; tall items into the bottom
      region; vertical items into the free boxes of the resulting
      profile via the Lemma 10 configuration LP ({!Config_fill}),
      overflow re-placed into the +H'/4 band that Lemmas 9/12
      reserve; horizontal items leveled into the remaining free
      space.
    + Step 6 — small items into leftover gaps, then the discarded
      medium items on top (NFDH/best-fit bands, Lemmas 13/14).
    + Step 7 — return the packing for the smallest feasible H'.

    Substitution (DESIGN.md §3): Step 4's exhaustive guessing of the
    optimal box partition is replaced by the deterministic
    construction above — same per-step code paths, constants that fit
    in a computer.  Consequently the (5/4+ε) ratio is *measured*
    (experiment E8) rather than inherited from the paper's proof; the
    per-class peak budgets below mirror the proof's accounting
    ((1+2ε)H' for the main region, +H'/4 for the tall/vertical
    restructuring band, +O(ε)H' for medium and leftovers). *)

open Dsp_core
module Rat = Dsp_util.Rat

type stats = {
  guesses : int;  (** binary-search iterations *)
  final_target : int;  (** smallest feasible H' *)
  delta : Rat.t;
  mu : Rat.t;
  class_sizes : (string * int) list;
  configurations_used : int;  (** non-zero configuration-LP variables *)
  lp_fallbacks : int;  (** vertical fillings that fell back to greedy *)
}

val solve_with_stats :
  ?eps:Rat.t -> ?budget:Dsp_util.Budget.t -> Instance.t -> Packing.t * stats
(** Default ε = 1/4.  The optional [budget] is polled (deadline only)
    in each decision round's backbone enumeration and configuration-LP
    pivots; {!Dsp_util.Budget.Expired} escapes to the caller. *)

val solve : ?eps:Rat.t -> ?budget:Dsp_util.Budget.t -> Instance.t -> Packing.t
