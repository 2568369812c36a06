(** Exact two-phase primal simplex over rationals.

    Solves [max cᵀx  s.t.  Ax = b, x >= 0] with exact {!Dsp_util.Rat}
    arithmetic and Bland's anti-cycling rule, so termination and
    exactness are guaranteed.  This is the substrate behind the
    configuration LPs of the (5/4+ε) algorithm's Step 5 (Lemmas 10 and
    11); basic solutions matter there because the rounding argument
    charges one overflowing item per non-zero basic variable.

    Dense-tableau implementation: fine for the experiment sizes
    (tens of rows, up to a few thousand columns). *)

module Rat = Dsp_util.Rat

type result =
  | Optimal of { objective : Rat.t; solution : Rat.t array }
  | Unbounded
  | Infeasible

(* lint: ok R10 test-only; ROADMAP item 15 deletes it with its three test_lp cases next *)
val solve :
  ?budget:Dsp_util.Budget.t ->
  a:Rat.t array array ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  result
(** [a] is row-major [m x n]; [b] length [m]; [c] length [n].  Rows
    with negative [b] are negated internally.  The optional [budget]
    is polled once per pivot (deadline only — pivots are not search
    nodes); {!Dsp_util.Budget.Expired} escapes to the caller.
    @raise Invalid_argument on dimension mismatch. *)

val feasible_point :
  ?budget:Dsp_util.Budget.t ->
  a:Rat.t array array ->
  b:Rat.t array ->
  unit ->
  Rat.t array option
(** Phase 1 only: a basic feasible solution of [Ax = b, x >= 0], or
    [None].  The returned solution is basic: at most [m] non-zero
    entries, the property Lemmas 10–11 rely on. *)
