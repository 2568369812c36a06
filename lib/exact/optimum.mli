(** The one exact optimum driver: a minimization over a monotone
    decision, as in the paper's dual approximation (Corollaries 2–4,
    Theorem 5) and its Theorem 1 reduction of PTS to DSP decisions.
    The exact solvers bisect with {!below}; the searches over
    rotations and moldable allotments run {!variant} per variant. *)

val below : lo:int -> hi:int -> (int -> 'a option) -> 'a option
(** [below ~lo ~hi decide] is the witness of the smallest height in
    [[lo, hi]] that the monotone [decide] finds feasible, or [None]
    when it finds none.  A feasible mid continues in [[lo, mid - 1]],
    an infeasible one in [[mid + 1, hi]]: at most
    ⌊log2 (hi − lo + 1)⌋ + 1 decisions, none outside [[lo, hi]]. *)

val variant :
  budget:Dsp_util.Budget.t option ->
  bound:int ->
  incumbent:int ->
  (int -> 'a option) ->
  'a option
(** One variant of a variant search: one {!Dsp_util.Budget.check_opt} of
    the caller's [budget] (none when it is [None]), then [None] when
    the variant's lower [bound] reaches the [incumbent], else
    [below ~lo:bound ~hi:(incumbent - 1) decide], whose witness beats
    the incumbent.
    @raise Dsp_util.Budget.Expired when the [budget] runs out. *)
