(** Resource-augmentation frameworks (Corollaries 2–4).

    All three corollaries share one skeleton, which this module
    implements generically: treat DSP and PTS as duals via the
    Theorem 1 transformation, binary-search the optimum of the
    primal objective (dual approximation, Hochbaum–Shmoys), and
    answer each decision question with an approximation algorithm for
    the *other* problem, paying the approximation factor in the
    augmented resource instead of the objective:

    - Corollary 2: optimal-height DSP packing inside a strip widened
      by the inner PTS solver's factor.
    - Corollary 3: optimal-makespan PTS schedule using machines
      multiplied by a polynomial DSP solver's factor (paper: the
      (5/3+ε) algorithms).
    - Corollary 4: the same with the pseudo-polynomial (5/4+ε) DSP
      algorithm, reducing the augmentation to (5/4+ε).

    Substitution note (DESIGN.md §3): the inner solvers are this
    repository's implementable algorithms (list scheduling for
    Corollary 2; {!Dsp_algo.Approx53} / {!Dsp_algo.Approx54} for
    Corollaries 3/4); the achieved augmentation factors are measured
    by experiments E5–E7. *)

open Dsp_core

type dsp_result = {
  packing : Packing.t;  (** height = the certified optimal bound *)
  height : int;
  width_used : int;  (** actual width of the augmented strip *)
  width_factor : float;  (** width_used / original width *)
}

val dsp_with_width_augmentation :
  ?inner:(Pts.Inst.t -> Pts.Schedule.t) -> Instance.t -> dsp_result
(** Corollary 2.  Binary-search the height H; for each guess,
    transform to PTS on H machines and run the inner scheduler; a
    makespan within the augmented width certifies the guess.  The
    returned packing has the smallest certifiable height and lives in
    a strip of width [width_used >= width]. *)

type pts_result = {
  schedule : Pts.Schedule.t;
  makespan : int;  (** = the certified optimal bound *)
  machines_used : int;
  machine_factor : float;
}

val pts_53 : Pts.Inst.t -> pts_result
(** Corollary 3.  Binary-search the makespan T; for each guess,
    transform to DSP with strip width T and run
    {!Dsp_algo.Approx53.solve}; the packing height becomes the number
    of machines used. *)

val pts_54 : Pts.Inst.t -> pts_result
(** Corollary 4: the same search with {!Dsp_algo.Approx54.solve}, the
    pseudo-polynomial inner solver. *)
