(** Exact Parallel Task Scheduling via the DSP duality.

    The paper's Theorem 1 shows a schedule on [m] machines with
    makespan [T] exists iff a DSP packing of height [m] in a strip of
    width [T] exists.  This solver is that theorem turned into code:
    bisect on [T] with {!Optimum.below}, decide each guess with the
    exact DSP solver on the transformed instance, and recover concrete
    machine assignments with the Figure 3 repair procedure.  Every
    decision of a solve checks the one optional {!Dsp_util.Budget.t},
    so a spent budget escapes as {!Dsp_util.Budget.Expired}, never as
    an infeasible guess. *)

open Dsp_core

val decide :
  ?budget:Dsp_util.Budget.t ->
  Pts.Inst.t ->
  makespan:int ->
  Pts.Schedule.t option
(** A schedule with makespan at most [makespan], or [None] when there
    is none.  @raise Dsp_util.Budget.Expired when the optional
    [budget] runs out mid-search. *)

(* lint: ok R10 the schedule behind optimal_makespan, which the duality tests check *)
val solve : ?budget:Dsp_util.Budget.t -> Pts.Inst.t -> Pts.Schedule.t
(** Optimal schedule: {!decide} bisected from {!Pts.Inst.lower_bound}
    up to the total processing time.  @raise Dsp_util.Budget.Expired
    when the optional [budget] runs out mid-search. *)

val optimal_makespan : ?budget:Dsp_util.Budget.t -> Pts.Inst.t -> int
