(** Greedy list scheduling for Parallel Task Scheduling.

    Jobs are taken in a configurable order; each is started at the
    earliest time at which enough machines are simultaneously free for
    its whole duration (first fit on the machine-availability
    profile).  Machine sets are then recovered with the paper's
    Figure 3 procedure.  This is the classical resource-constrained
    list scheduling of Garey–Graham, a 2-approximation for parallel
    tasks; the order only changes the constant in practice.  Used as
    the implementable stand-in for the Jansen–Thöle (3/2+ε) inner
    solver of Corollary 2 (DESIGN.md §3). *)

open Dsp_core

type order = Input | Longest_first | Widest_first | Work_first

val schedule : ?order:order -> Pts.Inst.t -> Pts.Schedule.t
(** @raise Invalid_argument never; always succeeds. *)
