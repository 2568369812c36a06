(** Moldable parallel tasks (the paper's conclusion, future work).

    A moldable job may run on any number of machines q ∈ [1, m], with
    a processing time p(q) fixed before execution (no dynamic
    reshaping).  The paper suggests these model running the same task
    on several coordinated machines.  Processing-time tables must be
    non-increasing in q; work q·p(q) is typically non-decreasing
    (Turek et al.'s monotony assumption), which {!make_work_based}
    produces exactly.

    Algorithms: the classical two-phase approach — choose an
    allotment (a q per job), then schedule the resulting rigid jobs
    with list scheduling — with the allotment chosen to balance the
    work bound against the critical path; and an exact search over
    allotments, pruned against the best makespan found so far. *)

open Dsp_core

type job = private { id : int; times : int array }
(** [times.(q-1)] = processing time on [q] machines; length = the
    machine count of the instance, non-increasing. *)

type t = private { machines : int; jobs : job array }

val make : machines:int -> int array list -> t
(** One time-table per job.
    @raise Invalid_argument on wrong lengths, non-positive times or
    increasing tables. *)

val make_work_based : machines:int -> work:int list -> t
(** p(q) = ⌈work/q⌉ for each job — the perfectly parallelizable
    profile. *)

val allot : t -> int array -> Pts.Inst.t
(** The rigid PTS instance for an allotment (a machine count per
    job).
    @raise Invalid_argument if an allotment entry is out of
    [1, machines]. *)

val schedule : t -> Pts.Schedule.t * int array
(** Two-phase moldable scheduling.  Phase 1 starts every job at q = 1
    and repeatedly widens the job whose processing time dominates the
    critical-path bound while the work bound stays below it — a
    variant of Turek et al.'s allotment selection; phase 2 is list
    scheduling.  Returns the schedule (over the alloted rigid
    instance) and the allotment. *)

val makespan : t -> int

val optimal_makespan : ?budget:Dsp_util.Budget.t -> t -> int * int array
(** Exact optimum over all allotments, and an allotment attaining it.
    The incumbent starts at {!schedule}'s makespan; each of the m^n
    allotments is then one {!Dsp_exact.Optimum.variant} (bound
    {!Pts.Inst.lower_bound}, decision {!Dsp_exact.Pts_exact.decide}).
    No size cap: the [budget] bounds how many are visited.
    @raise Dsp_util.Budget.Expired when the optional [budget] runs
    out. *)
