(** The Theorem 1 hardness pipeline: 3-Partition → PTS(m = 4) → DSP.

    A 3-Partition instance consists of [3k] positive integers, each
    strictly between B/4 and B/2, with total [k * B]; it is a
    yes-instance iff the numbers split into [k] triples each summing to
    [B].  Henning et al. encode 3-Partition into Parallel Task
    Scheduling on four machines; composing with the paper's DSP ↔ PTS
    transformation yields DSP instances for which any pseudo-polynomial
    algorithm with ratio < 5/4 would decide 3-Partition.

    The encoding used here: with [k] slots of length [B] separated by
    [k - 1] unit-length full-width separator jobs (q = 4), plus one
    blocker job (q = 3, p = B) per slot, the remaining machine-time is
    exactly [k] gaps of one machine × B time; the 3k numbers (q = 1,
    p = aᵢ) fill them with makespan [T = k*B + k - 1] when the
    3-Partition instance is a yes-instance.  The instance is
    area-tight: total work equals [4T].

    Substitution note (DESIGN.md §3): this simplified frame is a
    *relaxation* of the Henning et al. gadget — the forward direction
    (3P yes ⟹ makespan T / DSP peak 4) is exact and witnessed by
    {!schedule_of_partition}, but the converse can fail: separators
    may clump, merging slots into longer channels that sometimes
    admit height-4 packings even for 3P no-instances (their full
    construction pins the frame with an interlocking structure the
    paper only cites).  Experiment E4 therefore reports 3P
    solvability next to the exact DSP optimum rather than assuming
    equivalence. *)

open Dsp_core

type three_partition = { k : int; bound : int; numbers : int array }
(** [numbers] has length [3 * k] and sums to [k * bound]. *)

val yes_instance : Dsp_util.Rng.t -> k:int -> bound:int -> three_partition
(** Random yes-instance: each triple is drawn to sum to [bound]
    within the (B/4, B/2) window; [bound] must be divisible by 4 and
    at least 8. *)

val no_instance : k:int -> three_partition
(** A provably unsolvable instance: [bound = 26 ≡ 2 (mod 3)] with all
    numbers from {7, 10} ≡ 1 (mod 3), so every triple sums to
    0 (mod 3) ≠ 26 (mod 3).  Requires [k] divisible by 3 (the counts
    4k/3 sevens and 5k/3 tens must be integral).
    @raise Invalid_argument otherwise. *)

val target_makespan : three_partition -> int
(** [T = k * bound + k - 1], the yes-instance makespan. *)

val to_dsp : three_partition -> Instance.t
(** The PTS encoding on 4 machines described above — the first
    [k - 1] jobs are separators, the next [k] blockers, the final [3k]
    the numbers — pushed through the paper's transformation: strip
    width [target_makespan], desired height 4. *)

val schedule_of_partition :
  three_partition -> triples:(int * int * int) array -> Pts.Schedule.t
(** Builds the witness schedule of makespan [target_makespan] from a
    solution of the 3-Partition instance ([triples] indexes into
    [numbers]).
    @raise Invalid_argument if the triples are not a partition with
    correct sums. *)
