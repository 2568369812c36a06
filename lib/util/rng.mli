(** Deterministic, splittable pseudo-random number generator.

    Every experiment in the benchmark harness must be reproducible from
    a single integer seed, independent of evaluation order.  This is a
    small splittable generator built on the SplitMix64 finalizer: each
    draw advances an internal 64-bit counter through a strong mixing
    function, and {!split} derives an independent stream, so workload
    generators can be composed without sharing mutable state across
    modules. *)

type t

val create : int -> t
(** [create seed] is a fresh generator; equal seeds give equal
    streams. *)

(* lint: ok R10 test-only; ROADMAP item 15 deletes it with its one test next *)
val split : t -> t
(** [split t] returns a new generator whose stream is independent of
    the remaining stream of [t]; [t] itself advances by one step. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range
    [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
