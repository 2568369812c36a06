(** Small general-purpose helpers shared across the libraries. *)

exception Overflow
(** Raised by the checked integer operations when a result would wrap
    around the native integer range.  {!Rat.Overflow} is the same
    exception, rebound. *)

val checked_add : int -> int -> int
(** Native-int addition that raises {!Overflow} instead of wrapping. *)

val checked_mul : int -> int -> int
(** Native-int multiplication that raises {!Overflow} instead of
    wrapping. *)

val sum_by : ('a -> int) -> 'a list -> int
(** Integer sum of [f] over a list. *)

val max_by : ('a -> int) -> 'a list -> int
(** Maximum of [f] over a list; 0 on the empty list. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the smallest [k] with [k * b >= a]; requires
    [b > 0] and [a >= 0]. *)

val group_sorted : ('a -> 'a -> bool) -> 'a list -> 'a list list
(** Group adjacent equal elements of an already-sorted list. *)

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi-1]. *)

val binary_search_min : int -> int -> (int -> bool) -> int option
(** [binary_search_min lo hi ok] finds the smallest [x] in [lo..hi]
    with [ok x], assuming [ok] is monotone (false then true).  Returns
    [None] if no such value exists. *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-quantile
    ([0 <= q <= 1]) of an ascending array: the element of rank
    [ceil (q * n)], clamped to the array.  0 on the empty array. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: only
    differences mean anything, and a step of the wall clock moves
    none of them. *)

val timeit : (unit -> 'a) -> 'a * float
(** Run a thunk and return its result with the elapsed seconds, on
    the monotonic clock ({!now}). *)

val pp_int_list : Format.formatter -> int list -> unit

val sat_sub : int -> int -> int
(** Saturating native-int subtraction: clamps to [max_int]/[min_int]
    instead of wrapping.  Used for comparison thresholds (e.g.
    [limit - height] with [limit = max_int]) where a conservative
    clamp is correct and an exception would be wrong. *)

type gc_stats = {
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words promoted to the major heap *)
  minor_collections : int;
  major_collections : int;
}
(** GC activity attributable to one timed region (deltas of
    [Gc.quick_stat] counters). *)

val timeit_gc : (unit -> 'a) -> 'a * float * gc_stats
(** Like {!timeit}, additionally reporting the GC counter deltas across
    the run.  The sampling itself allocates a handful of words (the
    [Gc.quick_stat] records); amortize over enough work when asserting
    zero-allocation properties. *)
