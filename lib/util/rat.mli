(** Exact rational arithmetic over native integers.

    The sealed build environment has no [zarith]; this module provides
    exact rationals with overflow detection on multiplication.  All
    quantities appearing in the experiments (item dimensions, strip
    widths, LP coefficients) are small integers, so 63-bit numerators
    and denominators are ample.  Any overflow raises {!Overflow} rather
    than silently wrapping. *)

type t
(** A rational number, always kept in lowest terms with a positive
    denominator. *)

exception Overflow
(** Raised when an intermediate product would exceed the native integer
    range. *)

exception Division_by_zero
(** Raised when constructing a rational with denominator zero or when
    dividing by zero. *)

val make : int -> int -> t
(** [make num den] is the rational [num/den] in lowest terms.
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
(** Numerator of the canonical representation. *)

val den : t -> int
(** Denominator of the canonical representation; always positive. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val floor : t -> int
(** Largest integer [k] with [k <= t]. *)

val ceil : t -> int
(** Smallest integer [k] with [k >= t]. *)

val to_float : t -> float
val of_float_approx : ?max_den:int -> float -> t
(** Best rational approximation with denominator at most [max_den]
    (default 1_000_000), via continued fractions. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
