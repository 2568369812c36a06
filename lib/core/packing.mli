(** Demand Strip Packing solutions.

    Because items may be sliced vertically (any horizontal segment of
    an item can sit at any height), a DSP solution is fully described
    by the placement function λ assigning each item its start column;
    the peak of the induced demand profile is the objective. *)

type t = private { instance : Instance.t; starts : int array }

val make : Instance.t -> int array -> t
(** @raise Invalid_argument if the array length does not match or any
    item overhangs the strip. *)

val instance : t -> Instance.t
val start : t -> int -> int
val starts : t -> int array
val profile : t -> Profile.t
val height : t -> int
(** Peak of the demand profile — the DSP objective. *)

val validate : t -> (unit, string) result
(** Re-checks all invariants, for tests and for packings produced by
    transformation pipelines. *)

(* lint: ok R10 test-only; ROADMAP item 15 deletes it with its one test next *)
val shift : t -> int -> int -> t
(** [shift p i s] re-places item [i] at start [s]. *)
