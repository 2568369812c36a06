(** Demand Strip Packing instances.

    An instance is a strip of width [width] together with a set of
    items to be packed.  Items are stored in an array and their [id]
    field always equals their array index, an invariant established by
    the constructors and relied upon throughout the code base. *)

type t = private { width : int; items : Item.t array }

val make : width:int -> Item.t array -> t
(** Re-ids the items to their array positions.
    @raise Invalid_argument if [width < 1] or any item is wider than
    the strip. *)

val of_dims : width:int -> (int * int) list -> t
(** [of_dims ~width [(w0, h0); ...]] builds an instance from raw
    dimension pairs. *)

val n_items : t -> int
val item : t -> int -> Item.t
val total_area : t -> int
val max_height : t -> int
val max_width : t -> int

val area_lower_bound : t -> int
(** ⌈total area / width⌉ — every packing has at least this peak. *)

val lower_bound : t -> int
(** The best combinatorial lower bound available without search:
    max of {!area_lower_bound}, {!max_height}, and the column bound:
    items wider than half the strip all overlap the middle column, so
    the heights of the items with [2 * w > width] stack. *)

val map_items : (Item.t -> Item.t) -> t -> t
(** Applies [f] to every item; the results are re-ided to their array
    positions (which [f] must not rely on changing). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
