(** Items of the Demand Strip Packing problem.

    An item models one power-demanding task: its width is the duration
    for which it runs and its height the amount of power it draws.  In
    the demand (sliced) setting the vertical position of an item is
    irrelevant — only the set of time points it covers matters — so an
    item is fully described by its two dimensions. *)

type t = { id : int; w : int; h : int }
(** [id] is the item's index inside its instance, [w >= 1] its width
    (duration) and [h >= 1] its height (demand). *)

val make : id:int -> w:int -> h:int -> t
(** @raise Invalid_argument if [w < 1] or [h < 1]. *)

val area : t -> int

val equal : t -> t -> bool

val compare_by_height_desc : t -> t -> int
(** Descending height, ties by descending width, then by id — a total
    order used by shelf algorithms. *)

val compare_by_width_desc : t -> t -> int
val compare_by_area_desc : t -> t -> int
val pp : Format.formatter -> t -> unit
