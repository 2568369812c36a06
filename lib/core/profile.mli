(** Demand profiles (skylines) over the discrete strip [0, width).

    A profile records, for every unit column of the strip, the total
    height of items covering it.  It is the central object of Demand
    Strip Packing: the objective value of a packing is exactly the peak
    of its profile.  The implementation is backed by the lazy segment
    tree ({!Segtree}): range updates and window-peak queries are
    O(log width), and the placement queries {!first_fit_start} /
    {!best_start} replace whole O(width * len) scan loops.  The
    differential tests and the kernel benchmark check it against the
    one linear reference, [bench/experiments/naive.ml]: a plain load
    array with the same queries written as scans. *)

type t

val create : int -> t
(** [create width] is the all-zero profile over [0, width). *)

val add : t -> start:int -> len:int -> height:int -> unit
(** Add [height] to all columns in [start, start + len); [height] may
    be negative (removal).
    @raise Invalid_argument if the range leaves the strip. *)

val add_item : t -> Item.t -> start:int -> unit
val remove_item : t -> Item.t -> start:int -> unit

val peak : t -> int
(** Maximum load over all columns; 0 for an empty strip. *)

val peak_in : t -> start:int -> len:int -> int
(** Maximum load over the window [start, start + len). *)

val copy : t -> t
val to_array : t -> int array

val peak_span : t -> (int * int) option
(** [(first, last)]: the leftmost and rightmost columns attaining the
    peak, or [None] when the profile has no positive load.
    O(log width). *)

val first_fit_start : t -> len:int -> height:int -> budget:int -> int option
(** [first_fit_start t ~len ~height ~budget] is the leftmost start [s]
    where placing an item of the given footprint keeps the window peak
    within [budget] ([peak_in s len + height <= budget]); [None] if no
    start qualifies.  Skip-ahead segment-tree descent — see
    {!Segtree.first_fit_from}. *)

val best_start : t -> len:int -> (int * int) option
(** [best_start t ~len] is [(s, peak)] for the leftmost start [s]
    minimizing the window peak, together with that peak; [None] when
    [len] exceeds the strip width.  A sliding-window maximum over the
    profile's runs, found from a bitmap of the kernel's nonzero
    differences in O(width/32 + runs); see {!Segtree.best_start}. *)

val of_starts : Instance.t -> int array -> t
(** Profile of the packing that starts item [i] at [starts.(i)]. *)

val render : ?max_rows:int -> t -> string
(** ASCII skyline, one character column per strip column, for the
    examples and the CLI. *)
