(** Explicit sliced layouts of DSP packings.

    A {!Packing.t} only records start columns; a slice layout
    additionally fixes, for every item and every column it covers, the
    vertical position of the item's slice there.  This is the object
    the paper's Figure 1–3 draw: slicing means the vertical position
    may change from column to column, but within one column each item
    must occupy one contiguous interval [y, y + h).

    Layouts are produced by the PTS ↔ DSP transformation (machine
    indices become vertical positions) and by the stacking rule; the
    {!slice_points} statistic counts how often items are actually cut,
    reproducing the paper's claim that the repair procedure slices
    each item O(1) times per event. *)

type t = private {
  packing : Packing.t;
  ys : int array array; (* ys.(i).(dx) = bottom of item i at column start+dx *)
}

val make : Packing.t -> int array array -> t
(** @raise Invalid_argument if dimensions mismatch or two slices
    overlap in some column. *)

val stacked : Packing.t -> t
(** The canonical layout: in every column, active items are stacked
    bottom-up in order of increasing id.  Always feasible and of the
    same height as the packing's profile peak. *)

(* lint: ok R10 the tests' check that a layout is as high as its packing *)
val height : t -> int
(** Max over columns of the top of the highest slice. *)

val slice_points : t -> int
(** Number of positions where an item's vertical position differs from
    its position one column earlier — i.e. the number of vertical cuts
    the layout actually uses. *)

(* lint: ok R10 the tests' check of stacked and the Theorem 1 layouts *)
val validate : t -> (unit, string) result
val render : t -> string
(** ASCII picture, one letter per item. *)
