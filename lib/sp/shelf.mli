(** Shelf algorithms for classical Strip Packing.

    The historical baselines of the related-work section: Next-Fit
    Decreasing Height and First-Fit Decreasing Height (Coffman, Garey,
    Johnson & Tarjan 1980).  Both sort items by non-increasing height
    and fill horizontal shelves; NFDH only ever appends to the newest
    shelf, FFDH revisits all open shelves first.

    Guarantees (with [S] the total item area, [W] the strip width and
    [h_max] the tallest item):  NFDH ≤ 2·S/W + h_max and
    FFDH ≤ 1.7·S/W + h_max.  The paper uses NFDH to place small and
    medium items (Lemmas 13 and 14). *)

open Dsp_core

val nfdh : Instance.t -> Rect_packing.t
(* lint: ok R10 FFDH, the related-work baseline this module documents; tests hold it to NFDH *)
val ffdh : Instance.t -> Rect_packing.t

val nfdh_height_bound : Instance.t -> int
(** The proven bound ⌈2·S/W⌉ + h_max, used by tests and by the Step 1
    upper bound of the (5/4+ε) algorithm. *)

val nfdh_into :
  width:int ->
  height:int ->
  Item.t list ->
  (Item.t * Rect_packing.pos) list * Item.t list
(** Pack items (sorted internally by decreasing height) into a
    [width x height] box with NFDH; returns the placed items with
    their positions (relative to the box origin) and the leftover
    items that did not fit. *)
