(** Executable versions of the box-restructuring lemmas 6 and 7.

    Lemma 6 (boxes of height at most H'/2): no two tall items can
    stack, so every tall item slides to the floor; vertical lines at
    tall-item borders cut the box into movable slices, which are
    sorted by the height of their tall item, descending.  After the
    sort the tall items of equal (rounded) height are adjacent —
    O(1/ε) boxes — and the multiset of per-column free capacities is
    unchanged, so the vertical items repack fractionally as before.

    Lemma 7 (boxes of height in (H'/2, 3/4·H']): at most two tall
    items stack; items crossing both guide lines go to the floor,
    the rest touch either the floor or the ceiling; sorting floor
    items ascending and ceiling items descending left-to-right
    produces a non-overlapping arrangement with O_ε(1) boxes.

    Both functions take the tall items of a feasible box (at most
    one/two per column respectively) and return the restructured
    starts together with box-count statistics; [verify_*] re-checks
    feasibility and capacity preservation, and the property tests run
    them on randomly generated feasible boxes. *)

open Dsp_core

type low_result = {
  starts : (int * int) list;  (** item id → new start *)
  tall_boxes : int;  (** runs of equal tall height after sorting *)
}

val sort_low_box :
  box_len:int -> items:(Item.t * int) list -> low_result
(** Lemma 6.  [items] are the tall items of the box with their
    original starts, all fully inside the box (the lemma's
    border-crossing immovables are the caller's concern: exclude them
    and shrink [box_len] accordingly, which is how the paper counts
    their two extra boxes). *)

val verify_low :
  box_len:int -> box_height:int -> items:(Item.t * int) list -> low_result ->
  (unit, string) result
(** No overlap among tall items, all inside the box, and the multiset
    of per-column free capacities is preserved. *)

type mid_side = Floor | Ceiling

type mid_result = {
  placement : (int * int * mid_side) list;  (** id, start, side *)
  boxes : int;  (** height-runs on both sides *)
}

(* lint: ok R10 Lemma 7's step, which the tests check alone *)
val sort_mid_box :
  box_len:int -> box_height:int -> quarter:int -> items:(Item.t * int) list ->
  mid_result
(** Lemma 7.  Items crossing both guide lines (quarter and
    box_height − quarter) are floored; remaining items keep the side
    (floor/ceiling) nearer to their canonical position; floor items
    are sorted ascending, ceiling items descending. *)

(* lint: ok R10 Lemma 7's check, the oracle of the sort_mid_box tests *)
val verify_mid :
  box_len:int -> box_height:int -> items:(Item.t * int) list -> mid_result ->
  (unit, string) result
(** Per-column: at most one floor and one ceiling item, and their
    heights sum within the box height. *)
