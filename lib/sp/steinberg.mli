(** Steinberg-bound packer.

    Steinberg's theorem (SIAM J. Comput. 1997): rectangles with
    [w_max <= u], [h_max <= v] and
    [2·S <= u·v − (2·w_max − u)₊·(2·h_max − v)₊] pack into a [u x v]
    region, which gives the classical 2-approximation for Strip
    Packing based only on the area and max-height lower bounds.  The
    paper uses exactly this bound: for the Step 1 upper bound of the
    (5/4+ε) algorithm and to place leftover items (Lemmas 13/14).

    Substitution note (see DESIGN.md §3): the original's full
    case-analysis is reproduced here as a portfolio of its main
    reductions — stacking the wide rectangles at the bottom, stacking
    the tall ones at the left, recursively splitting when everything
    is small — with an NFDH fallback, and the resulting height is
    *verified* against the Steinberg bound by the E11 experiment and
    the property tests rather than by the original's induction.  All
    produced packings are validated, so the module is always correct;
    only the tightness of the height is empirical. *)

open Dsp_core

val height_bound : Instance.t -> int
(** Smallest height [v >= h_max] satisfying Steinberg's condition C3
    for the instance's strip. *)

(* lint: ok R10 Steinberg's region packer, which the tests check alone *)
val pack_region :
  u:int -> v:int -> Item.t list -> (Item.t * Rect_packing.pos) list option
(** Try to pack the items into a [u x v] region; positions relative to
    the region origin.  Guaranteed non-overlapping when [Some]. *)

val pack : Instance.t -> Rect_packing.t
(** Pack the whole instance into its strip: first at
    {!height_bound}, then increasing heights, with the NFDH result as
    a sure fallback.  The result height is therefore at most
    [2·S/W + h_max] and usually the Steinberg bound
    [≈ 2·max(S/W, h_max)]. *)
