(** Shared profile-placement primitives for the DSP algorithms.

    All DSP heuristics in this library work on a mutable demand
    profile and place items subject to a peak budget; this module
    collects the placement rules they share. *)

open Dsp_core

type state
(** A partially built packing: instance, profile, chosen starts. *)

val create : Instance.t -> state
val profile : state -> Profile.t
val peak : state -> int

val place : state -> Item.t -> start:int -> unit
(** Unconditional placement (records the start and updates the
    profile). *)

val unplace : state -> Item.t -> unit
(** Remove a previously placed item (for backtracking searches). *)

val copy : state -> state
(** Independent snapshot of the partial packing. *)

val start_of : state -> Item.t -> int
(** Recorded start of one item; -1 if unplaced. *)

val to_packing : state -> Packing.t
(** @raise Invalid_argument if some item is still unplaced. *)

val first_fit : state -> Item.t -> budget:int -> bool
(** Place at the leftmost start keeping the item's window peak within
    [budget]; false if no start qualifies (immediately so when the
    item is wider than the strip).  Runs on the segment-tree kernel's
    skip-ahead descent ({!Dsp_core.Profile.first_fit_start}) instead
    of an O(width * w) scan. *)

val best_fit : state -> Item.t -> budget:int -> bool
(** Place at the start minimizing the window peak (ties to the left);
    false if even the best start exceeds [budget].  O(width) via the
    kernel's sliding-window maximum over the profile's runs
    ({!Dsp_core.Profile.best_start}). *)

val place_all_best_fit :
  state -> Item.t list -> budget:int -> order:(Item.t -> Item.t -> int) -> bool
(** Sort then best-fit each; stops and returns false on the first
    failure (partial placements remain recorded). *)

type free_box = { x : int; len : int; base : int; height : int }
(** A maximal free rectangle sitting on the current profile: columns
    [x, x + len), vertical space [base, base + height) where [base] is
    the profile load (constant on the range) and
    [base + height = cap]. *)

val free_boxes : state -> cap:int -> free_box list
(** Decompose the free space between the profile and the horizontal
    line [cap] into maximal constant-load boxes, left to right.  Boxes
    of zero height are omitted. *)
