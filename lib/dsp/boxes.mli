(** Executable versions of the structural lemmas 4 and 5.

    Lemma 4 reduces the number of distinct start points of horizontal
    items to O(1/(εδ)) at a loss of O(ε)·OPT in the peak; Lemma 5
    partitions a (rounded) optimal packing into O_ε(1) boxes — one
    per large/medium-vertical item, O_ε(1) boxes of height εδ·OPT for
    horizontal items, and the strips between the induced vertical
    lines for tall/vertical items.

    These procedures are proofs-turned-code: they take an *actual*
    packing (e.g. an exact optimum from {!Dsp_exact.Dsp_bb}), apply
    the restructuring, and report the quantities the lemmas bound, so
    experiment E14 can check the structure theorem empirically. *)

open Dsp_core
module Rat = Dsp_util.Rat

(* lint: ok R10 Lemma 4's step, which the tests check alone *)
val snap_horizontal_starts :
  Packing.t -> Classify.params -> Packing.t * int
(** Lemma 4: move every horizontal item's start to the previous
    multiple of ⌊εδW⌋ (at least 1).  Returns the snapped packing and
    the number of distinct horizontal start points afterwards.  The
    peak increase is the quantity Lemma 4 bounds by O(ε)·OPT. *)

type stats = {
  horizontal_start_points : int;  (** after snapping *)
  horizontal_start_bound : int;  (** ⌈1/(εδ)⌉ + 1 *)
  peak_before : int;
  peak_after : int;  (** after snapping; Lemma 4 bounds the delta *)
  n_large_boxes : int;  (** = |L| + |Mv| *)
  n_horizontal_boxes : int;  (** greedy boxes of height εδ·OPT *)
  n_tall_vertical_boxes : int;  (** strips between induced lines *)
  tv_box_bound : int;  (** 2(1+2ε)/(εδ²), Lemma 5 *)
}

val partition_stats : Packing.t -> Classify.params -> stats
(** Runs the Lemma 5 construction on the packing: personal boxes for
    large/medium-vertical items, greedy height-εδ·OPT boxes for
    horizontal items (widest-first, as in the proof), and vertical
    lines at every box border for the tall/vertical strips. *)

val pp_stats : Format.formatter -> stats -> unit
