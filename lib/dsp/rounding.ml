open Dsp_core
module Rat = Dsp_util.Rat

type t = { original : Instance.t; rounded : Instance.t }

(* Scales past this one are not searched: an item that reaches it
   takes its grid. *)
let max_level = 63

let round_heights (inst : Instance.t) (p : Classify.params) =
  let eps = p.Classify.eps and tgt = Rat.of_int p.Classify.target in
  (* Heights are integers, so h <= δH' iff h <= ⌊δH'⌋. *)
  let threshold = Rat.floor (Rat.mul p.Classify.delta tgt) in
  (* An item's scale is the least ℓ >= 1 with h >= ε^ℓ·H', and its
     grid ε^(ℓ+1)·H'.  The ladder of scales is shared by every item and
     built only as far as some item needs: level ℓ holds ⌈ε^ℓ·H'⌉ and
     max 1 ⌊ε^(ℓ+1)·H'⌋. *)
  let lowest = Array.make (max_level + 1) 0 and grid = Array.make (max_level + 1) 0 in
  let built = ref 0 and bound = ref tgt in
  let extend () =
    let b = Rat.mul !bound eps in
    incr built;
    lowest.(!built) <- Rat.ceil b;
    grid.(!built) <- max 1 (Rat.floor (Rat.mul b eps));
    bound := b
  in
  let rec grid_of h level =
    if level > !built then extend ();
    if h >= lowest.(level) || level >= max_level then grid.(level)
    else grid_of h (level + 1)
  in
  let round_item (it : Item.t) =
    if it.Item.h <= threshold then it
    else
      let g = grid_of it.Item.h 1 in
      { it with Item.h = Dsp_util.Xutil.ceil_div it.Item.h g * g }
  in
  { original = inst; rounded = Instance.map_items round_item inst }

let restore t (pk : Packing.t) =
  if not (Instance.equal (Packing.instance pk) t.rounded) then
    invalid_arg "Rounding.restore: packing is not over the rounded instance";
  Packing.make t.original (Packing.starts pk)
