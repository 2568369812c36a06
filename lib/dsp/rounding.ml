open Dsp_core
module Rat = Dsp_util.Rat

type t = { original : Instance.t; rounded : Instance.t }

let round_heights (inst : Instance.t) (p : Classify.params) =
  let tgt = Rat.of_int p.Classify.target in
  let threshold = Rat.mul p.Classify.delta tgt in
  let round_item (it : Item.t) =
    if Rat.(of_int it.Item.h <= threshold) then it
    else begin
      (* Scale ℓ: smallest ℓ >= 1 with h >= eps^ℓ · H'; the grid for
         that scale is eps^(ℓ+1) · H'. *)
      let rec find_scale level bound =
        let bound = Rat.mul bound p.Classify.eps in
        if Rat.(of_int it.Item.h >= bound) || level > 62 then (level, bound)
        else find_scale (level + 1) bound
      in
      let _, scale_bound = find_scale 1 tgt in
      let grid_rat = Rat.mul scale_bound p.Classify.eps in
      let grid = max 1 (Rat.floor grid_rat) in
      { it with Item.h = Dsp_util.Xutil.ceil_div it.Item.h grid * grid }
    end
  in
  { original = inst; rounded = Instance.map_items round_item inst }

let restore t (pk : Packing.t) =
  if not (Instance.equal (Packing.instance pk) t.rounded) then
    invalid_arg "Rounding.restore: packing is not over the rounded instance";
  Packing.make t.original (Packing.starts pk)
