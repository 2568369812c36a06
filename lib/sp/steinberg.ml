open Dsp_core

let pos x y = { Rect_packing.x; y }

let region_bound ~u ~w_max ~h_max ~area =
  (* Smallest v >= h_max with 2*area <= u*v - (2w-u)+(2h-v)+. *)
  let cond v =
    let a = max 0 ((2 * w_max) - u) and b = max 0 ((2 * h_max) - v) in
    2 * area <= (u * v) - (a * b)
  in
  match
    Dsp_util.Xutil.binary_search_min h_max
      (max h_max (Dsp_util.Xutil.ceil_div (2 * area) (max 1 u) + (2 * h_max)))
      cond
  with
  | Some v -> v
  | None -> assert false (* cond holds for v large enough *)

let height_bound (inst : Instance.t) =
  region_bound ~u:inst.Instance.width ~w_max:(Instance.max_width inst)
    ~h_max:(Instance.max_height inst) ~area:(Instance.total_area inst)

let total_area items = Dsp_util.Xutil.sum_by Item.area items
let max_h items = Dsp_util.Xutil.max_by (fun (it : Item.t) -> it.Item.h) items
let max_w items = Dsp_util.Xutil.max_by (fun (it : Item.t) -> it.Item.w) items

let shift dx dy placements =
  List.map (fun (it, { Rect_packing.x; y }) -> (it, pos (x + dx) (y + dy))) placements

(* Each strategy returns [None] if not applicable or if its recursive
   subproblem fails; [pack_region] tries them in order. *)
let rec pack_region ~u ~v items =
  match items with
  | [] -> Some []
  | [ it ] -> if it.Item.w <= u && it.Item.h <= v then Some [ (it, pos 0 0) ] else None
  | _ ->
      if max_w items > u || max_h items > v then None
      else begin
        match wide_stack ~u ~v items with
        | Some r -> Some r
        | None -> (
            match tall_stack ~u ~v items with
            | Some r -> Some r
            | None -> (
                match split_vertical ~u ~v items with
                | Some r -> Some r
                | None -> (
                    match split_horizontal ~u ~v items with
                    | Some r -> Some r
                    | None -> nfdh_fallback ~u ~v items)))
      end

(* Stack all rectangles with 2w >= u at the bottom (widest first) and
   recurse on the strip above them. *)
and wide_stack ~u ~v items =
  let wide, rest = List.partition (fun (it : Item.t) -> 2 * it.w >= u) items in
  if wide = [] then None
  else begin
    let sorted = List.sort Item.compare_by_width_desc wide in
    let y = ref 0 in
    let placed =
      List.map
        (fun (it : Item.t) ->
          let p = (it, pos 0 !y) in
          y := !y + it.h;
          p)
        sorted
    in
    let h1 = !y in
    if h1 > v then None
    else if rest = [] then Some placed
    else if max_h rest <= v - h1 && 2 * total_area rest <= u * (v - h1) then
      match pack_region ~u ~v:(v - h1) rest with
      | Some sub -> Some (placed @ shift 0 h1 sub)
      | None -> None
    else None
  end

(* Mirror of [wide_stack]: rectangles with 2h >= v go to the left. *)
and tall_stack ~u ~v items =
  let tall, rest = List.partition (fun (it : Item.t) -> 2 * it.h >= v) items in
  if tall = [] then None
  else begin
    let sorted = List.sort Item.compare_by_height_desc tall in
    let x = ref 0 in
    let placed =
      List.map
        (fun (it : Item.t) ->
          let p = (it, pos !x 0) in
          x := !x + it.w;
          p)
        sorted
    in
    let w1 = !x in
    if w1 > u then None
    else if rest = [] then Some placed
    else if max_w rest <= u - w1 && 2 * total_area rest <= (u - w1) * v then
      match pack_region ~u:(u - w1) ~v rest with
      | Some sub -> Some (placed @ shift w1 0 sub)
      | None -> None
    else None
  end

(* All rectangles small in both dimensions: split the region in half
   vertically and distribute the items greedily by decreasing width,
   keeping Steinberg's area condition in both halves. *)
and split_vertical ~u ~v items =
  if u < 2 then None
  else begin
    let u1 = u / 2 in
    let u2 = u - u1 in
    let sorted = List.sort Item.compare_by_width_desc items in
    if max_w items > min u1 u2 then None
    else begin
      let s1 = ref 0 and l1 = ref [] and s2 = ref 0 and l2 = ref [] in
      List.iter
        (fun (it : Item.t) ->
          if 2 * (!s1 + Item.area it) <= u1 * v then begin
            s1 := !s1 + Item.area it;
            l1 := it :: !l1
          end
          else begin
            s2 := !s2 + Item.area it;
            l2 := it :: !l2
          end)
        sorted;
      if !l1 = [] || !l2 = [] then None
      else if 2 * !s2 > u2 * v then None
      else
        match (pack_region ~u:u1 ~v !l1, pack_region ~u:u2 ~v !l2) with
        | Some a, Some b -> Some (a @ shift u1 0 b)
        | _ -> None
    end
  end

and split_horizontal ~u ~v items =
  if v < 2 then None
  else begin
    let v1 = v / 2 in
    let v2 = v - v1 in
    let sorted = List.sort Item.compare_by_height_desc items in
    if max_h items > min v1 v2 then None
    else begin
      let s1 = ref 0 and l1 = ref [] and s2 = ref 0 and l2 = ref [] in
      List.iter
        (fun (it : Item.t) ->
          if 2 * (!s1 + Item.area it) <= u * v1 then begin
            s1 := !s1 + Item.area it;
            l1 := it :: !l1
          end
          else begin
            s2 := !s2 + Item.area it;
            l2 := it :: !l2
          end)
        sorted;
      if !l1 = [] || !l2 = [] then None
      else if 2 * !s2 > u * v2 then None
      else
        match (pack_region ~u ~v:v1 !l1, pack_region ~u ~v:v2 !l2) with
        | Some a, Some b -> Some (a @ shift 0 v1 b)
        | _ -> None
    end
  end

and nfdh_fallback ~u ~v items =
  match Shelf.nfdh_into ~width:u ~height:v items with
  | placed, [] -> Some placed
  | _, _ :: _ -> None

let pack (inst : Instance.t) =
  let items = Array.to_list inst.Instance.items in
  let u = inst.Instance.width in
  let of_placements placements =
    let positions = Array.make (Instance.n_items inst) (pos 0 0) in
    List.iter (fun ((it : Item.t), p) -> positions.(it.Item.id) <- p) placements;
    Rect_packing.make inst positions
  in
  let nfdh_pk = Shelf.nfdh inst in
  let upper = Rect_packing.height nfdh_pk in
  let rec try_heights v =
    if v >= upper then nfdh_pk
    else
      match pack_region ~u ~v items with
      | Some placements -> of_placements placements
      | None -> try_heights (v + 1 + ((upper - v) / 8))
  in
  if Instance.n_items inst = 0 then Rect_packing.make inst [||]
  else try_heights (height_bound inst)
