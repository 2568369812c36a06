type t = { width : int; items : Item.t array }

(* The seed of every items array built here.  The runtime's
   [Array.make n x], for an [x] in the minor heap and more than 256
   words, runs a minor collection first, and in OCaml 5 that stops
   every domain.  [Array.of_list], [Array.map] and [Array.mapi] seed
   with a fresh item; a static literal is never in the minor heap. *)
let placeholder = { Item.id = 0; w = 1; h = 1 }

(* Checks [items], an array no caller holds, and re-ids its items to
   their positions in place. *)
let own ~width items =
  if width < 1 then invalid_arg "Instance.make: width must be >= 1";
  Array.iter
    (fun (it : Item.t) ->
      if it.Item.w > width then
        invalid_arg
          (Printf.sprintf "Instance.make: item of width %d exceeds strip width %d"
             it.Item.w width))
    items;
  Array.iteri
    (fun i (it : Item.t) -> if it.Item.id <> i then items.(i) <- { it with Item.id = i })
    items;
  { width; items }

let make ~width items = own ~width (Array.copy items)

let of_dims ~width dims =
  let items = Array.make (List.length dims) placeholder in
  List.iteri (fun i (w, h) -> items.(i) <- Item.make ~id:i ~w ~h) dims;
  own ~width items

let n_items t = Array.length t.items
let item t i = t.items.(i)
let total_area t = Array.fold_left (fun acc it -> acc + Item.area it) 0 t.items
let max_height t = Array.fold_left (fun acc (it : Item.t) -> max acc it.h) 0 t.items
let max_width t = Array.fold_left (fun acc (it : Item.t) -> max acc it.w) 0 t.items
let area_lower_bound t = Dsp_util.Xutil.ceil_div (total_area t) t.width

let column_lower_bound t =
  Array.fold_left
    (fun acc (it : Item.t) -> if 2 * it.w > t.width then acc + it.h else acc)
    0 t.items

let lower_bound t =
  max (area_lower_bound t) (max (max_height t) (column_lower_bound t))

let map_items f t =
  let items = Array.make (n_items t) placeholder in
  Array.iteri (fun i it -> items.(i) <- f it) t.items;
  own ~width:t.width items

let equal a b =
  a.width = b.width
  && Array.length a.items = Array.length b.items
  && Array.for_all2 Item.equal a.items b.items

let pp fmt t =
  Format.fprintf fmt "@[<v>instance: width=%d items=%d area=%d@,%a@]" t.width
    (n_items t) (total_area t)
    (Format.pp_print_seq ~pp_sep:Format.pp_print_space Item.pp)
    (Array.to_seq t.items)
