type t = { width : int; items : Item.t array }

let reindex items = Array.mapi (fun i (it : Item.t) -> { it with Item.id = i }) items

let make ~width items =
  if width < 1 then invalid_arg "Instance.make: width must be >= 1";
  Array.iter
    (fun (it : Item.t) ->
      if it.Item.w > width then
        invalid_arg
          (Printf.sprintf "Instance.make: item of width %d exceeds strip width %d"
             it.Item.w width))
    items;
  { width; items = reindex items }

let of_dims ~width dims =
  let items =
    List.mapi (fun i (w, h) -> Item.make ~id:i ~w ~h) dims |> Array.of_list
  in
  make ~width items

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

let scale_heights k t =
  if k < 1 then invalid_arg "Instance.scale_heights";
  { t with items = Array.map (Item.scale_height k) t.items }

let map_items f t = make ~width:t.width (Array.map f t.items)

let equal a b =
  a.width = b.width
  && Array.length a.items = Array.length b.items
  && Array.for_all2 Item.equal a.items b.items

let pp fmt t =
  Format.fprintf fmt "@[<v>instance: width=%d items=%d area=%d@,%a@]" t.width
    (n_items t) (total_area t)
    (Format.pp_print_seq ~pp_sep:Format.pp_print_space Item.pp)
    (Array.to_seq t.items)
