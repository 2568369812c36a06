type t = { id : int; w : int; h : int }

let make ~id ~w ~h =
  if w < 1 then invalid_arg "Item.make: width must be >= 1";
  if h < 1 then invalid_arg "Item.make: height must be >= 1";
  { id; w; h }

let area t = t.w * t.h
let equal a b = a.id = b.id && a.w = b.w && a.h = b.h

let compare_by_height_desc a b =
  match Stdlib.compare b.h a.h with
  | 0 -> ( match Stdlib.compare b.w a.w with 0 -> Stdlib.compare a.id b.id | c -> c)
  | c -> c

let compare_by_width_desc a b =
  match Stdlib.compare b.w a.w with
  | 0 -> ( match Stdlib.compare b.h a.h with 0 -> Stdlib.compare a.id b.id | c -> c)
  | c -> c

let compare_by_area_desc a b =
  match Stdlib.compare (area b) (area a) with
  | 0 -> Stdlib.compare a.id b.id
  | c -> c

let pp fmt t = Format.fprintf fmt "item#%d(%dx%d)" t.id t.w t.h
