type pos = { x : int; y : int }
type t = { instance : Instance.t; positions : pos array }

let overlap_error (inst : Instance.t) positions =
  if Array.length positions <> Instance.n_items inst then
    Some
      (Printf.sprintf "positions has %d entries for %d items"
         (Array.length positions) (Instance.n_items inst))
  else begin
    let n = Instance.n_items inst in
    let err = ref None in
    let set e = if !err = None then err := Some e in
    for i = 0 to n - 1 do
      let it = Instance.item inst i and p = positions.(i) in
      if p.x < 0 || p.x + it.Item.w > inst.Instance.width then
        set (Printf.sprintf "item %d overhangs the strip horizontally" i);
      if p.y < 0 then set (Printf.sprintf "item %d below the strip floor" i)
    done;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = Instance.item inst i and b = Instance.item inst j in
        let pa = positions.(i) and pb = positions.(j) in
        let disjoint =
          pa.x + a.Item.w <= pb.x
          || pb.x + b.Item.w <= pa.x
          || pa.y + a.Item.h <= pb.y
          || pb.y + b.Item.h <= pa.y
        in
        if not disjoint then set (Printf.sprintf "items %d and %d overlap" i j)
      done
    done;
    !err
  end

let make inst positions =
  (match overlap_error inst positions with
  | Some msg -> invalid_arg ("Rect_packing.make: " ^ msg)
  | None -> ());
  { instance = inst; positions = Array.copy positions }

let height t =
  let m = ref 0 in
  Array.iteri
    (fun i p ->
      let it = Instance.item t.instance i in
      if p.y + it.Item.h > !m then m := p.y + it.Item.h)
    t.positions;
  !m

let validate t =
  match overlap_error t.instance t.positions with
  | Some msg -> Error msg
  | None -> Ok ()

let to_dsp t = Packing.make t.instance (Array.map (fun p -> p.x) t.positions)
