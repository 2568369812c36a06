(* The flat-array implementation, kept as the reference for
   differential testing and for the naive side of the kernel
   benchmark.  The production profile below is backed by the lazy
   segment tree and must agree with this module on every operation. *)
module Naive = struct
  type t = { loads : int array }

  let create width =
    if width < 1 then invalid_arg "Profile.create: width must be >= 1";
    { loads = Array.make width 0 }

  let width t = Array.length t.loads

  let add t ~start ~len ~height =
    let stop = Dsp_util.Xutil.checked_add start len in
    if start < 0 || len < 0 || stop > width t then
      invalid_arg
        (Printf.sprintf "Profile.add: range [%d,%d) outside strip of width %d"
           start stop (width t));
    for x = start to stop - 1 do
      t.loads.(x) <- Dsp_util.Xutil.checked_add t.loads.(x) height
    done

  let add_item t (it : Item.t) ~start = add t ~start ~len:it.w ~height:it.h
  let load t x = t.loads.(x)
  let peak t = Array.fold_left max 0 t.loads

  let peak_in t ~start ~len =
    let stop = Dsp_util.Xutil.checked_add start len in
    if start < 0 || len < 0 || stop > width t then
      invalid_arg "Profile.peak_in: range outside strip";
    let m = ref 0 in
    for x = start to stop - 1 do
      if t.loads.(x) > !m then m := t.loads.(x)
    done;
    !m

  let to_array t = Array.copy t.loads

  let of_starts (inst : Instance.t) starts =
    if Array.length starts <> Instance.n_items inst then
      invalid_arg "Profile.of_starts: starts array does not match instance";
    let p = create inst.Instance.width in
    Array.iteri (fun i s -> add_item p (Instance.item inst i) ~start:s) starts;
    p
end

type t = { tree : Segtree.t }

let create width =
  if width < 1 then invalid_arg "Profile.create: width must be >= 1";
  { tree = Segtree.create width }

let width t = Segtree.size t.tree

let add t ~start ~len ~height =
  let stop = Dsp_util.Xutil.checked_add start len in
  if start < 0 || len < 0 || stop > width t then
    invalid_arg
      (Printf.sprintf "Profile.add: range [%d,%d) outside strip of width %d"
         start stop (width t));
  Segtree.range_add t.tree ~lo:start ~hi:stop height

let add_item t (it : Item.t) ~start = add t ~start ~len:it.w ~height:it.h
let remove_item t (it : Item.t) ~start = add t ~start ~len:it.w ~height:(-it.h)
let load t x = Segtree.get t.tree x

(* Like the naive reference, peaks are clamped at 0: loads can only go
   negative through explicit negative adds, and the empty window has
   peak 0. *)
let peak t = max 0 (Segtree.max_all t.tree)

let peak_in t ~start ~len =
  let stop = Dsp_util.Xutil.checked_add start len in
  if start < 0 || len < 0 || stop > width t then
    invalid_arg "Profile.peak_in: range outside strip";
  max 0 (Segtree.range_max t.tree ~lo:start ~hi:stop)

let copy t = { tree = Segtree.copy t.tree }
let to_array t = Segtree.to_array t.tree
let reset t = Segtree.reset t.tree

(* The outermost columns attaining the (positive) peak: the first and
   the last column strictly above peak - 1, one descent each. *)
let peak_span t =
  let pk = Segtree.max_all t.tree in
  if pk <= 0 then None
  else
    Some
      ( Segtree.first_above t.tree (pk - 1),
        Segtree.find_last_above_i t.tree ~lo:0 ~hi:(width t) (pk - 1) )

let first_fit_start t ~len ~height ~budget =
  Segtree.first_fit_from t.tree ~from:0 ~len ~height ~limit:budget

let best_start t ~len = Segtree.best_start t.tree ~len

let of_starts (inst : Instance.t) starts =
  if Array.length starts <> Instance.n_items inst then
    invalid_arg "Profile.of_starts: starts array does not match instance";
  let p = create inst.Instance.width in
  Array.iteri (fun i s -> add_item p (Instance.item inst i) ~start:s) starts;
  p

let pp fmt t =
  Format.fprintf fmt "@[profile(peak=%d): %a@]" (peak t) Dsp_util.Xutil.pp_int_list
    (Array.to_list (to_array t))

let render ?(max_rows = 20) t =
  let loads = to_array t in
  let pk = peak t in
  if pk = 0 then "(empty strip)"
  else
    let rows = min pk max_rows in
    (* Each text row represents a band of loads of size [band]. *)
    let band = Dsp_util.Xutil.ceil_div pk rows in
    let buf = Buffer.create ((width t + 1) * rows) in
    for r = rows downto 1 do
      let threshold = (r - 1) * band in
      for x = 0 to width t - 1 do
        Buffer.add_char buf (if loads.(x) > threshold then '#' else '.')
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make (width t) '-');
    Buffer.add_string buf (Printf.sprintf "\npeak = %d (1 row ~ %d units)" pk band);
    Buffer.contents buf
