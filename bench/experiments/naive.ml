(* The linear reference for the packing kernel: a plain [int array] of
   column loads, and the queries {!Dsp_core.Segtree} documents, each
   written as a direct scan.  The differential tests compare the
   kernel and {!Dsp_core.Profile} with it, and the [kernel] ablation
   times it as the naive side.  Answers are raw, like the kernel's: a
   check on [Profile] applies the profile's clamp at 0 itself. *)

open Dsp_core

let add a ~lo ~hi h =
  for x = lo to hi - 1 do
    a.(x) <- a.(x) + h
  done

(* Maximum over [lo, hi); 0 when the window is empty, like
   [Segtree.range_max]. *)
let window_max a ~lo ~hi =
  let m = ref (if lo < hi then min_int else 0) in
  for x = lo to hi - 1 do
    if a.(x) > !m then m := a.(x)
  done;
  !m

let max_all a = window_max a ~lo:0 ~hi:(Array.length a)

(* The smallest start [s >= from], stepping one column at a time,
   whose window maximum plus [height] stays within [limit]. *)
let first_fit a ~from ~len ~height ~limit =
  let width = Array.length a in
  let rec go s =
    if s + len > width then None
    else if window_max a ~lo:s ~hi:(s + len) + height <= limit then Some s
    else go (s + 1)
  in
  if len < 1 || len > width then None else go (max 0 from)

(* [(s, peak)]: the leftmost start minimizing the window maximum, and
   that maximum. *)
let best_start a ~len =
  let width = Array.length a in
  if len < 1 || len > width then None
  else begin
    let best = ref 0 and best_peak = ref max_int in
    for s = 0 to width - len do
      let m = window_max a ~lo:s ~hi:(s + len) in
      if m < !best_peak then begin
        best_peak := m;
        best := s
      end
    done;
    Some (!best, !best_peak)
  end

(* The rightmost column of [lo, hi) above [thr], or -1. *)
let last_above a ~lo ~hi thr =
  let r = ref (-1) in
  for x = lo to hi - 1 do
    if a.(x) > thr then r := x
  done;
  !r

(* The leftmost column of the whole strip above [thr], or -1. *)
let first_above a thr =
  let r = ref (-1) in
  for x = Array.length a - 1 downto 0 do
    if a.(x) > thr then r := x
  done;
  !r

(* The leftmost and rightmost columns attaining a positive peak. *)
let peak_span a =
  let pk = max_all a in
  if pk <= 0 then None
  else Some (first_above a (pk - 1), last_above a ~lo:0 ~hi:(Array.length a) (pk - 1))

(* The loads of the packing that starts item [i] at [starts.(i)]. *)
let of_starts (inst : Instance.t) starts =
  let a = Array.make inst.Instance.width 0 in
  Array.iteri
    (fun i s ->
      let it = Instance.item inst i in
      add a ~lo:s ~hi:(s + it.Item.w) it.Item.h)
    starts;
  a
