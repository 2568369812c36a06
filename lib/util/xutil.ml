exception Overflow

let checked_add a b =
  let s = a + b in
  (* Overflow iff both operands share a sign that the sum lost. *)
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

(* Saturating subtraction: thresholds like [limit - height] (limit may
   be max_int) must not wrap; clamping to the representable range keeps
   every downstream comparison conservative. *)
let sat_sub a b =
  let d = a - b in
  if a >= 0 && b < 0 && d < 0 then max_int
  else if a < 0 && b >= 0 && d >= 0 then min_int
  else d

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let max_by f xs = List.fold_left (fun acc x -> max acc (f x)) 0 xs

let ceil_div a b =
  if b <= 0 then invalid_arg "Xutil.ceil_div: non-positive divisor";
  if a < 0 then invalid_arg "Xutil.ceil_div: negative dividend";
  (a + b - 1) / b

let group_sorted eq xs =
  let rec go acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | x :: rest -> (
        match cur with
        | y :: _ when eq x y -> go acc (x :: cur) rest
        | _ :: _ -> go (List.rev cur :: acc) [ x ] rest
        | [] -> go acc [ x ] rest)
  in
  match xs with [] -> [] | x :: rest -> go [] [ x ] rest

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n xs =
  if n <= 0 then xs else match xs with [] -> [] | _ :: rest -> drop (n - 1) rest

let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go (hi - 1) []

let binary_search_min lo hi ok =
  if lo > hi then None
  else if not (ok hi) then None
  else
    let rec go lo hi =
      (* Invariant: ok hi holds; forall x < lo, not (ok x) unless x was
         never tested below the initial lo. *)
      if lo >= hi then hi
      else
        let mid = lo + ((hi - lo) / 2) in
        if ok mid then go lo mid else go (mid + 1) hi
    in
    Some (go lo hi)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timeit f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type gc_stats = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let timeit_gc f =
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let s1 = Gc.quick_stat () in
  ( r,
    dt,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let pp_int_list fmt xs =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "; ")
       Format.pp_print_int)
    xs
