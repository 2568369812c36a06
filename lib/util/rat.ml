type t = { n : int; d : int }

exception Overflow = Xutil.Overflow

exception Division_by_zero

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let mul_check = Xutil.checked_mul
let add_check = Xutil.checked_add

let make n d =
  if d = 0 then raise Division_by_zero
  else
    let s = if d < 0 then -1 else 1 in
    (* [min_int] has no native negation: a sign flip would wrap, and
       normalization's gcd walk turns its negative remainders into a
       negative divisor.  Reject the boundary value outright. *)
    if n = min_int || d = min_int then raise Overflow;
    let n = mul_check s n and d = mul_check s d in
    let g = gcd (abs n) d in
    if g = 0 then { n = 0; d = 1 } else { n = n / g; d = d / g }

let of_int n = { n; d = 1 }
let zero = of_int 0
let one = of_int 1
let num t = t.n
let den t = t.d

let add a b =
  let g = gcd a.d b.d in
  let da = a.d / g and db = b.d / g in
  (* a.n/(da*g) + b.n/(db*g) = (a.n*db + b.n*da) / (da*db*g) *)
  let n = add_check (mul_check a.n db) (mul_check b.n da) in
  make n (mul_check (mul_check da db) g)

let neg a = if a.n = min_int then raise Overflow else { a with n = -a.n }
let sub a b = add a (neg b)

let mul a b =
  (* Cross-reduce before multiplying to keep intermediates small. *)
  let g1 = gcd (abs a.n) b.d and g2 = gcd (abs b.n) a.d in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  let n = mul_check (a.n / g1) (b.n / g2) in
  let d = mul_check (a.d / g2) (b.d / g1) in
  make n d

let inv a = if a.n = 0 then raise Division_by_zero else make a.d a.n
let div a b = mul a (inv b)
let abs a =
  if a.n = min_int then raise Overflow else { a with n = Stdlib.abs a.n }

let compare a b =
  (* Compare via subtraction sign; exact because [sub] is exact. *)
  match sub a b with { n; _ } -> Stdlib.compare n 0

let equal a b = a.n = b.n && a.d = b.d
let sign a = Stdlib.compare a.n 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor a =
  if a.n >= 0 then a.n / a.d
  else
    let q = a.n / a.d in
    if Stdlib.( = ) (a.n mod a.d) 0 then q else Stdlib.( - ) q 1

let ceil a = Stdlib.( ~- ) (floor (neg a))
let to_float a = float_of_int a.n /. float_of_int a.d

let of_float_approx ?(max_den = 1_000_000) x =
  if Float.is_nan x || Float.is_integer x then of_int (int_of_float x)
  else begin
    (* Stern-Brocot style continued-fraction convergents. *)
    let neg_input = Stdlib.( < ) x 0.0 in
    let x = Float.abs x in
    let rec go x (p0, q0) (p1, q1) depth =
      let a = int_of_float (Float.floor x) in
      let p2 = add_check (mul_check a p1) p0
      and q2 = add_check (mul_check a q1) q0 in
      if q2 > max_den || depth > 40 then (p1, q1)
      else
        let frac = x -. Float.of_int a in
        if Stdlib.( < ) frac 1e-12 then (p2, q2)
        else go (1.0 /. frac) (p1, q1) (p2, q2) (Stdlib.( + ) depth 1)
    in
    let p, q = go x (0, 1) (1, 0) 0 in
    let q = if q = 0 then 1 else q in
    make (if neg_input then Stdlib.( ~- ) p else p) q
  end

let pp fmt a =
  if a.d = 1 then Format.fprintf fmt "%d" a.n
  else Format.fprintf fmt "%d/%d" a.n a.d

let to_string a = Format.asprintf "%a" pp a

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
