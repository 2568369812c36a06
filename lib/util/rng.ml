type t = { mutable state : int64 }

(* SplitMix64 constants (Steele, Lea & Flood 2014). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let create seed = { state = mix (Int64.of_int seed) }
let split t = { state = mix (next_int64 t) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 1) land max_int in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
