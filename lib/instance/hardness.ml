open Dsp_core
module Rng = Dsp_util.Rng

type three_partition = { k : int; bound : int; numbers : int array }

let make_three_partition ~k ~bound numbers =
  if k < 1 then invalid_arg "Hardness: k must be >= 1";
  if Array.length numbers <> 3 * k then
    invalid_arg "Hardness: need exactly 3k numbers";
  let sum = Array.fold_left ( + ) 0 numbers in
  if sum <> k * bound then
    invalid_arg
      (Printf.sprintf "Hardness: numbers sum to %d, expected %d" sum (k * bound));
  Array.iter
    (fun a ->
      if 4 * a <= bound || 2 * a >= bound then
        invalid_arg
          (Printf.sprintf "Hardness: number %d outside (B/4, B/2) for B=%d" a bound))
    numbers;
  { k; bound; numbers }

let yes_instance rng ~k ~bound =
  if bound < 8 || bound mod 4 <> 0 then
    invalid_arg "Hardness.yes_instance: bound must be >= 8 and divisible by 4";
  let lo = (bound / 4) + 1 and hi = (bound / 2) - 1 in
  let numbers = Array.make (3 * k) 0 in
  for t = 0 to k - 1 do
    (* Draw a1 such that a2 + a3 = bound - a1 stays reachable with
       both inside the window, then a2 likewise. *)
    let a1 = Rng.int_in rng (max lo (bound - (2 * hi))) (min hi (bound - (2 * lo))) in
    let lo2 = max lo (bound - a1 - hi) and hi2 = min hi (bound - a1 - lo) in
    let a2 = Rng.int_in rng lo2 hi2 in
    let a3 = bound - a1 - a2 in
    numbers.((3 * t) + 0) <- a1;
    numbers.((3 * t) + 1) <- a2;
    numbers.((3 * t) + 2) <- a3
  done;
  make_three_partition ~k ~bound numbers

let no_instance ~k =
  if k < 3 || k mod 3 <> 0 then
    invalid_arg "Hardness.no_instance: k must be a positive multiple of 3";
  (* All numbers are 1 (mod 3); every triple sums to 0 (mod 3) while
     the bound 26 is 2 (mod 3), so no triple can hit it.  The counts
     solve 7a + 10b = 26k with a + b = 3k. *)
  let sevens = 4 * k / 3 and tens = 5 * k / 3 in
  let numbers =
    Array.init (3 * k) (fun i -> if i < sevens then 7 else 10)
  in
  ignore tens;
  make_three_partition ~k ~bound:26 numbers

let target_makespan t = (t.k * t.bound) + t.k - 1

let to_pts t =
  let separators = List.init (t.k - 1) (fun _ -> (1, 4)) in
  let blockers = List.init t.k (fun _ -> (t.bound, 3)) in
  let numbers = Array.to_list (Array.map (fun a -> (a, 1)) t.numbers) in
  Pts.Inst.of_dims ~machines:4 (separators @ blockers @ numbers)

let to_dsp t =
  Dsp_transform.Transform.pts_to_dsp_instance (to_pts t)
    ~width:(target_makespan t)

let schedule_of_partition t ~triples =
  if Array.length triples <> t.k then
    invalid_arg "Hardness.schedule_of_partition: need k triples";
  let seen = Array.make (3 * t.k) false in
  Array.iter
    (fun (a, b, c) ->
      List.iter
        (fun i ->
          if i < 0 || i >= 3 * t.k || seen.(i) then
            invalid_arg "Hardness.schedule_of_partition: not a partition";
          seen.(i) <- true)
        [ a; b; c ];
      if t.numbers.(a) + t.numbers.(b) + t.numbers.(c) <> t.bound then
        invalid_arg "Hardness.schedule_of_partition: triple sum mismatch")
    triples;
  let pts = to_pts t in
  let n = Pts.Inst.n_jobs pts in
  let sigma = Array.make n 0 and rho = Array.make n [] in
  let slot_start s = s * (t.bound + 1) in
  (* Separators: job ids 0 .. k-2. *)
  for s = 0 to t.k - 2 do
    sigma.(s) <- slot_start s + t.bound;
    rho.(s) <- [ 0; 1; 2; 3 ]
  done;
  (* Blockers: job ids k-1 .. 2k-2, one per slot on machines 0-2. *)
  for s = 0 to t.k - 1 do
    let id = t.k - 1 + s in
    sigma.(id) <- slot_start s;
    rho.(id) <- [ 0; 1; 2 ]
  done;
  (* Numbers: job ids 2k-1 + i for number index i; triple s runs
     sequentially on machine 3 inside slot s. *)
  Array.iteri
    (fun s (a, b, c) ->
      let offset = ref (slot_start s) in
      List.iter
        (fun i ->
          let id = (2 * t.k) - 1 + i in
          sigma.(id) <- !offset;
          rho.(id) <- [ 3 ];
          offset := !offset + t.numbers.(i))
        [ a; b; c ])
    triples;
  Pts.Schedule.make pts ~sigma ~rho
