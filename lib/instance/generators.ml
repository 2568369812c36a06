open Dsp_core
module Rng = Dsp_util.Rng

let uniform rng ~n ~width ~max_w ~max_h =
  if max_w > width then invalid_arg "Generators.uniform: max_w exceeds width";
  let items =
    Array.init n (fun id ->
        Item.make ~id ~w:(Rng.int_in rng 1 max_w) ~h:(Rng.int_in rng 1 max_h))
  in
  Instance.make ~width items

let correlated rng ~n ~width ~max_w ~max_h =
  if max_w > width then invalid_arg "Generators.correlated: max_w exceeds width";
  let items =
    Array.init n (fun id ->
        (* Draw a common "size" factor, then jitter both dimensions. *)
        let s = Rng.float rng 1.0 in
        let jitter hi =
          let fhi = float_of_int hi in
          let base = 1.0 +. (s *. (fhi -. 1.0)) in
          let j = Rng.float rng (0.3 *. fhi) in
          max 1 (min hi (int_of_float (base +. j -. (0.15 *. fhi))))
        in
        Item.make ~id ~w:(jitter max_w) ~h:(jitter max_h))
  in
  Instance.make ~width items

let tall_and_flat rng ~n ~width ~max_h =
  let items =
    Array.init n (fun id ->
        if Rng.bool rng then
          (* Narrow and tall. *)
          Item.make ~id
            ~w:(Rng.int_in rng 1 (max 1 (width / 8)))
            ~h:(Rng.int_in rng (max 1 (max_h / 2)) max_h)
        else
          (* Wide and flat. *)
          Item.make ~id
            ~w:(Rng.int_in rng (max 1 (width / 4)) (max 1 (width / 2)))
            ~h:(Rng.int_in rng 1 (max 1 (max_h / 4))))
  in
  Instance.make ~width items

let perfect_fit rng ~width ~height ~cuts =
  (* Guillotine-cut the full rectangle. Each cut picks the piece with
     the largest area and splits it on the longer axis at a random
     interior coordinate. *)
  let pieces = ref [ (width, height) ] in
  for _ = 1 to cuts do
    let best =
      List.fold_left
        (fun acc (w, h) ->
          match acc with
          | Some (bw, bh) when bw * bh >= w * h -> acc
          | _ -> Some (w, h))
        None !pieces
    in
    match best with
    | None -> ()
    | Some (w, h) ->
        let rest = ref !pieces in
        (* Remove one occurrence of the chosen piece. *)
        let removed = ref false in
        rest :=
          List.filter
            (fun p ->
              if (not !removed) && p = (w, h) then begin
                removed := true;
                false
              end
              else true)
            !rest;
        let split_w = w >= h in
        if (split_w && w >= 2) || ((not split_w) && h >= 2) then
          if split_w then begin
            let c = Rng.int_in rng 1 (w - 1) in
            rest := (c, h) :: (w - c, h) :: !rest
          end
          else begin
            let c = Rng.int_in rng 1 (h - 1) in
            rest := (w, c) :: (w, h - c) :: !rest
          end
        else rest := (w, h) :: !rest;
        pieces := !rest
  done;
  Instance.of_dims ~width !pieces

let uniform_pts rng ~n ~machines ~max_p =
  let jobs =
    Array.init n (fun id ->
        Pts.Job.make ~id ~p:(Rng.int_in rng 1 max_p) ~q:(Rng.int_in rng 1 machines))
  in
  Pts.Inst.make ~machines jobs
