type t = { packing : Packing.t; ys : int array array }

let error (pk : Packing.t) ys =
  let inst = Packing.instance pk in
  let n = Instance.n_items inst in
  if Array.length ys <> n then Some "ys length mismatch"
  else begin
    let err = ref None in
    let set e = if !err = None then err := Some e in
    for i = 0 to n - 1 do
      let it = Instance.item inst i in
      if Array.length ys.(i) <> it.Item.w then
        set (Printf.sprintf "item %d has %d slice rows for width %d" i
               (Array.length ys.(i)) it.Item.w);
      Array.iter (fun y -> if y < 0 then set (Printf.sprintf "item %d below floor" i)) ys.(i)
    done;
    if !err = None then begin
      (* Per-column overlap check via interval sorting. *)
      let width = inst.Instance.width in
      let columns = Array.make width [] in
      for i = 0 to n - 1 do
        let it = Instance.item inst i in
        let s = Packing.start pk i in
        for dx = 0 to it.Item.w - 1 do
          columns.(s + dx) <- (ys.(i).(dx), ys.(i).(dx) + it.Item.h, i) :: columns.(s + dx)
        done
      done;
      Array.iteri
        (fun x intervals ->
          let sorted = List.sort compare intervals in
          let rec sweep = function
            | (_, hi1, i1) :: ((lo2, _, i2) :: _ as rest) ->
                if hi1 > lo2 then
                  set
                    (Printf.sprintf "items %d and %d overlap in column %d" i1 i2 x)
                else sweep rest
            | [ _ ] | [] -> ()
          in
          sweep sorted)
        columns
    end;
    !err
  end

let make pk ys =
  match error pk ys with
  | Some msg -> invalid_arg ("Slice_layout.make: " ^ msg)
  | None -> { packing = pk; ys = Array.map Array.copy ys }

let stacked (pk : Packing.t) =
  let inst = Packing.instance pk in
  let n = Instance.n_items inst in
  let width = inst.Instance.width in
  let ys = Array.init n (fun i -> Array.make (Instance.item inst i).Item.w 0) in
  (* Cumulative load per column, filled in id order. *)
  let top = Array.make width 0 in
  for i = 0 to n - 1 do
    let it = Instance.item inst i in
    let s = Packing.start pk i in
    for dx = 0 to it.Item.w - 1 do
      ys.(i).(dx) <- top.(s + dx);
      top.(s + dx) <- top.(s + dx) + it.Item.h
    done
  done;
  { packing = pk; ys }

let height t =
  let inst = Packing.instance t.packing in
  let m = ref 0 in
  Array.iteri
    (fun i row ->
      let h = (Instance.item inst i).Item.h in
      Array.iter (fun y -> if y + h > !m then m := y + h) row)
    t.ys;
  !m

let slice_points t =
  Array.fold_left
    (fun acc row ->
      let cuts = ref 0 in
      for dx = 1 to Array.length row - 1 do
        if row.(dx) <> row.(dx - 1) then incr cuts
      done;
      acc + !cuts)
    0 t.ys

let validate t =
  match error t.packing t.ys with Some msg -> Error msg | None -> Ok ()

let render t =
  let inst = Packing.instance t.packing in
  let width = inst.Instance.width in
  let h = max 1 (height t) in
  let grid = Array.make_matrix h width '.' in
  Array.iteri
    (fun i row ->
      let it = Instance.item inst i in
      let s = Packing.start t.packing i in
      let c = Char.chr (Char.code 'A' + (i mod 26)) in
      Array.iteri
        (fun dx y ->
          for dy = 0 to it.Item.h - 1 do
            grid.(y + dy).(s + dx) <- c
          done)
        row)
    t.ys;
  let buf = Buffer.create ((width + 1) * h) in
  for r = h - 1 downto 0 do
    Buffer.add_string buf (String.init width (fun x -> grid.(r).(x)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (String.make width '-');
  Buffer.contents buf
