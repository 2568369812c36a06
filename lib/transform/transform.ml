open Dsp_core

type stats = { events : int; repairs : int }

(* Both directions go through [of_dims], whose arrays are seeded with
   a static placeholder: an [Array.map] over the items or jobs would
   force a minor collection on every instance of more than 256. *)
let dsp_to_pts_instance (inst : Instance.t) ~machines =
  Pts.Inst.of_dims ~machines
    (Array.fold_right
       (fun (it : Item.t) acc -> (it.Item.w, it.Item.h) :: acc)
       inst.Instance.items [])

let pts_to_dsp_instance (inst : Pts.Inst.t) ~width =
  Instance.of_dims ~width
    (Array.fold_right
       (fun (j : Pts.Job.t) acc -> (j.Pts.Job.p, j.Pts.Job.q) :: acc)
       inst.Pts.Inst.jobs [])

let schedule_to_packing (sched : Pts.Schedule.t) =
  let inst =
    pts_to_dsp_instance sched.Pts.Schedule.inst
      ~width:(max 1 (Pts.Schedule.makespan sched))
  in
  Packing.make inst sched.Pts.Schedule.sigma

(* Contiguity of a sorted machine list. *)
let rec contiguous = function
  | a :: (b :: _ as rest) -> b = a + 1 && contiguous rest
  | [ _ ] | [] -> true

let schedule_to_layout (sched : Pts.Schedule.t) =
  let pk = schedule_to_packing sched in
  let inst = Packing.instance pk in
  let n = Instance.n_items inst in
  let width = inst.Instance.width in
  let machines = sched.Pts.Schedule.inst.Pts.Inst.machines in
  let ys = Array.init n (fun i -> Array.make (Instance.item inst i).Item.w 0) in
  let sigma = sched.Pts.Schedule.sigma and rho = sched.Pts.Schedule.rho in
  let finish i = sigma.(i) + (Instance.item inst i).Item.w in
  (* Events: distinct start times, ascending. *)
  let events = Array.to_list sigma |> List.sort_uniq compare in
  let current_y = Array.make n (-1) in
  let repairs = ref 0 in
  let set_range i t until y =
    (* Fill only up to the item's own finish: the next event may lie
       beyond it. *)
    for x = t to min until (finish i) - 1 do
      ys.(i).(x - sigma.(i)) <- y
    done;
    current_y.(i) <- y
  in
  let next_event_after t =
    List.fold_left (fun acc e -> if e > t && e < acc then e else acc) width events
  in
  List.iter
    (fun t ->
      let until = next_event_after t in
      let actives =
        List.filter (fun i -> sigma.(i) <= t && t < finish i) (List.init n Fun.id)
      in
      let old_items = List.filter (fun i -> sigma.(i) < t) actives in
      let new_items = List.filter (fun i -> sigma.(i) = t) actives in
      (* Occupied intervals of items we keep in place. *)
      let occupied =
        List.map
          (fun i -> (current_y.(i), current_y.(i) + (Instance.item inst i).Item.h))
          old_items
        |> List.sort compare
      in
      (* Lowest contiguous free gap of size [h] below [machines]. *)
      let find_gap occupied h =
        let rec go y = function
          | [] -> if y + h <= machines then Some y else None
          | (lo, hi) :: rest ->
              if y + h <= lo then Some y else go (max y hi) rest
        in
        go 0 occupied
      in
      (* First try to keep old items fixed, inserting each new item at
         its machine position when contiguous and free, otherwise into
         the lowest fitting gap. *)
      let try_incremental () =
        let occ = ref occupied in
        let placements =
          List.map
            (fun i ->
              let ms = rho.(i) in
              let h = (Instance.item inst i).Item.h in
              let desired =
                match ms with
                | m0 :: _ when contiguous ms -> Some m0
                | _ -> None
              in
              let fits y =
                y + h <= machines
                && List.for_all (fun (lo, hi) -> y + h <= lo || hi <= y) !occ
              in
              let y =
                match desired with
                | Some y when fits y -> Some y
                | _ -> find_gap !occ h
              in
              match y with
              | Some y ->
                  occ := List.sort compare ((y, y + h) :: !occ);
                  Some (i, y)
              | None -> None)
            new_items
        in
        if List.for_all Option.is_some placements then
          Some (List.map Option.get placements)
        else None
      in
      match try_incremental () with
      | Some placements ->
          List.iter (fun i -> set_range i t until current_y.(i)) old_items;
          List.iter (fun (i, y) -> set_range i t until y) placements
      | None ->
          (* The paper's repair: sort all active items ascending by
             height and stack them from the bottom. *)
          incr repairs;
          let sorted =
            List.sort
              (fun a b ->
                compare (Instance.item inst a).Item.h (Instance.item inst b).Item.h)
              actives
          in
          let y = ref 0 in
          List.iter
            (fun i ->
              set_range i t until !y;
              y := !y + (Instance.item inst i).Item.h)
            sorted)
    events;
  let layout = Slice_layout.make pk ys in
  (layout, { events = List.length events; repairs = !repairs })

let packing_to_schedule (pk : Packing.t) ~machines =
  let inst = Packing.instance pk in
  let peak = Packing.height pk in
  if peak > machines then
    Error
      (Printf.sprintf "packing height %d exceeds machine count %d" peak machines)
  else begin
    let n = Instance.n_items inst in
    let pts = dsp_to_pts_instance inst ~machines in
    let sigma = Packing.starts pk in
    let rho = Array.make n [] in
    let busy_until = Array.make machines 0 in
    (* Jobs in order of start time; ties by id for determinism. *)
    let order =
      List.init n Fun.id
      |> List.sort (fun a b ->
             match compare sigma.(a) sigma.(b) with 0 -> compare a b | c -> c)
    in
    let events = ref 0 and last_event = ref min_int in
    List.iter
      (fun i ->
        let t = sigma.(i) in
        if t <> !last_event then begin
          incr events;
          last_event := t
        end;
        let q = (Instance.item inst i).Item.h in
        let free = ref [] in
        for m = machines - 1 downto 0 do
          if busy_until.(m) <= t then free := m :: !free
        done;
        let chosen = Dsp_util.Xutil.take q !free in
        assert (List.length chosen = q);
        List.iter
          (fun m -> busy_until.(m) <- t + (Instance.item inst i).Item.w)
          chosen;
        rho.(i) <- chosen)
      order;
    let sched = Pts.Schedule.make pts ~sigma ~rho in
    Ok (sched, { events = !events; repairs = 0 })
  end

let roundtrip_schedule sched =
  let pk = schedule_to_packing sched in
  let machines = sched.Pts.Schedule.inst.Pts.Inst.machines in
  match packing_to_schedule pk ~machines with
  | Ok (s, _) -> Ok s
  | Error e -> Error e
