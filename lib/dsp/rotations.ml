open Dsp_core

type orientation = Fixed | Rotated

let dims (it : Item.t) = function
  | Fixed -> (it.Item.w, it.Item.h)
  | Rotated -> (it.Item.h, it.Item.w)

let admissible (inst : Instance.t) it o = fst (dims it o) <= inst.Instance.width

let apply (inst : Instance.t) orientations =
  if Array.length orientations <> Instance.n_items inst then
    invalid_arg "Rotations.apply: orientation array length mismatch";
  let items =
    Array.mapi
      (fun i o ->
        let it = Instance.item inst i in
        if not (admissible inst it o) then
          invalid_arg "Rotations.apply: inadmissible orientation";
        let w, h = dims it o in
        Item.make ~id:i ~w ~h)
      orientations
  in
  Instance.make ~width:inst.Instance.width items

let best_fit_rotating (inst : Instance.t) =
  let width = inst.Instance.width in
  let n = Instance.n_items inst in
  let orientations = Array.make n Fixed in
  let starts = Array.make n 0 in
  let profile = Profile.create width in
  let order =
    Array.to_list inst.Instance.items
    |> List.sort (fun (a : Item.t) (b : Item.t) ->
           compare (max b.Item.w b.Item.h) (max a.Item.w a.Item.h))
  in
  List.iter
    (fun (it : Item.t) ->
      (* Best (resulting peak, start) over both admissible orientations
         (an inadmissible one has no start); ties prefer the flatter. *)
      let candidates =
        List.filter_map
          (fun o ->
            let w, h = dims it o in
            Option.map
              (fun (s, peak) -> (peak + h, h, o, s))
              (Profile.best_start profile ~len:w))
          [ Fixed; Rotated ]
      in
      match List.sort compare candidates with
      | (_, _, o, s) :: _ ->
          orientations.(it.Item.id) <- o;
          starts.(it.Item.id) <- s;
          let w, h = dims it o in
          Profile.add profile ~start:s ~len:w ~height:h
      | [] -> assert false (* Fixed is always admissible *))
    order;
  let oriented = apply inst orientations in
  (Packing.make oriented starts, orientations)

let optimal_height ?budget (inst : Instance.t) =
  let n = Instance.n_items inst in
  (* Items whose two orientations genuinely differ and are both
     admissible. *)
  let rotatable =
    List.filter
      (fun i ->
        let it = Instance.item inst i in
        it.Item.w <> it.Item.h && admissible inst it Rotated)
      (List.init n Fun.id)
  in
  let greedy, greedy_orientations = best_fit_rotating inst in
  let best = ref (Packing.height greedy, greedy_orientations) in
  let orientations = Array.make n Fixed in
  (* Rotating keeps every item's area, so no orientation packs below
     the area bound: once the incumbent reaches it, stop. *)
  let area_bound = Instance.area_lower_bound inst in
  let rec go = function
    | _ when fst !best <= area_bound -> ()
    | [] ->
        let oriented = apply inst orientations in
        Option.iter
          (fun pk -> best := (Packing.height pk, Array.copy orientations))
          (Dsp_exact.Optimum.variant ~budget
             ~bound:(Instance.lower_bound oriented) ~incumbent:(fst !best)
             (fun height -> Dsp_exact.Dsp_bb.decide ?budget oriented ~height))
    | i :: rest ->
        orientations.(i) <- Fixed;
        go rest;
        orientations.(i) <- Rotated;
        go rest;
        orientations.(i) <- Fixed
  in
  go rotatable;
  !best

let rotation_gain ?budget (inst : Instance.t) =
  let rotated, _ = optimal_height ?budget inst in
  (Dsp_exact.Dsp_bb.optimal_height ?budget inst, rotated)
