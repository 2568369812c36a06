open Dsp_core

(* One decision round at guess [target]. *)
let attempt (inst : Instance.t) ~target =
  if target < Instance.lower_bound inst then None
  else begin
    let budget = 5 * target / 3 in
    let st = Budget_fit.create inst in
    let tall, rest =
      List.partition
        (fun (it : Item.t) -> 2 * it.Item.h > target)
        (Array.to_list inst.Instance.items)
    in
    let tall_width = Dsp_util.Xutil.sum_by (fun (it : Item.t) -> it.Item.w) tall in
    if tall_width > inst.Instance.width then None
    else begin
      (* Tall items side by side on the floor, tallest first. *)
      let x = ref 0 in
      List.iter
        (fun (it : Item.t) ->
          Budget_fit.place st it ~start:!x;
          x := !x + it.Item.w)
        (List.sort Item.compare_by_height_desc tall);
      if
        Budget_fit.place_all_best_fit st rest ~budget
          ~order:Item.compare_by_height_desc
      then Some (Budget_fit.to_packing st)
      else None
    end
  end

let solve (inst : Instance.t) =
  if Instance.n_items inst = 0 then Packing.make inst [||]
  else begin
    let lb = Instance.lower_bound inst in
    let ub = Rect_packing.height (Dsp_sp.Steinberg.pack inst) in
    let best = ref None in
    let ok t =
      match attempt inst ~target:t with
      | Some pk ->
          best := Some pk;
          true
      | None -> false
    in
    match Dsp_util.Xutil.binary_search_min lb ub ok with
    | Some _ -> Option.get !best
    | None ->
        (* Even the Steinberg height failed as a guess (possible:
           the greedy stages are not monotone); fall back to the
           Steinberg packing itself. *)
        Baselines.steinberg2 inst
  end
