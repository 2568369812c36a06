open Dsp_core

type state = { inst : Instance.t; profile : Profile.t; starts : int array }

(* Per-probe counters: a probe is one placement attempt (successful or
   not), the unit the engine's reports aggregate. *)
let c_first_fit = Dsp_util.Instr.counter Dsp_util.Instr.Sites.budget_fit_first_fit_probes
let c_best_fit = Dsp_util.Instr.counter Dsp_util.Instr.Sites.budget_fit_best_fit_probes

let create (inst : Instance.t) =
  {
    inst;
    profile = Profile.create inst.Instance.width;
    starts = Array.make (Instance.n_items inst) (-1);
  }

let profile t = t.profile
let peak t = Profile.peak t.profile

let place t (it : Item.t) ~start =
  if t.starts.(it.id) >= 0 then invalid_arg "Budget_fit.place: item already placed";
  Profile.add_item t.profile it ~start;
  t.starts.(it.id) <- start

let unplace t (it : Item.t) =
  let s = t.starts.(it.id) in
  if s < 0 then invalid_arg "Budget_fit.unplace: item not placed";
  Profile.remove_item t.profile it ~start:s;
  t.starts.(it.id) <- -1

let copy t =
  { inst = t.inst; profile = Profile.copy t.profile; starts = Array.copy t.starts }

let start_of t (it : Item.t) = t.starts.(it.id)

let to_packing t =
  Array.iteri
    (fun i s ->
      if s < 0 then
        invalid_arg (Printf.sprintf "Budget_fit.to_packing: item %d unplaced" i))
    t.starts;
  Packing.make t.inst t.starts

let first_fit t (it : Item.t) ~budget =
  Dsp_util.Instr.bump c_first_fit;
  if it.w > t.inst.Instance.width then false
  else
    match Profile.first_fit_start t.profile ~len:it.w ~height:it.h ~budget with
    | Some s ->
        place t it ~start:s;
        true
    | None -> false

let best_fit t (it : Item.t) ~budget =
  Dsp_util.Instr.bump c_best_fit;
  if it.w > t.inst.Instance.width then false
  else
    match Profile.best_start t.profile ~len:it.w with
    | Some (s, p) when p + it.h <= budget ->
        place t it ~start:s;
        true
    | _ -> false

let place_all_best_fit t items ~budget ~order =
  let sorted = List.sort order items in
  List.for_all (fun it -> best_fit t it ~budget) sorted

type free_box = { x : int; len : int; base : int; height : int }

let free_boxes t ~cap =
  let width = t.inst.Instance.width in
  let loads = Profile.to_array t.profile in
  let boxes = ref [] in
  let run_start = ref 0 in
  let flush until =
    if until > !run_start then begin
      let base = loads.(!run_start) in
      if base < cap then
        boxes :=
          { x = !run_start; len = until - !run_start; base; height = cap - base }
          :: !boxes
    end;
    run_start := until
  in
  for x = 1 to width - 1 do
    if loads.(x) <> loads.(!run_start) then flush x
  done;
  flush width;
  List.rev !boxes
