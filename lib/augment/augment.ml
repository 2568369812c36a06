open Dsp_core
module Transform = Dsp_transform.Transform

type dsp_result = {
  packing : Packing.t;
  height : int;
  width_used : int;
  width_factor : float;
}

let dsp_with_width_augmentation ?inner (inst : Instance.t) =
  let inner =
    match inner with
    | Some f -> f
    | None -> Dsp_pts.List_scheduling.schedule ~order:Dsp_pts.List_scheduling.Work_first
  in
  let width = inst.Instance.width in
  (* Reject a height guess H only when the inner scheduler exceeds
     twice the strip width: list scheduling is a 2-approximation, so
     a schedule longer than 2W proves no width-W packing of height H
     exists. *)
  let acceptance = 2 * width in
  let lo = Instance.max_height inst in
  let hi = max lo (Dsp_sp.Shelf.nfdh_height_bound inst) in
  let best = ref None in
  let ok h =
    let dual = Transform.dsp_to_pts_instance inst ~machines:h in
    let sched = inner dual in
    let t = Pts.Schedule.makespan sched in
    if t <= acceptance then begin
      (match !best with
      | Some (_, bh, bt) when (bh, bt) <= (h, t) -> ()
      | _ -> best := Some (sched, h, t));
      true
    end
    else false
  in
  match Dsp_util.Xutil.binary_search_min lo hi ok with
  | None ->
      (* Unreachable in practice: NFDH height admits a trivial
         schedule.  Fall back to the NFDH packing itself. *)
      let pk = Rect_packing.to_dsp (Dsp_sp.Shelf.nfdh inst) in
      {
        packing = pk;
        height = Packing.height pk;
        width_used = width;
        width_factor = 1.0;
      }
  | Some _ ->
      let sched, h, t = Option.get !best in
      (* The schedule on h machines, read as a packing in a strip of
         width max(W, t). *)
      let aug_width = max width t in
      let aug_inst =
        Instance.make ~width:aug_width (Array.copy inst.Instance.items)
      in
      let pk = Packing.make aug_inst sched.Pts.Schedule.sigma in
      assert (Packing.height pk <= h);
      {
        packing = pk;
        height = Packing.height pk;
        width_used = aug_width;
        width_factor = float_of_int aug_width /. float_of_int width;
      }

type pts_result = {
  schedule : Pts.Schedule.t;
  makespan : int;
  machines_used : int;
  machine_factor : float;
}

(* Corollaries 3 and 4: binary-search the makespan T; for each guess,
   transform to DSP with strip width T and run [solver]; the packing
   height becomes the number of machines used, accepted within
   [factor_num/factor_den] of m. *)
let pts_with_machine_augmentation ~solver ~factor_num ~factor_den
    (inst : Pts.Inst.t) =
  let m = inst.Pts.Inst.machines in
  let acceptance = factor_num * m / factor_den in
  let lo = Pts.Inst.max_time inst in
  let hi =
    Array.fold_left (fun acc (j : Pts.Job.t) -> acc + j.p) 0 inst.Pts.Inst.jobs
  in
  let best = ref None in
  let ok t =
    let dual = Transform.pts_to_dsp_instance inst ~width:t in
    let pk = solver dual in
    let h = Packing.height pk in
    if h <= acceptance then begin
      (match !best with
      | Some (_, bt, bh) when (bt, bh) <= (t, h) -> ()
      | _ -> best := Some (pk, t, h));
      true
    end
    else false
  in
  match Dsp_util.Xutil.binary_search_min lo hi ok with
  | None ->
      (* Unreachable in practice: at the sequential horizon every job
         can run alone.  Schedule sequentially as a last resort. *)
      let n = Pts.Inst.n_jobs inst in
      let sigma = Array.make n 0 and rho = Array.make n [] in
      let time = ref 0 in
      Array.iter
        (fun (j : Pts.Job.t) ->
          sigma.(j.id) <- !time;
          rho.(j.id) <- List.init j.q Fun.id;
          time := !time + j.p)
        inst.Pts.Inst.jobs;
      let sched = Pts.Schedule.make inst ~sigma ~rho in
      {
        schedule = sched;
        makespan = Pts.Schedule.makespan sched;
        machines_used = m;
        machine_factor = 1.0;
      }
  | Some _ ->
      let pk, t, h = Option.get !best in
      let machines_used = max m h in
      let aug_inst =
        Pts.Inst.make ~machines:machines_used (Array.copy inst.Pts.Inst.jobs)
      in
      (match Transform.packing_to_schedule pk ~machines:machines_used with
      | Error msg -> invalid_arg ("Augment.pts_with_machine_augmentation: " ^ msg)
      | Ok (sched, _) ->
          let sched =
            Pts.Schedule.make aug_inst ~sigma:sched.Pts.Schedule.sigma
              ~rho:sched.Pts.Schedule.rho
          in
          assert (Pts.Schedule.makespan sched <= t);
          {
            schedule = sched;
            makespan = Pts.Schedule.makespan sched;
            machines_used;
            machine_factor = float_of_int machines_used /. float_of_int m;
          })

let pts_53 inst =
  pts_with_machine_augmentation ~solver:Dsp_algo.Approx53.solve ~factor_num:5
    ~factor_den:3 inst

let pts_54 inst =
  pts_with_machine_augmentation
    ~solver:(fun i -> Dsp_algo.Approx54.solve i)
    ~factor_num:5 ~factor_den:4 inst
