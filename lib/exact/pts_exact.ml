open Dsp_core

let dual (inst : Pts.Inst.t) ~makespan =
  Dsp_transform.Transform.pts_to_dsp_instance inst ~width:makespan

let decide ?budget (inst : Pts.Inst.t) ~makespan =
  Dsp_util.Budget.poll_opt budget;
  if makespan < Pts.Inst.max_time inst then None
  else
    let machines = inst.Pts.Inst.machines in
    Option.map
      (fun pk ->
        match Dsp_transform.Transform.packing_to_schedule pk ~machines with
        | Ok (sched, _) ->
            (* Rebuild on the original instance: the dual round trip
               preserves job ids, so sigma/rho carry over directly. *)
            Pts.Schedule.make inst ~sigma:sched.Pts.Schedule.sigma
              ~rho:sched.Pts.Schedule.rho
        | Error e -> invalid_arg ("Pts_exact.decide: " ^ e))
      (Dsp_bb.decide ?budget (dual inst ~makespan) ~height:machines)

let solve ?budget (inst : Pts.Inst.t) =
  if Pts.Inst.n_jobs inst = 0 then Pts.Schedule.make inst ~sigma:[||] ~rho:[||]
  else
    (* Running the jobs one after another fits in their total time. *)
    let total =
      Array.fold_left (fun acc (j : Pts.Job.t) -> acc + j.p) 0 inst.Pts.Inst.jobs
    in
    Option.get
      (Optimum.below ~lo:(Pts.Inst.lower_bound inst) ~hi:total (fun makespan ->
           decide ?budget inst ~makespan))

let optimal_makespan ?budget inst = Pts.Schedule.makespan (solve ?budget inst)
