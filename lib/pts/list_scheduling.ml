open Dsp_core

type order = Input | Longest_first | Widest_first | Work_first

let comparator = function
  | Input -> fun (a : Pts.Job.t) (b : Pts.Job.t) -> compare a.id b.id
  | Longest_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare b.p a.p with 0 -> compare a.id b.id | c -> c)
  | Widest_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare b.q a.q with 0 -> compare a.id b.id | c -> c)
  | Work_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare (Pts.Job.work b) (Pts.Job.work a) with
        | 0 -> compare a.id b.id
        | c -> c)

let schedule ?(order = Work_first) (inst : Pts.Inst.t) =
  let m = inst.Pts.Inst.machines in
  let n = Pts.Inst.n_jobs inst in
  if n = 0 then Pts.Schedule.make inst ~sigma:[||] ~rho:[||]
  else begin
    (* The sequential horizon always admits a first-fit slot. *)
    let horizon =
      Array.fold_left (fun acc (j : Pts.Job.t) -> acc + j.p) 1 inst.Pts.Inst.jobs
    in
    let profile = Segtree.create horizon in
    let sigma = Array.make n 0 in
    let jobs = Array.to_list inst.Pts.Inst.jobs |> List.sort (comparator order) in
    List.iter
      (fun (j : Pts.Job.t) ->
        match
          Segtree.first_fit_from profile ~from:0 ~len:j.p ~height:j.q ~limit:m
        with
        | Some t ->
            sigma.(j.id) <- t;
            Segtree.range_add profile ~lo:t ~hi:(t + j.p) j.q
        | None -> assert false (* the horizon bound guarantees a slot *))
      jobs;
    (* Recover machine sets via the Figure 3 sweep on the dual
       packing. *)
    let finish = ref 1 in
    Array.iteri
      (fun i s ->
        let j = Pts.Inst.job inst i in
        if s + j.Pts.Job.p > !finish then finish := s + j.Pts.Job.p)
      sigma;
    let dual = Dsp_transform.Transform.pts_to_dsp_instance inst ~width:!finish in
    let pk = Packing.make dual sigma in
    match Dsp_transform.Transform.packing_to_schedule pk ~machines:m with
    | Ok (sched, _) ->
        Pts.Schedule.make inst ~sigma:sched.Pts.Schedule.sigma
          ~rho:sched.Pts.Schedule.rho
    | Error msg -> invalid_arg ("List_scheduling.schedule: " ^ msg)
  end
