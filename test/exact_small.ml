(* Test oracle: pseudo-polynomial exact PTS for few machines, which
   test_pts.ml holds Pts_exact to.  Du and Leung proved PTS solvable in
   pseudo-polynomial time for m <= 3 and strongly NP-hard from m = 4
   on, the dividing line the paper's Theorem 1 rides on.  Here m = 1
   is the sum of processing times, and m = 2 an exact subset-sum
   dynamic program: jobs with q = 2 are serial blocks, and the q = 1
   jobs split into two machine loads whose imbalance the DP
   minimizes.  [supported] says whether an instance is one of these;
   [optimal_makespan] and [solve] answer [None] otherwise. *)

open Dsp_core

let supported (inst : Pts.Inst.t) = inst.Pts.Inst.machines <= 2

(* m = 2: serial blocks for q = 2 jobs; the q = 1 jobs split into two
   machines, and a subset-sum DP finds the most balanced split of
   their total time [s] — makespan = blocks + (s - best), where best
   is the largest reachable sum <= s/2. *)
let solve_m2 (inst : Pts.Inst.t) =
  let jobs = Array.to_list inst.Pts.Inst.jobs in
  let blocks, singles = List.partition (fun (j : Pts.Job.t) -> j.q = 2) jobs in
  let block_time = Dsp_util.Xutil.sum_by (fun (j : Pts.Job.t) -> j.p) blocks in
  let s = Dsp_util.Xutil.sum_by (fun (j : Pts.Job.t) -> j.p) singles in
  (* reachable.(v) = Some job-id-list achieving load v on machine 0. *)
  let reachable = Array.make (s + 1) None in
  reachable.(0) <- Some [];
  List.iter
    (fun (j : Pts.Job.t) ->
      for v = s - j.p downto 0 do
        match (reachable.(v), reachable.(v + j.p)) with
        | Some ids, None -> reachable.(v + j.p) <- Some (j.id :: ids)
        | _ -> ()
      done)
    singles;
  let rec best v = if v < 0 then 0 else if reachable.(v) <> None then v else best (v - 1) in
  let half = best (s / 2) in
  let on_m0 = match reachable.(half) with Some ids -> ids | None -> assert false in
  let makespan = block_time + (s - half) in
  let n = Pts.Inst.n_jobs inst in
  let sigma = Array.make n 0 and rho = Array.make n [] in
  (* q = 2 blocks first, sequentially on both machines. *)
  let t = ref 0 in
  List.iter
    (fun (j : Pts.Job.t) ->
      sigma.(j.id) <- !t;
      rho.(j.id) <- [ 0; 1 ];
      t := !t + j.p)
    blocks;
  let t0 = ref block_time and t1 = ref block_time in
  List.iter
    (fun (j : Pts.Job.t) ->
      if List.mem j.id on_m0 then begin
        sigma.(j.id) <- !t0;
        rho.(j.id) <- [ 0 ];
        t0 := !t0 + j.p
      end
      else begin
        sigma.(j.id) <- !t1;
        rho.(j.id) <- [ 1 ];
        t1 := !t1 + j.p
      end)
    singles;
  let sched = Pts.Schedule.make inst ~sigma ~rho in
  assert (Pts.Schedule.makespan sched = makespan);
  sched

let solve (inst : Pts.Inst.t) =
  match inst.Pts.Inst.machines with
  | 1 ->
      let n = Pts.Inst.n_jobs inst in
      let sigma = Array.make n 0 and rho = Array.make n [ 0 ] in
      let t = ref 0 in
      Array.iter
        (fun (j : Pts.Job.t) ->
          sigma.(j.id) <- !t;
          t := !t + j.p)
        inst.Pts.Inst.jobs;
      Some (Pts.Schedule.make inst ~sigma ~rho)
  | 2 -> Some (solve_m2 inst)
  | _ -> None

let optimal_makespan inst = Option.map Pts.Schedule.makespan (solve inst)
