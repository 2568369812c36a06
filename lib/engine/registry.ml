open Dsp_core

let ignore_budget f ~budget inst =
  let _ = budget in
  f inst

(* The Theorem 1 duality put to work as a solver: items become PTS
   jobs (p = w, q = h), a machine count m is guessed, and Garey–Graham
   list scheduling is asked for a schedule with makespan <= W; job
   start times are exactly item start columns, and the peak is at most
   m.  The smallest workable m is found by binary search (feasibility
   of the heuristic is not strictly monotone in m, so the best packing
   seen is kept, as in first-fit doubling). *)
let pts_duality (inst : Instance.t) =
  if Instance.n_items inst = 0 then Packing.make inst [||]
  else begin
    let width = inst.Instance.width in
    let lb = max 1 (Instance.lower_bound inst) in
    let ub =
      Array.fold_left
        (fun acc (it : Item.t) -> acc + it.Item.h)
        0 inst.Instance.items
    in
    let best = ref None in
    let ok m =
      let pts = Dsp_transform.Transform.dsp_to_pts_instance inst ~machines:m in
      let sched =
        Dsp_pts.List_scheduling.schedule
          ~order:Dsp_pts.List_scheduling.Longest_first pts
      in
      if Pts.Schedule.makespan sched <= width then begin
        let pk = Packing.make inst (Array.copy sched.Pts.Schedule.sigma) in
        (match !best with
        | Some b when Packing.height b <= Packing.height pk -> ()
        | _ -> best := Some pk);
        true
      end
      else false
    in
    (* ok (sum of heights) always holds: with m = Σh every job can
       start at time 0, so the makespan is max w <= W. *)
    ignore (Dsp_util.Xutil.binary_search_min lb (max lb ub) ok);
    Option.get !best
  end

(* Fanned out across Pool.default_jobs domains; the budget's node cap
   is shared across the workers, so k domains never multiply it by k. *)
let exact_bb_par ~budget inst =
  Dsp_exact.Dsp_bb.solve_par ~budget ~jobs:(Dsp_util.Pool.default_jobs ()) inst

(* The table.  Order is display order; it is immutable, so worker
   domains (Runner.race, the pooled compare path) read it freely. *)
let solvers : Solver.t list =
  [
    {
      Solver.name = "bfd-height";
      family = Baseline;
      complexity = Poly;
      doc = "best-fit decreasing by item height";
      solve =
        ignore_budget
          (Dsp_algo.Baselines.best_fit_decreasing
             ~order:Dsp_algo.Baselines.By_height);
    };
    {
      Solver.name = "bfd-area";
      family = Baseline;
      complexity = Poly;
      doc = "best-fit decreasing by item area";
      solve =
        ignore_budget
          (Dsp_algo.Baselines.best_fit_decreasing
             ~order:Dsp_algo.Baselines.By_area);
    };
    {
      Solver.name = "lpt-width";
      family = Baseline;
      complexity = Poly;
      doc = "widest-first best fit (LPT translated to DSP)";
      solve = ignore_budget Dsp_algo.Baselines.lpt;
    };
    {
      Solver.name = "ff-doubling";
      family = Baseline;
      complexity = Poly;
      doc = "budgeted first fit, doubling then binary-searching the budget";
      solve = ignore_budget Dsp_algo.Baselines.first_fit_doubling;
    };
    {
      Solver.name = "steinberg2";
      family = Baseline;
      complexity = Poly;
      doc = "Steinberg's classical packing read as DSP (the 2*OPT bound)";
      solve = ignore_budget Dsp_algo.Baselines.steinberg2;
    };
    {
      Solver.name = "pts-duality";
      family = Pts;
      complexity = Poly;
      doc = "list scheduling through the Theorem 1 PTS duality";
      solve = ignore_budget pts_duality;
    };
    {
      Solver.name = "approx53";
      family = Approx;
      complexity = Poly;
      doc = "the (5/3)-style structured polynomial algorithm";
      solve = ignore_budget Dsp_algo.Approx53.solve;
    };
    {
      Solver.name = "approx54";
      family = Approx;
      complexity = Pseudo_poly;
      doc = "the (5/4+eps) pseudo-polynomial algorithm (Theorem 5)";
      (* Deadline-only: the binary search polls the budget but has
         no node semantics, so the node cap is ignored. *)
      solve = (fun ~budget inst -> Dsp_algo.Approx54.solve ~budget inst);
    };
    {
      Solver.name = "exact-bb";
      family = Exact;
      complexity = Exponential;
      doc = "exact branch and bound (true OPT; node-budgeted)";
      solve = (fun ~budget inst -> Dsp_exact.Dsp_bb.solve ~budget inst);
    };
    {
      Solver.name = "exact-bb-par";
      family = Exact;
      complexity = Exponential;
      doc = "parallel exact B&B (work-stealing, shared incumbent; --jobs domains)";
      solve = exact_bb_par;
    };
  ]

let all () = solvers

let find name =
  List.find_opt (fun (s : Solver.t) -> s.Solver.name = name) solvers

let find_exn name =
  match find name with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find_exn: unknown solver %S (known: %s)" name
           (String.concat ", "
              (List.map (fun (s : Solver.t) -> s.Solver.name) solvers)))

let names () = List.map (fun (s : Solver.t) -> s.Solver.name) solvers

let heuristics () =
  List.filter (fun (s : Solver.t) -> s.Solver.complexity <> Solver.Exponential) solvers
