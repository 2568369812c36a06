open Dsp_core

type job = { id : int; times : int array }
type t = { machines : int; jobs : job array }

let make ~machines tables =
  if machines < 1 then invalid_arg "Moldable.make: machines must be >= 1";
  let jobs =
    List.mapi
      (fun id times ->
        if Array.length times <> machines then
          invalid_arg "Moldable.make: table length must equal machine count";
        Array.iteri
          (fun q p ->
            if p < 1 then invalid_arg "Moldable.make: times must be positive";
            if q > 0 && p > times.(q - 1) then
              invalid_arg "Moldable.make: times must be non-increasing in q")
          times;
        { id; times })
      tables
    |> Array.of_list
  in
  { machines; jobs }

let make_work_based ~machines ~work =
  make ~machines
    (List.map
       (fun w ->
         if w < 1 then invalid_arg "Moldable.make_work_based: work must be >= 1";
         Array.init machines (fun q -> Dsp_util.Xutil.ceil_div w (q + 1)))
       work)

let allot t allotment =
  if Array.length allotment <> Array.length t.jobs then
    invalid_arg "Moldable.allot: allotment length mismatch";
  let dims =
    Array.to_list
      (Array.mapi
         (fun i q ->
           if q < 1 || q > t.machines then
             invalid_arg "Moldable.allot: machine count out of range";
           (t.jobs.(i).times.(q - 1), q))
         allotment)
  in
  Pts.Inst.of_dims ~machines:t.machines dims

let work_of t allotment =
  Array.to_list
    (Array.mapi (fun i q -> q * t.jobs.(i).times.(q - 1)) allotment)
  |> List.fold_left ( + ) 0

let critical_path t allotment =
  Array.to_list (Array.mapi (fun i q -> t.jobs.(i).times.(q - 1)) allotment)
  |> List.fold_left max 0

let balanced_allotment t =
  let n = Array.length t.jobs in
  let allotment = Array.make n 1 in
  let eval a = Pts.Schedule.makespan (List_scheduling.schedule (allot t a)) in
  let bound a =
    max (Dsp_util.Xutil.ceil_div (work_of t a) t.machines) (critical_path t a)
  in
  let best = ref (Array.copy allotment) and best_mk = ref (eval allotment) in
  (* Widen the critical job while the lower-bound proxy does not
     increase, keeping the allotment whose actual list schedule is
     shortest.  Allotments grow monotonically, so at most n*(m-1)
     steps. *)
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let crit = ref (-1) and crit_p = ref (-1) in
    Array.iteri
      (fun i q ->
        let p = t.jobs.(i).times.(q - 1) in
        if p > !crit_p && q < t.machines then begin
          crit_p := p;
          crit := i
        end)
      allotment;
    if !crit >= 0 then begin
      let before = bound allotment in
      allotment.(!crit) <- allotment.(!crit) + 1;
      if bound allotment <= before then begin
        continue_ := true;
        let mk = eval allotment in
        if mk < !best_mk then begin
          best_mk := mk;
          best := Array.copy allotment
        end
      end
      else allotment.(!crit) <- allotment.(!crit) - 1
    end
  done;
  !best

let schedule t =
  let allotment = balanced_allotment t in
  let rigid = allot t allotment in
  (List_scheduling.schedule rigid, allotment)

let makespan t = Pts.Schedule.makespan (fst (schedule t))

let optimal_makespan ?budget t =
  let n = Array.length t.jobs in
  let sched, heuristic = schedule t in
  let best = ref (Pts.Schedule.makespan sched, heuristic) in
  let allotment = Array.make n 1 in
  let rec go i =
    if i = n then begin
      let rigid = allot t allotment in
      Option.iter
        (fun s -> best := (Pts.Schedule.makespan s, Array.copy allotment))
        (Dsp_exact.Optimum.variant ~budget
           ~bound:(Pts.Inst.lower_bound rigid) ~incumbent:(fst !best)
           (fun makespan -> Dsp_exact.Pts_exact.decide ?budget rigid ~makespan))
    end
    else
      for q = 1 to t.machines do
        allotment.(i) <- q;
        go (i + 1)
      done
  in
  go 0;
  !best
