module Job = struct
  type t = { id : int; p : int; q : int }

  let make ~id ~p ~q =
    if p < 1 then invalid_arg "Job.make: processing time must be >= 1";
    if q < 1 then invalid_arg "Job.make: machine requirement must be >= 1";
    { id; p; q }

  let work t = t.p * t.q
  let equal a b = a.id = b.id && a.p = b.p && a.q = b.q
  let pp fmt t = Format.fprintf fmt "job#%d(p=%d,q=%d)" t.id t.p t.q
end

module Inst = struct
  type t = { machines : int; jobs : Job.t array }

  (* A static seed for [of_dims], as [Instance.placeholder]: an array
     of more than 256 words seeded with a fresh job costs a minor
     collection. *)
  let placeholder = { Job.id = 0; p = 1; q = 1 }

  (* Checks [jobs], an array no caller holds, and re-ids its jobs to
     their positions in place. *)
  let own ~machines jobs =
    if machines < 1 then invalid_arg "Pts.Inst.make: machines must be >= 1";
    Array.iter
      (fun (j : Job.t) ->
        if j.q > machines then
          invalid_arg
            (Printf.sprintf "Pts.Inst.make: job needs %d of %d machines" j.q
               machines))
      jobs;
    Array.iteri
      (fun i (j : Job.t) -> if j.Job.id <> i then jobs.(i) <- { j with Job.id = i })
      jobs;
    { machines; jobs }

  let make ~machines jobs = own ~machines (Array.copy jobs)

  let of_dims ~machines dims =
    let jobs = Array.make (List.length dims) placeholder in
    List.iteri (fun i (p, q) -> jobs.(i) <- Job.make ~id:i ~p ~q) dims;
    own ~machines jobs

  let n_jobs t = Array.length t.jobs
  let job t i = t.jobs.(i)
  let total_work t = Array.fold_left (fun acc j -> acc + Job.work j) 0 t.jobs
  let work_lower_bound t = Dsp_util.Xutil.ceil_div (total_work t) t.machines
  let max_time t = Array.fold_left (fun acc (j : Job.t) -> max acc j.p) 0 t.jobs

  let stacking_bound t =
    Array.fold_left
      (fun acc (j : Job.t) -> if 2 * j.q > t.machines then acc + j.p else acc)
      0 t.jobs

  let lower_bound t = max (work_lower_bound t) (max (max_time t) (stacking_bound t))

  let pp fmt t =
    Format.fprintf fmt "@[<v>pts: m=%d jobs=%d work=%d@,%a@]" t.machines
      (n_jobs t) (total_work t)
      (Format.pp_print_seq ~pp_sep:Format.pp_print_space Job.pp)
      (Array.to_seq t.jobs)
end

module Schedule = struct
  type t = { inst : Inst.t; sigma : int array; rho : int list array }

  let error (inst : Inst.t) ~sigma ~rho =
    let n = Inst.n_jobs inst and m = inst.Inst.machines in
    if Array.length sigma <> n then Some "sigma length mismatch"
    else if Array.length rho <> n then Some "rho length mismatch"
    else begin
      let err = ref None in
      let set e = if !err = None then err := Some e in
      for i = 0 to n - 1 do
        let j = Inst.job inst i in
        if sigma.(i) < 0 then set (Printf.sprintf "job %d starts before 0" i);
        let ms = List.sort_uniq compare rho.(i) in
        if List.length ms <> j.Job.q then
          set
            (Printf.sprintf "job %d assigned %d distinct machines, needs %d" i
               (List.length ms) j.Job.q);
        List.iter
          (fun k -> if k < 0 || k >= m then set (Printf.sprintf "job %d uses machine %d out of range" i k))
          rho.(i)
      done;
      (* Machine conflicts: sweep each machine's jobs sorted by start. *)
      if !err = None then begin
        let per_machine = Array.make m [] in
        for i = 0 to n - 1 do
          List.iter (fun k -> per_machine.(k) <- i :: per_machine.(k)) rho.(i)
        done;
        Array.iteri
          (fun k jobs ->
            let sorted =
              List.sort (fun a b -> compare sigma.(a) sigma.(b)) jobs
            in
            let rec sweep = function
              | a :: (b :: _ as rest) ->
                  let ja = Inst.job inst a in
                  if sigma.(a) + ja.Job.p > sigma.(b) then
                    set
                      (Printf.sprintf "machine %d runs jobs %d and %d concurrently"
                         k a b)
                  else sweep rest
              | [ _ ] | [] -> ()
            in
            sweep sorted)
          per_machine
      end;
      !err
    end

  let make inst ~sigma ~rho =
    (match error inst ~sigma ~rho with
    | Some msg -> invalid_arg ("Pts.Schedule.make: " ^ msg)
    | None -> ());
    (* Seeded with [[]], an immediate: [Array.map] would seed with a
       fresh list and so, past 256 jobs, force a minor collection. *)
    let sorted = Array.make (Array.length rho) [] in
    Array.iteri (fun i ms -> sorted.(i) <- List.sort_uniq compare ms) rho;
    { inst; sigma = Array.copy sigma; rho = sorted }

  let makespan t =
    let m = ref 0 in
    Array.iteri
      (fun i s ->
        let j = Inst.job t.inst i in
        if s + j.Job.p > !m then m := s + j.Job.p)
      t.sigma;
    !m

  let validate t =
    match error t.inst ~sigma:t.sigma ~rho:t.rho with
    | Some msg -> Error msg
    | None -> Ok ()

  let machine_timeline t k =
    let acc = ref [] in
    Array.iteri
      (fun i ms ->
        if List.mem k ms then
          let j = Inst.job t.inst i in
          acc := (t.sigma.(i), t.sigma.(i) + j.Job.p, i) :: !acc)
      t.rho;
    List.sort compare !acc

  let render t =
    let horizon = makespan t in
    let m = t.inst.Inst.machines in
    let buf = Buffer.create ((horizon + 8) * m) in
    for k = m - 1 downto 0 do
      Buffer.add_string buf (Printf.sprintf "m%-2d|" k);
      let row = Bytes.make horizon '.' in
      List.iter
        (fun (s, f, i) ->
          let c =
            (* Letters cycle through jobs for readability. *)
            Char.chr (Char.code 'A' + (i mod 26))
          in
          for x = s to f - 1 do
            Bytes.set row x c
          done)
        (machine_timeline t k);
      Buffer.add_bytes buf row;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("    " ^ String.make horizon '-');
    Buffer.add_string buf (Printf.sprintf "\nmakespan = %d" horizon);
    Buffer.contents buf

  let pp fmt t =
    Format.fprintf fmt "@[<v>schedule makespan=%d@,sigma=%a@]" (makespan t)
      Dsp_util.Xutil.pp_int_list
      (Array.to_list t.sigma)
end
