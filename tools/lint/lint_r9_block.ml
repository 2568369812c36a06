(* R9 — blocking-under-lock: no Unix fsync/file/socket IO and no pool
   wait may run while a mutex is held, even through a chain of calls —
   a blocked lock holder stalls every other domain that needs the
   lock, which is exactly the convoy the serve daemon's overload
   shedding exists to avoid.  Condition.wait is exempt: it atomically
   releases the mutex while parked.

   The walk tracks the held multiset per function; calls are charged
   interprocedurally through a "transitively blocks" closure, and a
   closure argument is walked under the locks its callee acquires
   directly (the `locked (fun () -> ...)` idiom).  Branch arms walk
   independently and continue with the intersection of their held
   sets. *)

module Ir = Lint_ir
module Cg = Lint_callgraph

let blocking =
  [
    [ "Unix"; "fsync" ];
    [ "Unix"; "read" ];
    [ "Unix"; "write" ];
    [ "Unix"; "single_write" ];
    [ "Unix"; "write_substring" ];
    [ "Unix"; "single_write_substring" ];
    [ "Unix"; "select" ];
    [ "Unix"; "accept" ];
    [ "Unix"; "connect" ];
    [ "Unix"; "recv" ];
    [ "Unix"; "send" ];
    [ "Unix"; "sleep" ];
    [ "Unix"; "sleepf" ];
    [ "Thread"; "delay" ];
    [ "Pool"; "await" ];
    [ "Pool"; "run_all" ];
    [ "Pool"; "map" ];
    [ "input_line" ];
    [ "really_input" ];
    [ "really_input_string" ];
  ]

let finding (pos : Ir.pos) msg =
  {
    Lint_core.rule = Lint_core.R9;
    file = pos.Ir.file;
    line = pos.Ir.line;
    col = pos.Ir.col;
    msg;
  }

let check (cg : Cg.t) =
  let findings = ref [] in
  let emit pos msg = findings := finding pos msg :: !findings in
  (* Functions whose own events contain a blocking call, closed over
     resolved calls. *)
  let blocks =
    Cg.transitive_closure cg ~direct:(fun fn ->
        let hit = ref false in
        Ir.iter_events
          (function
            | Ir.Call c ->
                if Ir.matches_any blocking c.Ir.callee then hit := true
            | _ -> ())
          fn.Ir.events;
        !hit)
  in
  let direct_locks name =
    match Cg.find cg name with
    | Some fn -> Ir.direct_lock_ids fn
    | None -> []
  in
  let rec remove_one id = function
    | [] -> []
    | x :: rest -> if x = id then rest else x :: remove_one id rest
  in
  let rec walk held evs = List.fold_left step held evs
  and step held ev =
    match ev with
    | Ir.Lock (id, _) -> id :: held
    | Ir.Unlock (id, _) -> remove_one id held
    | Ir.Call c ->
        let resolved = Cg.resolve cg c.Ir.callee in
        (if held <> [] then
           let name = Ir.join_name c.Ir.callee in
           if Ir.matches_any blocking c.Ir.callee then
             emit c.Ir.cpos
               (Printf.sprintf
                  "blocking call `%s` while mutex `%s` is held — IO under a \
                   lock convoys every waiter; move the IO outside the \
                   critical section or waive with (* lint: ok R9 *)"
                  name (List.hd held))
           else
             match resolved with
             | Some callee when blocks callee ->
                 emit c.Ir.cpos
                   (Printf.sprintf
                      "call to `%s` (which transitively performs blocking \
                       IO) while mutex `%s` is held; move it outside the \
                       critical section or waive with (* lint: ok R9 *)"
                      callee (List.hd held))
             | _ -> ());
        let under =
          match resolved with Some callee -> direct_locks callee | None -> []
        in
        List.iter (fun body -> ignore (walk (under @ held) body)) c.Ir.cargs;
        held
    | Ir.Branch arms -> (
        let results = List.map (walk held) arms in
        match results with
        | [] -> held
        | r0 :: rest ->
            List.filter (fun id -> List.for_all (List.mem id) rest) r0)
    | Ir.Closure (body, _) ->
        ignore (walk held body);
        held
    | Ir.Alloc _ -> held
  in
  List.iter
    (fun name ->
      match Cg.find cg name with
      | Some fn -> ignore (walk [] fn.Ir.events)
      | None -> ())
    cg.Cg.order;
  !findings
