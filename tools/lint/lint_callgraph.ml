(* Cross-module call graph over [Lint_ir] summaries: definition
   index, call-site resolution, reachability, and transitive
   "transitively does X" closures for the whole-program rules.

   Resolution works on normalized component lists.  For a call spelled
   [c1. ... .cn] the candidates are tried most-specific first:
   1. the exact name;
   2. the name with leading components peeled (a typedtree path often
      carries the wrapper library: Dsp_util.Instr.bump vs the
      definition Instr.bump);
   3. the name with *inner* module components peeled (a bare call
      inside a submodule [U.M] is qualified with the full stack, but
      the binding may live at [U]'s top level);
   4. failing all that, a unique suffix match on the final component.
   Unresolved calls are externals (stdlib, Unix, ...) — the rules
   match those against their own vocabularies. *)

module Ir = Lint_ir
module SS = Set.Make (String)

type t = {
  funcs : (string, Ir.func) Hashtbl.t;  (* joined full name -> def *)
  by_last : (string, string list) Hashtbl.t;
      (* final component -> full names *)
  order : string list;  (* definition order, for deterministic walks *)
}

let build (summaries : Ir.summary list) =
  let funcs = Hashtbl.create 256 in
  let by_last = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (s : Ir.summary) ->
      List.iter
        (fun (f : Ir.func) ->
          let name = Ir.join_name f.fname in
          if not (Hashtbl.mem funcs name) then begin
            Hashtbl.add funcs name f;
            order := name :: !order;
            match List.rev f.fname with
            | last :: _ ->
                let prev =
                  Option.value (Hashtbl.find_opt by_last last) ~default:[]
                in
                Hashtbl.replace by_last last (name :: prev)
            | [] -> ()
          end)
        s.funcs)
    summaries;
  { funcs; by_last; order = List.rev !order }

let find t name = Hashtbl.find_opt t.funcs name

(* Candidate spellings for a call, most specific first. *)
let candidates comps =
  let rec drop_leading acc = function
    | [ _ ] | [] -> List.rev acc
    | _ :: rest as l -> drop_leading (l :: acc) rest
  in
  let leading = drop_leading [] comps in
  let inner =
    (* peel inner module components: [u; m1..mk; f] -> [u; m1..; f] *)
    match (comps, List.rev comps) with
    | u :: _ :: _ :: _, f :: mids_rev ->
        let mids = List.rev (List.tl mids_rev) in
        (* mids = u :: m1..mk; peel from the right of the mids *)
        let rec peels acc mids =
          match List.rev mids with
          | _ :: (_ :: _ as shorter_rev) ->
              let shorter = List.rev shorter_rev in
              peels ((shorter @ [ f ]) :: acc) shorter
          | _ -> List.rev acc
        in
        ignore u;
        peels [] mids
    | _ -> []
  in
  leading @ inner

let resolve t comps =
  let rec try_cands = function
    | [] -> None
    | c :: rest ->
        let name = Ir.join_name c in
        if Hashtbl.mem t.funcs name then Some name else try_cands rest
  in
  match try_cands (candidates comps) with
  | Some name -> Some name
  | None -> (
      (* Unique suffix match on the final component, for typed paths
         that stop short of the definition: [Inst.job] called inside
         [Pts.Schedule] against the definition [Pts.Inst.job]. *)
      match List.rev comps with
      | last :: _ -> (
          match Hashtbl.find_opt t.by_last last with
          | Some [ only ] when Ir.suffix_matches comps (
              String.split_on_char '.' only) -> Some only
          | _ -> None)
      | [] -> None)

(* All definitions reachable from the given roots (joined names),
   following resolved calls through branches, closures and closure
   arguments.  Returns the visited set and, for diagnostics, a parent
   map giving one witness caller per visited function. *)
let reachable t roots =
  let visited = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem t.funcs r && not (Hashtbl.mem visited r) then begin
        Hashtbl.add visited r ();
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    match find t name with
    | None -> ()
    | Some fn ->
        Ir.iter_events
          (function
            | Ir.Call c -> (
                match resolve t c.Ir.callee with
                | Some callee when not (Hashtbl.mem visited callee) ->
                    Hashtbl.add visited callee ();
                    Hashtbl.add parent callee name;
                    Queue.add callee queue
                | _ -> ())
            | _ -> ())
          fn.Ir.events
  done;
  (visited, parent)

(* One witness call chain root -> ... -> name, for messages. *)
let chain parent name =
  let rec go acc name =
    match Hashtbl.find_opt parent name with
    | Some p when not (List.mem p acc) -> go (name :: acc) p
    | _ -> name :: acc
  in
  go [] name

(* Fixpoint closure: the set of definitions that perform X
   transitively, where [direct] says whether a function's own events
   do X.  A function joins the set if [direct] holds or it resolves a
   call to a member. *)
let transitive_closure t ~direct =
  let in_set = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match find t name with
      | Some fn when direct fn -> Hashtbl.replace in_set name ()
      | _ -> ())
    t.order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        if not (Hashtbl.mem in_set name) then
          match find t name with
          | None -> ()
          | Some fn ->
              let hit = ref false in
              Ir.iter_events
                (function
                  | Ir.Call c -> (
                      match resolve t c.Ir.callee with
                      | Some callee when Hashtbl.mem in_set callee ->
                          hit := true
                      | _ -> ())
                  | _ -> ())
                fn.Ir.events;
              if !hit then begin
                Hashtbl.replace in_set name ();
                changed := true
              end)
      t.order
  done;
  fun name -> Hashtbl.mem in_set name

(* The lock identities a function may acquire, transitively. *)
let transitive_locks t =
  let table = Hashtbl.create 64 in
  let locks_of name =
    Option.value (Hashtbl.find_opt table name) ~default:SS.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        match find t name with
        | None -> ()
        | Some fn ->
            let acc = ref (locks_of name) in
            Ir.iter_events
              (function
                | Ir.Lock (id, _) -> acc := SS.add id !acc
                | Ir.Call c -> (
                    match resolve t c.Ir.callee with
                    | Some callee -> acc := SS.union !acc (locks_of callee)
                    | None -> ())
                | _ -> ())
              fn.Ir.events;
            if not (SS.equal !acc (locks_of name)) then begin
              Hashtbl.replace table name !acc;
              changed := true
            end)
      t.order
  done;
  locks_of
