(* Intermediate representation shared by the whole-program rules
   (R6–R9).  Both front-ends — the typedtree loader in [Lint_tast]
   (production: reads the compiler's .cmt artifacts) and the parsetree
   translator below (fixtures and tests: hermetic, no compilation
   needed) — lower a module to the same per-function event summary, so
   the rules and the call graph never look at an AST.

   The event language keeps exactly what the four rules need, in
   evaluation order:
   - [Call]: an application, with the callee's qualified-name
     components and the body events of any closure-literal arguments
     attached (the callee may run those under its own locks, after its
     own validation — the rules decide).
   - [Lock]/[Unlock]: Mutex.lock/Mutex.unlock with a stable identity
     for the mutex (type-path + field for record fields, the value
     path otherwise).
   - [Alloc]: a structural allocation — closure, tuple, non-constant
     constructor, record, boxed float literal, array literal,
     payload-carrying raise.  Allocating stdlib *calls* (Array.make,
     sprintf, ...) stay plain [Call]s; R7 matches those by name.
   - [Branch]: one event list per arm (if/match/try); a rule chooses
     arm semantics (independent paths for R8, held-set intersection
     for R6/R9).
   - [Closure]: a function literal outside argument position (bound,
     stored, returned); rules explore the body without assuming when
     it runs.

   Name discipline: qualified names are component lists.  Definitions
   carry their full module stack ("Pts" :: "Inst" :: "of_dims");
   call sites carry the most qualified name the front-end can see, and
   [Lint_callgraph] resolves by peeling prefixes.  Component lists are
   already normalized: "Dsp_core__Segtree" splits into its "__" parts
   and "Stdlib" heads are dropped, so the two front-ends and the rule
   vocabularies agree on spelling. *)

type pos = { file : string; line : int; col : int }

type event =
  | Call of call
  | Lock of string * pos
  | Unlock of string * pos
  | Alloc of string * pos  (* what allocates, e.g. "closure", "tuple" *)
  | Branch of event list list
  | Closure of event list * pos

and call = {
  callee : string list;  (* normalized qualified-name components *)
  cpos : pos;
  cargs : event list list;  (* body events of closure-literal arguments *)
}

type func = {
  fname : string list;  (* unit :: module stack :: binding name *)
  fpos : pos;
  events : event list;
}

type summary = {
  unit_name : string;  (* normalized top module name, e.g. "Segtree" *)
  src_file : string;  (* root-relative source path when known *)
  funcs : func list;
}

let join_name comps = String.concat "." comps
let normalize path = String.concat "/" (String.split_on_char '\\' path)

(* ----- name normalization --------------------------------------------- *)

(* "Dsp_core__Segtree" -> ["Dsp_core"; "Segtree"]: dune's wrapped
   libraries mangle module names with "__"; splitting restores the
   logical stack so suffix/prefix matching works across front-ends. *)
let split_mangled comp =
  let n = String.length comp in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub comp start (n - start) :: acc)
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      let piece = String.sub comp start (i - start) in
      let acc = if piece = "" then acc else piece :: acc in
      go (i + 2) (i + 2) acc
    else go start (i + 1) acc
  in
  if n = 0 then [] else go 0 0 []

let normalize_components comps =
  let comps = List.concat_map split_mangled comps in
  match comps with "Stdlib" :: (_ :: _ as rest) -> rest | c -> c

let normalize_path_name name =
  normalize_components (String.split_on_char '.' name)

(* ----- positions ------------------------------------------------------- *)

let pos_of_loc ?file (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    file = (match file with Some f -> f | None -> p.Lexing.pos_fname);
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
  }

(* ----- event utilities ------------------------------------------------- *)

(* Fold over every event in a list, descending into branches, closure
   bodies and closure arguments — for rules that need the flat view. *)
let rec iter_events f evs =
  List.iter
    (fun ev ->
      f ev;
      match ev with
      | Call c -> List.iter (iter_events f) c.cargs
      | Branch arms -> List.iter (iter_events f) arms
      | Closure (body, _) -> iter_events f body
      | Lock _ | Unlock _ | Alloc _ -> ())
    evs

(* The mutex identities a function locks directly (no recursion into
   callees); used to approximate "callee runs my closure argument
   under these locks". *)
let direct_lock_ids fn =
  let acc = ref [] in
  iter_events
    (function
      | Lock (id, _) -> if not (List.mem id !acc) then acc := id :: !acc
      | _ -> ())
    fn.events;
  List.rev !acc

(* ----- vocabulary matching -------------------------------------------- *)

(* A vocabulary entry like ["Wal"; "append"] matches a call whose
   normalized components end with it: ["Dsp_serve"; "Wal"; "append"]
   and ["Wal"; "append"] both hit. *)
let suffix_matches entry comps =
  let le = List.length entry and lc = List.length comps in
  lc >= le
  && entry = List.filteri (fun i _ -> i >= lc - le) comps

let matches_any vocab comps =
  List.exists (fun entry -> suffix_matches entry comps) vocab

(* ----- parsetree front-end -------------------------------------------- *)

(* Lowers an untyped AST (fixtures, tests) to the IR.  Only the
   surface forms the fixtures use need translating; anything else
   falls through to a generic sub-expression sweep. *)
module Of_parsetree = struct
  module P = Parsetree

  let rec lid_components = function
    | Longident.Lident s -> [ s ]
    | Longident.Ldot (l, s) -> lid_components l @ [ s ]
    | Longident.Lapply (_, l) -> lid_components l

  (* A stable textual identity for a mutex expression: dotted value
     path, with field accesses flattened ("pool.m", "Bench_json.m"). *)
  let rec mutex_id (e : P.expression) =
    match e.pexp_desc with
    | P.Pexp_ident { txt; _ } -> join_name (normalize_components (lid_components txt))
    | P.Pexp_field (b, { txt; _ }) -> (
        match lid_components txt with
        | [] -> mutex_id b
        | comps -> mutex_id b ^ "." ^ List.nth comps (List.length comps - 1))
    | P.Pexp_constraint (e, _) -> mutex_id e
    | _ ->
        let p = pos_of_loc e.pexp_loc in
        Printf.sprintf "<unknown:%s:%d>" p.file p.line

  let rec is_fun_literal (e : P.expression) =
    match e.pexp_desc with
    | P.Pexp_fun _ | P.Pexp_function _ -> true
    | P.Pexp_constraint (e, _) | P.Pexp_newtype (_, e) -> is_fun_literal e
    | _ -> false

  (* Constant constructors (None, [], true, Not_found) allocate
     nothing; constructors with arguments do. *)
  let rec events_of ~file ~stack (e : P.expression) : event list =
    let pos = pos_of_loc ~file e.pexp_loc in
    let ev = events_of ~file ~stack in
    match e.pexp_desc with
    | P.Pexp_ident _ | P.Pexp_constant (P.Pconst_integer _ | P.Pconst_char _)
      ->
        []
    | P.Pexp_constant (P.Pconst_float _) -> [ Alloc ("boxed float", pos) ]
    | P.Pexp_constant _ -> []
    | P.Pexp_fun (_, _, _, body) -> [ Closure (body_events ~file ~stack e body, pos) ]
    | P.Pexp_function cases ->
        [ Closure ([ Branch (List.map (case_events ~file ~stack) cases) ], pos) ]
    | P.Pexp_apply (head, args) -> apply ~file ~stack pos head args
    | P.Pexp_let (_, vbs, body) ->
        List.concat_map (fun vb -> ev vb.P.pvb_expr) vbs @ ev body
    | P.Pexp_sequence (a, b) -> ev a @ ev b
    | P.Pexp_ifthenelse (c, t, f) ->
        ev c
        @ [
            Branch
              [ ev t; (match f with Some f -> ev f | None -> []) ];
          ]
    | P.Pexp_match (scr, cases) ->
        ev scr @ [ Branch (List.map (case_events ~file ~stack) cases) ]
    | P.Pexp_try (body, cases) ->
        ev body @ [ Branch (List.map (case_events ~file ~stack) cases) ]
    | P.Pexp_tuple parts ->
        [ Alloc ("tuple", pos) ] @ List.concat_map ev parts
    | P.Pexp_construct (_, None) -> []
    | P.Pexp_construct ({ txt; _ }, Some arg) ->
        [ Alloc ("constructor " ^ join_name (lid_components txt), pos) ]
        @ ev arg
    | P.Pexp_record (fields, base) ->
        [ Alloc ("record", pos) ]
        @ List.concat_map (fun (_, e) -> ev e) fields
        @ (match base with Some b -> ev b | None -> [])
    | P.Pexp_array parts ->
        [ Alloc ("array literal", pos) ] @ List.concat_map ev parts
    | P.Pexp_field (b, _) -> ev b
    | P.Pexp_setfield (b, _, v) -> ev b @ ev v
    | P.Pexp_constraint (e, _) | P.Pexp_coerce (e, _, _) | P.Pexp_newtype (_, e)
      ->
        ev e
    | P.Pexp_while (c, body) -> ev c @ ev body
    | P.Pexp_for (_, lo, hi, _, body) -> ev lo @ ev hi @ ev body
    | P.Pexp_assert e | P.Pexp_lazy e -> ev e
    | P.Pexp_open (_, e) -> ev e
    | _ ->
        (* Generic sweep: collect events of immediate sub-expressions
           in syntactic order. *)
        let acc = ref [] in
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ sub -> acc := !acc @ events_of ~file ~stack sub);
          }
        in
        Ast_iterator.default_iterator.expr it e;
        !acc

  (* The body of a function literal: peel the parameter spine so the
     wrapper lambdas do not read as closure allocations. *)
  and body_events ~file ~stack outer body =
    ignore outer;
    let rec peel (e : P.expression) =
      match e.pexp_desc with
      | P.Pexp_fun (_, _, _, body) -> peel body
      | P.Pexp_function cases ->
          [ Branch (List.map (case_events ~file ~stack) cases) ]
      | P.Pexp_constraint (e, _) | P.Pexp_newtype (_, e) -> peel e
      | _ -> events_of ~file ~stack e
    in
    peel body

  and case_events ~file ~stack (c : P.case) =
    (match c.P.pc_guard with
    | Some g -> events_of ~file ~stack g
    | None -> [])
    @ events_of ~file ~stack c.P.pc_rhs

  and apply ~file ~stack pos (head : P.expression) args =
    let arg_exprs = List.map snd args in
    match head.pexp_desc with
    | P.Pexp_ident { txt; _ } -> (
        let comps = normalize_components (lid_components txt) in
        let qualified =
          match comps with [ single ] -> stack @ [ single ] | _ -> comps
        in
        match (comps, args) with
        | [ "Mutex"; "lock" ], [ (_, m) ] -> [ Lock (mutex_id m, pos) ]
        | [ "Mutex"; "unlock" ], [ (_, m) ] -> [ Unlock (mutex_id m, pos) ]
        | [ "Fun"; "protect" ], _ ->
            (* Fun.protect ~finally:FIN BODY runs BODY now and FIN on
               the way out: inline both, in that order, so a
               finally-unlock is seen after the protected body rather
               than before it (argument order would invert them). *)
            let finally =
              List.filter_map
                (fun (lbl, e) ->
                  match lbl with
                  | Asttypes.Labelled "finally" -> Some e
                  | _ -> None)
                args
            in
            let body =
              List.filter_map
                (fun (lbl, e) ->
                  match lbl with
                  | Asttypes.Labelled "finally" -> None
                  | _ -> Some e)
                args
            in
            List.concat_map (called_now ~file ~stack) body
            @ List.concat_map (called_now ~file ~stack) finally
        | _ ->
            let scalar, closures =
              List.partition (fun e -> not (is_fun_literal e)) arg_exprs
            in
            List.concat_map (events_of ~file ~stack) scalar
            @ [
                Call
                  {
                    callee = qualified;
                    cpos = pos;
                    cargs =
                      List.map (closure_body ~file ~stack) closures;
                  };
              ])
    | _ ->
        List.concat_map (events_of ~file ~stack) (head :: arg_exprs)

  (* An argument the callee will invoke: a function literal inlines to
     its body events, an identifier becomes a call, anything else is
     evaluated for its own events. *)
  and called_now ~file ~stack (e : P.expression) =
    if is_fun_literal e then closure_body ~file ~stack e
    else
      match e.pexp_desc with
      | P.Pexp_ident { txt; _ } ->
          let comps = normalize_components (lid_components txt) in
          let qualified =
            match comps with [ single ] -> stack @ [ single ] | _ -> comps
          in
          [ Call { callee = qualified; cpos = pos_of_loc ~file e.pexp_loc; cargs = [] } ]
      | _ -> events_of ~file ~stack e

  and closure_body ~file ~stack (e : P.expression) =
    match e.pexp_desc with
    | P.Pexp_fun (_, _, _, body) -> body_events ~file ~stack e body
    | P.Pexp_function cases ->
        [ Branch (List.map (case_events ~file ~stack) cases) ]
    | P.Pexp_constraint (e, _) | P.Pexp_newtype (_, e) ->
        closure_body ~file ~stack e
    | _ -> events_of ~file ~stack e

  let rec pat_var (p : P.pattern) =
    match p.ppat_desc with
    | P.Ppat_var { txt; _ } -> Some txt
    | P.Ppat_constraint (p, _) -> pat_var p
    | _ -> None

  let unit_name_of_file file =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename file))

  let of_structure ~file (structure : P.structure) : summary =
    let unit_name = unit_name_of_file file in
    let funcs = ref [] in
    let rec items stack is =
      List.iter
        (fun (item : P.structure_item) ->
          match item.pstr_desc with
          | P.Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match pat_var vb.P.pvb_pat with
                  | None -> ()
                  | Some name ->
                      let fname = stack @ [ name ] in
                      let events =
                        if is_fun_literal vb.P.pvb_expr then
                          closure_body ~file ~stack vb.P.pvb_expr
                        else events_of ~file ~stack vb.P.pvb_expr
                      in
                      funcs :=
                        {
                          fname;
                          fpos = pos_of_loc ~file vb.P.pvb_loc;
                          events;
                        }
                        :: !funcs)
                vbs
          | P.Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } ->
              let rec body (me : P.module_expr) =
                match me.pmod_desc with
                | P.Pmod_structure is -> items (stack @ [ m ]) is
                | P.Pmod_constraint (me, _) -> body me
                | _ -> ()
              in
              body pmb_expr
          | _ -> ())
        is
    in
    items [ unit_name ] structure;
    { unit_name; src_file = file; funcs = List.rev !funcs }
end
