(* The one front-end of the whole-program rules: loads the compiler's
   .cmt artifacts (written by dune next to every compiled module, the
   lint fixtures' included) and lowers each implementation to the
   [Lint_ir] event summary.  Working on the *typed* tree means call sites arrive as
   resolved [Path.t]s — "Dsp_serve__Session.arrive", not whatever
   alias the source spelled — which is what makes cross-module
   resolution in [Lint_callgraph] reliable.

   Only the OCaml-5.1 constructor shapes the lowering needs are
   matched explicitly; every other expression falls through to a
   generic [Tast_iterator] sweep that concatenates sub-expression
   events in syntactic order. *)

open Typedtree
module Ir = Lint_ir

let pos_of_loc (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    Ir.file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
  }

let path_components p = Ir.normalize_path_name (Path.name p)

let type_name (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (Ir.join_name (path_components p))
  | _ -> None

(* Mutex identity: record fields key on the record's *type* path plus
   the label ("Pool.t.m"), so `pool.m` and `p.m` in different
   functions agree; plain values key on their resolved path. *)
let rec mutex_id (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Ir.join_name (path_components p)
  | Texp_field (b, _, ld) -> (
      match type_name ld.Types.lbl_res with
      | Some t -> t ^ "." ^ ld.Types.lbl_name
      | None -> mutex_id b ^ "." ^ ld.Types.lbl_name)
  | _ ->
      let p = pos_of_loc e.exp_loc in
      Printf.sprintf "<unknown:%s:%d>" p.Ir.file p.Ir.line

let is_fun_literal (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let rec events_of ~stack (e : expression) : Ir.event list =
  let pos = pos_of_loc e.exp_loc in
  let ev = events_of ~stack in
  match e.exp_desc with
  | Texp_ident _ -> []
  | Texp_constant (Asttypes.Const_float _) -> [ Ir.Alloc ("boxed float", pos) ]
  | Texp_constant _ -> []
  | Texp_function _ -> [ Ir.Closure (body_events ~stack e, pos) ]
  | Texp_apply (head, args) -> apply ~stack pos head args
  | Texp_let (_, vbs, body) ->
      List.concat_map (fun vb -> ev vb.vb_expr) vbs @ ev body
  | Texp_sequence (a, b) -> ev a @ ev b
  | Texp_ifthenelse (c, t, f) ->
      ev c
      @ [ Ir.Branch [ ev t; (match f with Some f -> ev f | None -> []) ] ]
  | Texp_match (scr, cases, _) ->
      ev scr @ [ Ir.Branch (List.map (case_events ~stack) cases) ]
  | Texp_try (body, cases) ->
      ev body @ [ Ir.Branch (List.map (case_events ~stack) cases) ]
  | Texp_tuple parts ->
      Ir.Alloc ("tuple", pos) :: List.concat_map ev parts
  | Texp_construct (_, _, []) -> []
  | Texp_construct (_, cd, args) ->
      Ir.Alloc ("constructor " ^ cd.Types.cstr_name, pos)
      :: List.concat_map ev args
  | Texp_record { fields; extended_expression; _ } ->
      Ir.Alloc ("record", pos)
      :: (Array.to_list fields
         |> List.concat_map (fun (_, def) ->
                match def with
                | Overridden (_, e) -> ev e
                | Kept _ -> []))
      @ (match extended_expression with Some b -> ev b | None -> [])
  | Texp_field (b, _, _) -> ev b
  | Texp_setfield (b, _, _, v) -> ev b @ ev v
  | Texp_array parts ->
      Ir.Alloc ("array literal", pos) :: List.concat_map ev parts
  | _ ->
      (* Generic sweep: events of immediate sub-expressions, in
         syntactic order (covers while/for/assert/lazy/letop/...). *)
      let acc = ref [] in
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ sub -> acc := !acc @ events_of ~stack sub);
        }
      in
      Tast_iterator.default_iterator.expr it e;
      !acc

(* The body of a function definition: peel the parameter spine
   (chained single-case [Texp_function]) so wrapper lambdas do not
   read as closure allocations; a multi-case parameter becomes a
   branch over its arms. *)
and body_events ~stack (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
      body_events ~stack c.c_rhs
  | Texp_function { cases; _ } ->
      [ Ir.Branch (List.map (case_events ~stack) cases) ]
  | _ -> events_of ~stack e

and case_events : 'k. stack:string list -> 'k case -> Ir.event list =
 fun ~stack c ->
  (match c.c_guard with Some g -> events_of ~stack g | None -> [])
  @ events_of ~stack c.c_rhs

and apply ~stack pos (head : expression) args =
  let arg_exprs = List.filter_map snd args in
  match head.exp_desc with
  | Texp_ident (p, _, _) -> (
      let comps = path_components p in
      let qualified =
        match comps with [ single ] -> stack @ [ single ] | _ -> comps
      in
      match (comps, arg_exprs) with
      | [ "Mutex"; "lock" ], [ m ] -> [ Ir.Lock (mutex_id m, pos) ]
      | [ "Mutex"; "unlock" ], [ m ] -> [ Ir.Unlock (mutex_id m, pos) ]
      | [ "@@" ], [ f; x ] -> events_of ~stack x @ called_now ~stack f
      | [ "|>" ], [ x; f ] -> events_of ~stack x @ called_now ~stack f
      | [ "Fun"; "protect" ], _ ->
          (* Fun.protect ~finally:FIN BODY: BODY runs now, FIN on the
             way out — inline both in that order so a finally-unlock
             lands after the protected body. *)
          let finally, body =
            List.partition
              (fun (lbl, _) -> lbl = Asttypes.Labelled "finally")
              args
          in
          let inline = List.concat_map (fun (_, e) ->
              match e with Some e -> called_now ~stack e | None -> [])
          in
          inline body @ inline finally
      | _ ->
          let scalar, closures =
            List.partition (fun e -> not (is_fun_literal e)) arg_exprs
          in
          List.concat_map (events_of ~stack) scalar
          @ [
              Ir.Call
                {
                  callee = qualified;
                  cpos = pos;
                  cargs = List.map (body_events ~stack) closures;
                };
            ])
  | Texp_apply (h, inner) ->
      (* A partial application used as a function, [f m @@ fun () ->
         ...] once the typechecker drops the [@@]: one call to [f]
         with every argument, so its closures run under [f]'s locks. *)
      apply ~stack pos h (inner @ args)
  | _ -> List.concat_map (events_of ~stack) (head :: arg_exprs)

(* An argument the callee invokes itself: a literal inlines to its
   body, an identifier becomes a call. *)
and called_now ~stack (e : expression) =
  if is_fun_literal e then body_events ~stack e
  else
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let comps = path_components p in
        let qualified =
          match comps with [ single ] -> stack @ [ single ] | _ -> comps
        in
        [ Ir.Call { callee = qualified; cpos = pos_of_loc e.exp_loc; cargs = [] } ]
    | _ -> events_of ~stack e

(* ----- structure -> summary ------------------------------------------- *)

let rec pat_name : type k. k general_pattern -> string option =
 fun p ->
  match p.pat_desc with
  | Tpat_var (_, name) -> Some name.Location.txt
  | Tpat_alias (p, _, _) -> pat_name p
  | _ -> None

let collect_funcs ~unit_name (str : structure) =
  let funcs = ref [] in
  let rec items stack is = List.iter (item stack) is
  and item stack (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match pat_name vb.vb_pat with
            | None -> ()
            | Some name ->
                let fname = stack @ [ name ] in
                let events =
                  if is_fun_literal vb.vb_expr then
                    body_events ~stack vb.vb_expr
                  else events_of ~stack vb.vb_expr
                in
                funcs :=
                  { Ir.fname; fpos = pos_of_loc vb.vb_loc; events }
                  :: !funcs)
          vbs
    | Tstr_module mb -> module_binding stack mb
    | Tstr_recmodule mbs -> List.iter (module_binding stack) mbs
    | _ -> ()
  and module_binding stack (mb : module_binding) =
    match mb.mb_name.Location.txt with
    | None -> ()
    | Some m -> module_expr (stack @ [ m ]) mb.mb_expr
  and module_expr stack (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> items stack str.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr stack me
    | _ -> ()
  in
  items [ unit_name ] str.str_items;
  List.rev !funcs

let last_component comps =
  match List.rev comps with c :: _ -> c | [] -> ""

(* Read one .cmt into a summary.  [Error] covers unreadable or
   non-implementation artifacts (interfaces, packs). *)
let summarize_cmt path : (Ir.summary, string) result =
  match Cmt_format.read_cmt path with
  | exception e ->
      Error (Printf.sprintf "%s: cannot read cmt: %s" path (Printexc.to_string e))
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let unit_name =
            last_component (Ir.split_mangled cmt.Cmt_format.cmt_modname)
          in
          let src_file =
            Option.value cmt.Cmt_format.cmt_sourcefile ~default:""
          in
          Ok { Ir.unit_name; src_file; funcs = collect_funcs ~unit_name str }
      | _ -> Error (Printf.sprintf "%s: not an implementation cmt" path))

(* ----- artifact discovery --------------------------------------------- *)

(* Find the .cmt files dune wrote for the production tree.  When run
   from the project root the artifacts live under _build/default; when
   run *inside* _build/default (the @lint rule does, after building
   every one through its (alias_rec check) dependency) the .objs
   directories are directly beneath the given root.  Returns sorted
   paths; the caller filters by each summary's source file, so each
   artifact is unmarshalled once. *)
let discover_cmts ~root =
  let base =
    let b = Filename.concat root "_build/default" in
    if Sys.file_exists b && Sys.is_directory b then b else root
  in
  let hits = ref [] in
  let contains sub s =
    let ls = String.length sub and ln = String.length s in
    let rec at i = i + ls <= ln && (String.sub s i ls = sub || at (i + 1)) in
    at 0
  in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun entry ->
            let p = Filename.concat dir entry in
            match Sys.is_directory p with
            | exception Sys_error _ -> ()
            | true -> if entry <> "_build" && entry <> ".git" then walk p
            | false ->
                if Filename.check_suffix entry ".cmt" then begin
                  let n = Ir.normalize p in
                  if contains ".objs/byte/" n || contains ".eobjs/byte/" n
                  then hits := p :: !hits
                end)
          entries
  in
  walk base;
  List.sort compare !hits

(* Keep a summary iff its source file sits under one of the given
   top-level prefixes ("lib/", "bin/", "bench/"). *)
let src_in_prefixes prefixes src =
  src <> ""
  && List.exists
       (fun pre ->
         let src = Ir.normalize src in
         String.length src > String.length pre
         && String.sub src 0 (String.length pre) = pre)
       prefixes
