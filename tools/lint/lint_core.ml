(* AST-level invariant checker for the DSP solver engine.

   The multicore engine's correctness rests on conventions no compiler
   pass enforces: overflow-sensitive modules must route int arithmetic
   through [Xutil.checked_*] (the paper's pseudo-polynomial
   constructions produce widths/heights where raw ops silently wrap),
   solver loops must poll [Budget] checkpoints to keep the runner
   total, counter sites must come from the canonical [Instr.Sites]
   vocabulary, toplevel mutable state in domain-shared libraries is a
   latent data race, and a bare [try ... with _ ->] can swallow the
   very [Budget.Expired]/[Fault.Injected] exceptions the taxonomy
   depends on.  This module parses each [.ml] with compiler-libs
   ([Parse] + [Ast_iterator], no new dependencies) and machine-checks
   those conventions as five named, individually suppressible rules.

   Suppressions:
   - [(* lint: ok R3 *)] on a finding's line (or the line directly
     above it) waives that rule there;
   - [(* lint: local *)] is the R2 waiver for deliberately
     domain-local or externally synchronized toplevel state;
   - [[@@@lint.ignore "R1"]] waives a rule for the whole file. *)

module P = Parsetree
module SS = Set.Make (String)

(* ----- rules ---------------------------------------------------------- *)

type rule_id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

(* R1–R5 are per-file parsetree rules run by this module; R6–R9 are
   the whole-program typedtree rules run by [Lint_whole] over the
   cross-module call graph. *)
let syntactic_rules = [ R1; R2; R3; R4; R5 ]
let whole_program_rules = [ R6; R7; R8; R9 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | _ -> None

let rule_summary = function
  | R1 ->
      "overflow: raw int +/-/* in overflow-sensitive scopes must route \
       through Xutil.checked_* (small-literal index arithmetic is exempt)"
  | R2 ->
      "domain-safety: toplevel mutable state (ref/Hashtbl/Array/...) in a \
       library reachable from Dsp_bb.solve_par, Wsdeque.steal or \
       Runner.race must be Atomic/Mutex/DLS-wrapped or waived with (* lint: \
       local *)"
  | R3 ->
      "budget-totality: recursive functions in lib/exact and lib/lp must \
       reach a Budget.check/poll checkpoint (directly or via a helper)"
  | R4 ->
      "instr-registry: Instr.counter string literals must be canonical \
       Instr.Sites names, and every site must be referenced (no dead sites)"
  | R5 ->
      "exception-swallowing: bare `try ... with _ ->` is forbidden outside \
       the pool worker absorber; the serve daemon's per-connection absorber \
       is the one waived site"
  | R6 ->
      "lock-order: every pair of mutexes must be acquired in one global \
       order across the whole program; a cycle in the observed lock graph \
       (or re-acquiring a held mutex) is a potential deadlock"
  | R7 ->
      "allocation-freedom: no allocating construct (closure, tuple, \
       non-constant constructor, record, boxed float, allocating stdlib \
       call) may be reachable from the flat Segtree hot-path entry points \
       or the session's repair scan"
  | R8 ->
      "write-ahead ordering: on every path through Server.handle, request \
       validation must dominate Wal.append, and Wal.append must dominate \
       the session-state mutation it logs"
  | R9 ->
      "blocking-under-lock: no Unix fsync/socket IO or Pool.await may run, \
       even transitively, while a mutex is held (Condition.wait is exempt: \
       it releases the mutex)"

type finding = {
  rule : rule_id;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let finding_to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col (rule_name f.rule)
    f.msg

(* ----- configuration -------------------------------------------------- *)

(* Which bindings of an R1-designated file are in scope. *)
type r1_target =
  | All
  | Only of string list  (* just these top-level bindings *)
  | Except of string list  (* everything but these *)

type config = {
  r1_scope : (string * r1_target) list;
      (* path suffix -> which bindings the overflow rule audits *)
  r2_dirs : string list;  (* directories whose libraries are domain-shared *)
  r3_dirs : string list;  (* directories whose recursion must checkpoint *)
  r4_sites_file : string option;
      (* path suffix of the file defining [module Sites] *)
  r5_allow : string list;  (* path suffixes where a bare wildcard is legal *)
}

let normalize path = String.concat "/" (String.split_on_char '\\' path)

let has_suffix path sfx =
  let path = normalize path and sfx = normalize sfx in
  let lp = String.length path and ls = String.length sfx in
  lp >= ls
  && String.sub path (lp - ls) ls = sfx
  && (lp = ls || path.[lp - ls - 1] = '/')

let in_dirs path dirs =
  let path = "/" ^ normalize path in
  List.exists
    (fun d ->
      let d = "/" ^ normalize d ^ "/" in
      let ld = String.length d and lp = String.length path in
      let rec at i = i + ld <= lp && (String.sub path i ld = d || at (i + 1)) in
      at 0)
    dirs

(* ----- dune-graph reachability (R2 scope) ----------------------------- *)

(* A tiny s-expression reader, enough for this repo's dune files:
   atoms, parens, ;-comments.  Quoted strings are kept as raw atoms. *)
type sexp = Atom of string | List of sexp list

let parse_sexps text =
  let n = String.length text in
  let rec skip i =
    if i >= n then i
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' ->
          let rec eol i = if i >= n || text.[i] = '\n' then i else eol (i + 1) in
          skip (eol i)
      | _ -> i
  in
  let rec atom i j =
    if j >= n then j
    else
      match text.[j] with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> j
      | _ -> atom i (j + 1)
  in
  let rec many i acc =
    let i = skip i in
    if i >= n || text.[i] = ')' then (List.rev acc, i)
    else if text.[i] = '(' then begin
      let items, j = many (i + 1) [] in
      let j = if j < n && text.[j] = ')' then j + 1 else j in
      many j (List items :: acc)
    end
    else begin
      let j = atom i i in
      many j (Atom (String.sub text i (j - i)) :: acc)
    end
  in
  fst (many 0 [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Internal library dependency graph scraped from lib/<sub>/dune: the
   R2 scope is every library reachable from the multicore entry points
   (the graph is tiny, so this stays self-maintaining as PRs move
   code around). *)
let reachable_lib_dirs ~root ~roots =
  let libdir = Filename.concat root "lib" in
  if not (Sys.file_exists libdir && Sys.is_directory libdir) then []
  else begin
    let libs =
      Sys.readdir libdir |> Array.to_list |> List.sort compare
      |> List.filter_map (fun sub ->
             let dune = Filename.concat (Filename.concat libdir sub) "dune" in
             if not (Sys.file_exists dune) then None
             else
               let stanzas = parse_sexps (read_file dune) in
               let rec find_lib = function
                 | [] -> None
                 | List (Atom "library" :: fields) :: rest -> (
                     let name = ref None and deps = ref [] in
                     List.iter
                       (function
                         | List [ Atom "name"; Atom n ] -> name := Some n
                         | List (Atom "libraries" :: ds) ->
                             deps :=
                               List.filter_map
                                 (function Atom d -> Some d | List _ -> None)
                                 ds
                         | _ -> ())
                       fields;
                     match !name with
                     | Some n -> Some (n, "lib/" ^ sub, !deps)
                     | None -> find_lib rest)
                 | _ :: rest -> find_lib rest
               in
               find_lib stanzas)
    in
    let dir_of = List.map (fun (n, d, _) -> (n, d)) libs in
    let deps_of = List.map (fun (n, _, ds) -> (n, ds)) libs in
    let rec close visited = function
      | [] -> visited
      | n :: rest ->
          if SS.mem n visited || not (List.mem_assoc n dir_of) then
            close visited rest
          else
            close (SS.add n visited)
              (Option.value (List.assoc_opt n deps_of) ~default:[] @ rest)
    in
    let reach = close SS.empty roots in
    List.filter_map
      (fun (n, d) -> if SS.mem n reach then Some d else None)
      dir_of
    |> List.sort_uniq compare
  end

(* The project invariants.  R1 designates the overflow-sensitive
   modules from PR 3's hardening pass; R2's scope is computed from the
   dune graph so a new library joining the engine's dependency cone is
   audited automatically. *)
let project_config ~root =
  {
    r1_scope =
      [
        ("lib/util/rat.ml", All);
        ( "lib/core/segtree.ml",
          Only
            [
              "range_add";
              "apply_add";
              "pull";
              "range_max";
              "descend_above";
              "first_above";
              "last_above";
              "first_fit_from_i";
              "to_array";
              "mark";
              "bit_index";
              "scan_runs";
              "best_start";
            ] );
        ("lib/core/profile.ml", Except [ "render"; "pp" ]);
      ];
    r2_dirs =
      (* dsp_serve pulls in the engine cone and adds the service layer,
         so the daemon's own state is domain-audited too.  dsp_util is
         a root in its own right since the work-stealing scheduler:
         Wsdeque.steal is a cross-domain entry point, so the audit of
         lib/util must not hinge on the engine cone keeping a
         dependency edge to it. *)
      reachable_lib_dirs ~root
        ~roots:[ "dsp_exact"; "dsp_engine"; "dsp_serve"; "dsp_util" ];
    r3_dirs = [ "lib/exact"; "lib/lp" ];
    r4_sites_file = Some "lib/util/instr.ml";
    r5_allow = [ "lib/util/pool.ml" ];
  }

(* ----- parsing and suppressions --------------------------------------- *)

type source = {
  path : string;
  structure : P.structure;
  waivers : (int * rule_id) list;  (* (line, rule) comment waivers *)
  ignored : rule_id list;  (* file-level [@@@lint.ignore "..."] *)
}

(* Comment waivers live outside the parsetree, so they are recovered
   from the raw text: any line containing "lint: ok R<k>" waives R<k>
   on that line and the next; "lint: local" is the R2 form. *)
let scan_waivers text =
  let waivers = ref [] in
  let contains_at line pat i =
    let lp = String.length pat and ll = String.length line in
    i + lp <= ll && String.sub line i lp = pat
  in
  let find_all line pat f =
    let ll = String.length line in
    for i = 0 to ll - 1 do
      if contains_at line pat i then f (i + String.length pat)
    done
  in
  List.iteri
    (fun idx line ->
      let lnum = idx + 1 in
      find_all line "lint: local" (fun _ -> waivers := (lnum, R2) :: !waivers);
      find_all line "lint: ok" (fun j ->
          (* Collect every R<digit> token in the rest of the line. *)
          let rest = String.sub line j (String.length line - j) in
          String.split_on_char ' ' rest
          |> List.iter (fun tok ->
                 let tok =
                   String.concat ""
                     (String.split_on_char ','
                        (String.concat "" (String.split_on_char '*' tok)))
                 in
                 let tok =
                   String.concat "" (String.split_on_char ')' tok)
                 in
                 match rule_of_string tok with
                 | Some r -> waivers := (lnum, r) :: !waivers
                 | None -> ())))
    (String.split_on_char '\n' text);
  !waivers

let file_level_ignores structure =
  List.concat_map
    (fun (item : P.structure_item) ->
      match item.pstr_desc with
      | P.Pstr_attribute { attr_name = { txt = "lint.ignore"; _ }; attr_payload; _ }
        -> (
          match attr_payload with
          | P.PStr
              [
                {
                  pstr_desc =
                    P.Pstr_eval
                      ( { pexp_desc = P.Pexp_constant (P.Pconst_string (s, _, _)); _ },
                        _ );
                  _;
                };
              ] ->
              String.split_on_char ' ' s
              |> List.concat_map (String.split_on_char ',')
              |> List.filter_map rule_of_string
          | _ -> [])
      | _ -> [])
    structure

let load_source path =
  match read_file path with
  | exception Sys_error e -> Error (Printf.sprintf "%s: %s" path e)
  | text -> (
      let lexbuf = Lexing.from_string text in
      Location.init lexbuf path;
      match Parse.implementation lexbuf with
      | structure ->
          Ok
            {
              path;
              structure;
              waivers = scan_waivers text;
              ignored = file_level_ignores structure;
            }
      | exception e ->
          Error (Printf.sprintf "%s: parse error: %s" path (Printexc.to_string e)))

let suppressed src rule line =
  List.mem rule src.ignored
  || List.exists
       (fun (l, r) -> r = rule && (l = line || l = line - 1))
       src.waivers

(* ----- AST helpers ---------------------------------------------------- *)

let loc_line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (_, l) -> flatten_lid l

let last_lid lid =
  match List.rev (flatten_lid lid) with s :: _ -> s | [] -> ""

let rec pat_var (p : P.pattern) =
  match p.ppat_desc with
  | P.Ppat_var { txt; _ } -> Some txt
  | P.Ppat_constraint (p, _) -> pat_var p
  | _ -> None

let rec strip_expr (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_constraint (e, _) | P.Pexp_coerce (e, _, _) -> strip_expr e
  | _ -> e

let rec is_function (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_fun _ | P.Pexp_function _ -> true
  | P.Pexp_constraint (e, _) | P.Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* Top-level value bindings of the file, descending into plain
   [module M = struct ... end] substructures (binding names stay
   unqualified). *)
let top_bindings structure =
  let rec of_items items acc =
    List.fold_left
      (fun acc (item : P.structure_item) ->
        match item.pstr_desc with
        | P.Pstr_value (_, vbs) ->
            List.fold_left
              (fun acc vb ->
                match pat_var vb.P.pvb_pat with
                | Some name -> (name, vb) :: acc
                | None -> acc)
              acc vbs
        | P.Pstr_module { pmb_expr; _ } -> of_module pmb_expr acc
        | _ -> acc)
      acc items
  and of_module (me : P.module_expr) acc =
    match me.pmod_desc with
    | P.Pmod_structure items -> of_items items acc
    | P.Pmod_constraint (me, _) -> of_module me acc
    | _ -> acc
  in
  List.rev (of_items structure [])

(* ----- R1: overflow --------------------------------------------------- *)

let r1_ops = [ "+"; "-"; "*" ]

let r1_checked_name = function
  | "+" -> "Xutil.checked_add"
  | "*" -> "Xutil.checked_mul"
  | _ -> "Xutil.checked_add (on the negated operand)"

let is_r1_op lid =
  match lid with
  | Longident.Lident s when List.mem s r1_ops -> true
  | Longident.Ldot (Longident.Lident "Stdlib", s) when List.mem s r1_ops ->
      true
  | _ -> false

(* Index-stepping idiom: an operand that is a small integer literal
   ([i + 1], [2 * v]) cannot be the paper-scale accumulation the rule
   is after, so it is exempt. *)
let small_literal_limit = 4096

let is_small_literal (e : P.expression) =
  match (strip_expr e).pexp_desc with
  | P.Pexp_constant (P.Pconst_integer (s, None)) -> (
      match int_of_string_opt s with
      | Some v -> abs v < small_literal_limit
      | None -> false)
  | _ -> false

let r1_designated target name =
  match target with
  | All -> true
  | Only names -> List.mem name names
  | Except names -> not (List.mem name names)

let r1_check cfg src emit =
  match
    List.find_opt (fun (sfx, _) -> has_suffix src.path sfx) cfg.r1_scope
  with
  | None -> ()
  | Some (_, target) ->
      let rec scan (e : P.expression) =
        match e.pexp_desc with
        | P.Pexp_apply
            ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ])
          when is_r1_op txt ->
            let op = last_lid txt in
            if not (is_small_literal a || is_small_literal b) then begin
              let line, col = loc_line_col e.pexp_loc in
              emit R1 line col
                (Printf.sprintf
                   "raw int ( %s ) on an overflow-sensitive path; use %s or \
                    waive with (* lint: ok R1 *)"
                   op (r1_checked_name op))
            end;
            scan a;
            scan b
        | P.Pexp_ident { txt; _ } when is_r1_op txt ->
            let line, col = loc_line_col e.pexp_loc in
            emit R1 line col
              (Printf.sprintf
                 "raw int operator ( %s ) passed as a value on an \
                  overflow-sensitive path; use %s"
                 (last_lid txt)
                 (r1_checked_name (last_lid txt)))
        | _ ->
            let it =
              {
                Ast_iterator.default_iterator with
                expr = (fun _ e -> scan e);
              }
            in
            Ast_iterator.default_iterator.expr it e
      in
      let bindings = top_bindings src.structure in
      List.iter
        (fun (name, vb) ->
          if r1_designated target name then scan vb.P.pvb_expr)
        bindings;
      (* A configured name with no binding here is a stale scope entry:
         report it, since it would otherwise audit nothing. *)
      let named = match target with All -> [] | Only ns | Except ns -> ns in
      List.iter
        (fun name ->
          if not (List.mem_assoc name bindings) then
            emit R1 1 0
              (Printf.sprintf
                 "R1 scope names `%s`, but this file has no top-level \
                  binding of that name; fix or drop the stale entry"
                 name))
        named

(* ----- R2: domain-safety ---------------------------------------------- *)

let r2_mutable_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let is_mutable_ctor lid =
  let comps = flatten_lid lid in
  let comps =
    match comps with "Stdlib" :: rest when rest <> [] -> rest | c -> c
  in
  List.mem comps r2_mutable_ctors

let r2_check cfg src emit =
  if in_dirs src.path cfg.r2_dirs then
    List.iter
      (fun (name, vb) ->
        let rhs = strip_expr vb.P.pvb_expr in
        let flag kind =
          let line, col = loc_line_col vb.P.pvb_loc in
          emit R2 line col
            (Printf.sprintf
               "toplevel mutable state `%s` (%s) in a domain-shared library; \
                wrap it in Atomic/Mutex/Domain.DLS or waive with (* lint: \
                local *)"
               name kind)
        in
        match rhs.pexp_desc with
        | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _)
          when is_mutable_ctor txt ->
            flag (String.concat "." (flatten_lid txt))
        | P.Pexp_array _ -> flag "array literal"
        | _ -> ())
      (top_bindings src.structure)

(* ----- R3: budget-totality -------------------------------------------- *)

let budget_checkpoints = [ "check"; "poll"; "check_opt"; "poll_opt" ]

let is_budget_call lid =
  let comps = flatten_lid lid in
  match List.rev comps with
  | last :: rest ->
      List.mem last budget_checkpoints && List.mem "Budget" rest
  | [] -> false

(* (directly-checkpointed?, applied function names) of a subtree. *)
let expr_calls e =
  let direct = ref false and calls = ref SS.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.P.pexp_desc with
          | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _) ->
              if is_budget_call txt then direct := true
              else calls := SS.add (last_lid txt) !calls
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  (!direct, !calls)

let r3_check cfg src emit =
  if in_dirs src.path cfg.r3_dirs then begin
    (* Pass 1: every named binding in the file, with its call set. *)
    let bindings = ref [] and rec_bindings = ref [] in
    let record ~recursive vbs =
      List.iter
        (fun vb ->
          match pat_var vb.P.pvb_pat with
          | Some name ->
              let direct, calls = expr_calls vb.P.pvb_expr in
              bindings := (name, direct, calls) :: !bindings;
              if recursive then rec_bindings := (name, vb, direct, calls) :: !rec_bindings
          | None -> ())
        vbs
    in
    let it =
      {
        Ast_iterator.default_iterator with
        structure_item =
          (fun it si ->
            (match si.P.pstr_desc with
            | P.Pstr_value (rf, vbs) ->
                record ~recursive:(rf = Asttypes.Recursive) vbs
            | _ -> ());
            Ast_iterator.default_iterator.structure_item it si);
        expr =
          (fun it e ->
            (match e.P.pexp_desc with
            | P.Pexp_let (rf, vbs, _) ->
                record ~recursive:(rf = Asttypes.Recursive) vbs
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it src.structure;
    (* Checkpoint closure: a function checkpoints if its body polls the
       budget or calls (by name) a function that does. *)
    let checkpointed =
      ref
        (List.fold_left
           (fun acc (n, direct, _) -> if direct then SS.add n acc else acc)
           SS.empty !bindings)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (n, _, calls) ->
          if
            (not (SS.mem n !checkpointed))
            && SS.exists (fun c -> SS.mem c !checkpointed) calls
          then begin
            checkpointed := SS.add n !checkpointed;
            changed := true
          end)
        !bindings
    done;
    (* Pass 2: recursive functions that never reach a checkpoint. *)
    List.iter
      (fun (name, vb, direct, calls) ->
        if
          is_function vb.P.pvb_expr
          && (not direct)
          && not (SS.exists (fun c -> SS.mem c !checkpointed) calls)
        then begin
          let line, col = loc_line_col vb.P.pvb_loc in
          emit R3 line col
            (Printf.sprintf
               "recursive function `%s` loops without a Budget checkpoint; \
                call Budget.check/poll (directly or via a checkpointing \
                helper) or waive with (* lint: ok R3 *)"
               name)
        end)
      (List.rev !rec_bindings)
  end

(* ----- R4: instr-registry --------------------------------------------- *)

type r4_state = {
  mutable sites : (string * string * int) list;
      (* binding name, wire name, line in the sites file *)
  mutable sites_src : source option;
  mutable used : SS.t;  (* Sites bindings referenced outside the table *)
  mutable literals : (source * int * int * string) list;
      (* Instr.counter string literals: src, line, col, value *)
}

let r4_create () =
  { sites = []; sites_src = None; used = SS.empty; literals = [] }

let is_instr_counter lid =
  let comps = flatten_lid lid in
  match List.rev comps with
  | "counter" :: rest -> List.mem "Instr" rest
  | _ -> false

let extract_sites structure =
  let rec of_items items =
    List.concat_map
      (fun (item : P.structure_item) ->
        match item.pstr_desc with
        | P.Pstr_module { pmb_name = { txt = Some "Sites"; _ }; pmb_expr; _ }
          -> (
            let rec body (me : P.module_expr) =
              match me.pmod_desc with
              | P.Pmod_structure items -> items
              | P.Pmod_constraint (me, _) -> body me
              | _ -> []
            in
            body pmb_expr
            |> List.concat_map (fun (si : P.structure_item) ->
                   match si.pstr_desc with
                   | P.Pstr_value (_, vbs) ->
                       List.filter_map
                         (fun vb ->
                           match
                             (pat_var vb.P.pvb_pat, (strip_expr vb.P.pvb_expr).pexp_desc)
                           with
                           | Some name, P.Pexp_constant (P.Pconst_string (v, _, _))
                             ->
                               let line, _ = loc_line_col vb.P.pvb_loc in
                               Some (name, v, line)
                           | _ -> None)
                         vbs
                   | _ -> []))
        | P.Pstr_module { pmb_expr = { pmod_desc = P.Pmod_structure items; _ }; _ }
          ->
            of_items items
        | _ -> [])
      items
  in
  of_items structure

let r4_collect cfg st src =
  let is_sites_file =
    match cfg.r4_sites_file with
    | Some sfx -> has_suffix src.path sfx
    | None -> false
  in
  if is_sites_file then begin
    st.sites <- extract_sites src.structure;
    st.sites_src <- Some src
  end;
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.P.pexp_desc with
          | P.Pexp_ident { txt; _ }
            when (not is_sites_file) && List.mem "Sites" (flatten_lid txt) ->
              st.used <- SS.add (last_lid txt) st.used
          | P.Pexp_apply
              ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, (_, arg) :: _)
            when is_instr_counter txt -> (
              match (strip_expr arg).pexp_desc with
              | P.Pexp_constant (P.Pconst_string (v, _, _)) ->
                  let line, col = loc_line_col arg.P.pexp_loc in
                  st.literals <- (src, line, col, v) :: st.literals
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it src.structure

let r4_finalize cfg st =
  match cfg.r4_sites_file with
  | None -> []
  | Some sfx -> (
      match st.sites_src with
      | None ->
          [
            {
              rule = R4;
              file = sfx;
              line = 1;
              col = 0;
              msg =
                "canonical sites file was not among the scanned paths, so \
                 rule R4 cannot run";
            };
          ]
      | Some sites_src ->
          let values = List.map (fun (_, v, _) -> v) st.sites in
          let literal_findings =
            List.filter_map
              (fun (src, line, col, v) ->
                if List.mem v values || suppressed src R4 line then None
                else
                  Some
                    {
                      rule = R4;
                      file = src.path;
                      line;
                      col;
                      msg =
                        Printf.sprintf
                          "counter literal %S is not a canonical Instr.Sites \
                           name; add it to the table or reference an \
                           existing site"
                          v;
                    })
              (List.rev st.literals)
          in
          (* A literal equal to a site's wire name also counts as a use:
             the site is demonstrably alive even if unreferenced by
             binding. *)
          let literal_values =
            List.fold_left
              (fun acc (_, _, _, v) -> SS.add v acc)
              SS.empty st.literals
          in
          let dead_findings =
            List.filter_map
              (fun (name, v, line) ->
                if
                  SS.mem name st.used
                  || SS.mem v literal_values
                  || suppressed sites_src R4 line
                then None
                else
                  Some
                    {
                      rule = R4;
                      file = sites_src.path;
                      line;
                      col = 0;
                      msg =
                        Printf.sprintf
                          "dead instrumentation site: Sites.%s (%S) is never \
                           referenced outside the table"
                          name v;
                    })
              st.sites
          in
          literal_findings @ dead_findings)

(* ----- R5: exception-swallowing --------------------------------------- *)

let rec catch_all (p : P.pattern) =
  match p.ppat_desc with
  | P.Ppat_any -> true
  | P.Ppat_alias (p, _) | P.Ppat_constraint (p, _) -> catch_all p
  | P.Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let r5_check cfg src emit =
  if not (List.exists (fun sfx -> has_suffix src.path sfx) cfg.r5_allow) then begin
    let flag (case : P.case) =
      let line, col = loc_line_col case.pc_lhs.ppat_loc in
      emit R5 line col
        "bare `with _ ->` swallows every exception (including Budget.Expired \
         and Fault.Injected); match specific exceptions, rebind and re-raise, \
         or waive with (* lint: ok R5 *)"
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.P.pexp_desc with
            | P.Pexp_try (_, cases) ->
                List.iter
                  (fun (c : P.case) -> if catch_all c.pc_lhs then flag c)
                  cases
            | P.Pexp_match (_, cases) ->
                List.iter
                  (fun (c : P.case) ->
                    match c.pc_lhs.ppat_desc with
                    | P.Ppat_exception p when catch_all p -> flag c
                    | _ -> ())
                  cases
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it src.structure
  end

(* ----- driver --------------------------------------------------------- *)

let rec collect_ml_files path acc =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "" || entry.[0] = '.' || entry.[0] = '_' then acc
             else collect_ml_files (Filename.concat path entry) acc)
           acc
  | false -> if Filename.check_suffix path ".ml" then path :: acc else acc

(* Total order on findings — (file, line, col), then rule, then the
   message text — so output is byte-for-byte deterministic across runs
   and CI diffs stay stable even when one location carries several
   findings of the same rule. *)
let compare_findings a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare (a.line, a.col) (b.line, b.col) in
    if c <> 0 then c
    else
      let c = compare a.rule b.rule in
      if c <> 0 then c else compare a.msg b.msg

type result = { findings : finding list; errors : string list; files : int }

let run ?only cfg paths =
  let active r =
    match only with None -> true | Some rules -> List.mem r rules
  in
  let files =
    List.concat_map (fun p -> List.rev (collect_ml_files p [])) paths
    |> List.sort_uniq compare
  in
  let findings = ref [] and errors = ref [] in
  let r4 = r4_create () in
  List.iter
    (fun path ->
      match load_source path with
      | Error e -> errors := e :: !errors
      | Ok src ->
          let emit rule line col msg =
            if not (suppressed src rule line) then
              findings := { rule; file = src.path; line; col; msg } :: !findings
          in
          if active R1 then r1_check cfg src emit;
          if active R2 then r2_check cfg src emit;
          if active R3 then r3_check cfg src emit;
          if active R4 then r4_collect cfg r4 src;
          if active R5 then r5_check cfg src emit)
    files;
  let r4_findings =
    if active R4 then
      List.filter
        (fun f ->
          match r4.sites_src with
          | Some src -> not (List.mem f.rule src.ignored) || f.file <> src.path
          | None -> true)
        (r4_finalize cfg r4)
    else []
  in
  {
    findings = List.sort compare_findings (r4_findings @ !findings);
    errors = List.rev !errors;
    files = List.length files;
  }
