(* Whole-program analysis driver for R6–R10: lowers .cmt typedtrees to
   per-module event summaries through [Lint_tast], builds the
   cross-module call graph and runs R6–R9 on it, checks the exports of
   the .cmti interfaces against every unit's references (R10), then
   applies the same waiver channels the per-file rules honour.  [run]
   serves the production tree (`@lint`) and the compiled fixtures (the
   golden tests) alike.

   Every run summarizes every unit afresh.  Incrementality is dune's
   job: the @lint rule depends on every typedtree, so it reruns
   exactly when one changes, and it reads what that build wrote. *)

module Ir = Lint_ir

(* Source prefixes are root-relative, e.g. "lib/". *)
type config = {
  r7_roots : string list;  (* hot-path entry points, joined names *)
  r8_roots : string list;  (* request handlers, joined names *)
  r10_exports : string list;  (* prefixes whose interfaces R10 checks *)
  r10_tests : string list;  (* prefixes of the units that are tests *)
}

(* The production configuration: the flat Segtree kernel's hot-path
   entry points (the ones the perf gate's alloc probe samples), the
   session's migration repair scan and candidate selection, the serve
   daemon's request dispatcher, and the library's interfaces.  Every
   unit read counts as a user of those: the lint fixtures' Wal and
   Protocol stubs are unwrapped, so their names never reach the
   wrapped Dsp_* paths R10 looks up. *)
let project_config =
  {
    r7_roots =
      [
        "Segtree.range_add";
        "Segtree.range_max";
        "Segtree.first_fit_from_i";
        "Segtree.find_last_above_i";
        "Segtree.first_above";
        "Session.covering";
        "Session.tallest";
      ];
    r8_roots = [ "Server.handle" ];
    r10_exports = [ "lib/" ];
    r10_tests = [ "test/" ];
  }

type result = {
  findings : Lint_core.finding list;
  errors : string list;
  units : int;  (* summaries in the call graph *)
  exports : int;  (* values R10 checked *)
}

(* ----- rule evaluation ------------------------------------------------- *)

(* A configured root the call graph does not define leaves its rule
   nothing to check, so it is reported rather than skipped.  The
   finding sits on line 1 of the root's unit when that unit was
   loaded. *)
let stale_roots summaries cg rule roots =
  List.filter_map
    (fun root ->
      if Lint_callgraph.find cg root <> None then None
      else
        let unit = List.hd (String.split_on_char '.' root) in
        let file =
          match
            List.find_opt (fun (s : Ir.summary) -> s.Ir.unit_name = unit)
              summaries
          with
          | Some s -> s.Ir.src_file
          | None -> root
        in
        Some
          {
            Lint_core.rule;
            file;
            line = 1;
            col = 0;
            msg =
              Printf.sprintf
                "configured %s root `%s` is not defined in the call graph, \
                 so the rule checks nothing from it; fix or drop the stale \
                 root"
                (Lint_core.rule_name rule) root;
          })
    roots

let analyze ?(only = Lint_core.whole_program_rules) ~config summaries =
  let cg = Lint_callgraph.build summaries in
  let active r = List.mem r only in
  let f6 = if active Lint_core.R6 then Lint_r6_locks.check cg else [] in
  let f7 =
    if active Lint_core.R7 then
      stale_roots summaries cg Lint_core.R7 config.r7_roots
      @ Lint_r7_alloc.check cg ~roots:config.r7_roots
    else []
  in
  let f8 =
    if active Lint_core.R8 then
      stale_roots summaries cg Lint_core.R8 config.r8_roots
      @ Lint_r8_wal.check cg ~roots:config.r8_roots
    else []
  in
  let f9 = if active Lint_core.R9 then Lint_r9_block.check cg else [] in
  f6 @ f7 @ f8 @ f9

(* Apply the waiver channels — (* lint: ok R# *) line comments and
   [@@@lint.ignore "R#"] file attributes — by loading each finding's
   source file relative to [root].  A file that cannot be loaded keeps
   its findings: suppression must be visible to be honoured. *)
let apply_waivers ~root findings =
  let sources = Hashtbl.create 8 in
  let source_for file =
    match Hashtbl.find_opt sources file with
    | Some s -> s
    | None ->
        let path =
          if Sys.file_exists file then file else Filename.concat root file
        in
        let s =
          match Lint_core.load_source path with
          | Ok src -> Some src
          | Error _ -> None
        in
        Hashtbl.add sources file s;
        s
  in
  List.filter
    (fun (f : Lint_core.finding) ->
      match source_for f.Lint_core.file with
      | None -> true
      | Some src ->
          not (Lint_core.suppressed src f.Lint_core.rule f.Lint_core.line))
    findings

let dedup_sorted findings =
  let sorted = List.sort Lint_core.compare_findings findings in
  let rec uniq = function
    | a :: (b :: _ as rest) when a = b -> uniq rest
    | a :: rest -> a :: uniq rest
    | [] -> []
  in
  uniq sorted

(* ----- entry points ---------------------------------------------------- *)

(* Analyze the artifacts among [cmts]: the implementation .cmts whose
   source sits under one of [src_prefixes] form the call graph of
   R6–R9 (the first unit of each name wins); R10 checks the .cmti
   interfaces under [config.r10_exports] against the references of
   every .cmt.  Waivers are read from the sources under [root].  A
   rule with nothing to read is an error, not a clean run. *)
let run ?(only = Lint_core.whole_program_rules) ~config ~root ~src_prefixes
    cmts =
  let in_graph = Lint_tast.src_in_prefixes src_prefixes in
  let cmtis, cmts = List.partition (fun p -> Filename.check_suffix p ".cmti") cmts in
  let read =
    List.filter_map
      (fun cmt -> Result.to_option (Lint_tast.summarize_cmt ~lower:in_graph cmt))
      cmts
  in
  let seen_units = Hashtbl.create 64 in
  let summaries =
    List.filter
      (fun (s : Ir.summary) ->
        in_graph s.src_file
        && (not (Hashtbl.mem seen_units s.unit_name))
        && (Hashtbl.add seen_units s.unit_name (); true))
      read
  in
  let r10 = List.mem Lint_core.R10 only in
  let interfaces, unreadable =
    if not r10 then ([], [])
    else
      List.partition_map
        (fun p -> Result.fold ~ok:Either.left ~error:Either.right
                    (Lint_r10_exports.exports_of_cmti p))
        cmtis
  in
  let exports =
    List.concat interfaces
    |> List.filter (fun (e : Lint_r10_exports.export) ->
           Lint_tast.src_in_prefixes config.r10_exports e.pos.Ir.file)
  in
  let errors =
    (if summaries <> [] then []
     else
       [ Printf.sprintf "no .cmt artifacts found under %s — run `dune build \
                         @check` first so the whole-program rules have \
                         typedtrees to analyze" root ])
    @ unreadable
    @
    if r10 && exports = [] then
      [ Printf.sprintf "R10 found no exported value in a .cmti under %s — \
                        run `dune build @check` first" root ]
    else []
  in
  let is_test = Lint_tast.src_in_prefixes config.r10_tests in
  let findings =
    analyze ~only ~config summaries
    @ Lint_r10_exports.check ~is_test ~users:read exports
    |> apply_waivers ~root |> dedup_sorted
  in
  { findings; errors; units = List.length summaries; exports = List.length exports }

let run_project ?only ~root () =
  run ?only ~config:project_config ~root
    ~src_prefixes:[ "lib/"; "bin/"; "bench/" ]
    (Lint_tast.discover_cmts ~root)
