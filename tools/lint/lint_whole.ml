(* Whole-program analysis driver for R6–R9: lowers .cmt typedtrees to
   per-module event summaries through [Lint_tast], builds the
   cross-module call graph and runs the four rules, then applies the
   same waiver channels the per-file rules honour.  [run] serves the
   production tree (`@lint`) and the compiled fixtures (the golden
   tests) alike.

   Every run summarizes every unit afresh.  Incrementality is dune's
   job: the @lint rule depends on every typedtree, so it reruns
   exactly when one changes, and it reads what that build wrote. *)

module Ir = Lint_ir

type config = {
  r7_roots : string list;  (* hot-path entry points, joined names *)
  r8_roots : string list;  (* request handlers, joined names *)
}

(* The production configuration: the flat Segtree kernel's hot-path
   entry points (the ones the perf gate's alloc probe samples), the
   session's migration repair scan and candidate selection, and the
   serve daemon's request dispatcher. *)
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
  }

type result = {
  findings : Lint_core.finding list;
  errors : string list;
  units : int;  (* summaries in the call graph *)
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

(* Analyze the implementation .cmts among [cmts] whose source file
   sits under one of [src_prefixes] (root-relative, e.g. "lib/"); the
   first unit of each name wins.  Interface-only and pack artifacts
   are not units and are skipped.  Waivers are read from the sources
   under [root]. *)
let run ?only ~config ~root ~src_prefixes cmts =
  let seen_units = Hashtbl.create 64 in
  let summaries =
    List.filter_map
      (fun cmt ->
        match Lint_tast.summarize_cmt cmt with
        | Error _ -> None
        | Ok s ->
            if
              Lint_tast.src_in_prefixes src_prefixes s.Ir.src_file
              && not (Hashtbl.mem seen_units s.Ir.unit_name)
            then begin
              Hashtbl.add seen_units s.Ir.unit_name ();
              Some s
            end
            else None)
      cmts
  in
  let errors =
    if summaries <> [] then []
    else
      [ Printf.sprintf "no .cmt artifacts found under %s — run `dune build \
                        @check` first so the whole-program rules have \
                        typedtrees to analyze" root ]
  in
  let findings =
    analyze ?only ~config summaries |> apply_waivers ~root |> dedup_sorted
  in
  { findings; errors; units = List.length summaries }

let run_project ?only ~root () =
  run ?only ~config:project_config ~root
    ~src_prefixes:[ "lib/"; "bin/"; "bench/" ]
    (Lint_tast.discover_cmts ~root)
