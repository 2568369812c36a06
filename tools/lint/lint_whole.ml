(* Whole-program analysis driver for R6–R9: loads per-module event
   summaries (typedtree .cmt artifacts in production, parsetree
   fixtures in tests), caches them per content digest, builds the
   cross-module call graph and runs the four rules, then applies the
   same waiver channels the per-file rules honour.

   The cache makes warm reruns cheap: a summary is recomputed only
   when its .cmt (or fixture source) digest changed, so an edit to one
   module re-analyzes one module.  Rule evaluation itself always runs
   — it is interprocedural, so any summary change can change any
   finding — but it is linear in the summary sizes and costs
   milliseconds. *)

module Ir = Lint_ir

type config = {
  r7_roots : string list;  (* hot-path entry points, joined names *)
  r8_roots : string list;  (* request handlers, joined names *)
}

(* The production configuration: the flat Segtree kernel's hot-path
   entry points (the ones the perf gate's alloc probe samples) and the
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
      ];
    r8_roots = [ "Server.handle" ];
  }

type result = {
  findings : Lint_core.finding list;
  errors : string list;
  units : int;  (* summaries in the call graph *)
  analyzed : int;  (* summaries recomputed this run *)
  cached : int;  (* summaries served from the digest cache *)
}

(* ----- summary cache --------------------------------------------------- *)

(* Bump when the IR or a front-end changes shape: stale caches must
   miss, not misparse. *)
let cache_version = 1

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let cache_key name =
  String.map (fun c -> if c = '/' || c = '\\' || c = ':' then '_' else c) name

let cache_path dir key = Filename.concat dir (cache_key key ^ ".sum")

let cache_get ~cache_dir ~key ~digest : Ir.summary option =
  match cache_dir with
  | None -> None
  | Some dir -> (
      let path = cache_path dir key in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic -> (
          let r =
            match Marshal.from_channel ic with
            | exception _ -> None
            | v, d, (s : Ir.summary) ->
                if v = cache_version && d = digest then Some s else None
          in
          close_in_noerr ic;
          r))

let cache_put ~cache_dir ~key ~digest (s : Ir.summary) =
  match cache_dir with
  | None -> ()
  | Some dir -> (
      try
        mkdir_p dir;
        let path = cache_path dir key in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        Marshal.to_channel oc (cache_version, digest, s) [];
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ -> ())

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

(* ----- fixture entry point (parsetree front-end) ----------------------- *)

let run_files ?only ?cache_dir ~config paths =
  let analyzed = ref 0 and cached = ref 0 and errors = ref [] in
  let summaries =
    List.filter_map
      (fun path ->
        match Lint_core.read_file path with
        | exception Sys_error e ->
            errors := Printf.sprintf "%s: %s" path e :: !errors;
            None
        | text -> (
            let digest = Digest.string text in
            match cache_get ~cache_dir ~key:path ~digest with
            | Some s ->
                incr cached;
                Some s
            | None -> (
                let lexbuf = Lexing.from_string text in
                Location.init lexbuf path;
                match Parse.implementation lexbuf with
                | exception e ->
                    errors :=
                      Printf.sprintf "%s: parse error: %s" path
                        (Printexc.to_string e)
                      :: !errors;
                    None
                | structure ->
                    let s =
                      Ir.Of_parsetree.of_structure ~file:path structure
                    in
                    incr analyzed;
                    cache_put ~cache_dir ~key:path ~digest s;
                    Some s)))
      (List.sort_uniq compare paths)
  in
  let findings =
    analyze ?only ~config summaries |> apply_waivers ~root:"." |> dedup_sorted
  in
  {
    findings;
    errors = List.rev !errors;
    units = List.length summaries;
    analyzed = !analyzed;
    cached = !cached;
  }

(* ----- production entry point (typedtree front-end) -------------------- *)

let src_prefixes = [ "lib/"; "bin/"; "bench/" ]

let run_project ?only ?cache_dir ~root () =
  let analyzed = ref 0 and cached = ref 0 and errors = ref [] in
  let seen_units = Hashtbl.create 64 in
  let summaries =
    List.filter_map
      (fun cmt ->
        match Digest.file cmt with
        | exception Sys_error _ -> None
        | digest -> (
            let summary =
              match cache_get ~cache_dir ~key:cmt ~digest with
              | Some s -> Some (s, true)
              | None -> (
                  match Lint_tast.summarize_cmt cmt with
                  | Ok s ->
                      cache_put ~cache_dir ~key:cmt ~digest s;
                      Some (s, false)
                  | Error _ ->
                      (* interface-only or pack artifact: not a unit *)
                      None)
            in
            match summary with
            | None -> None
            | Some (s, was_cached) ->
                if
                  Lint_tast.src_in_prefixes src_prefixes s.Ir.src_file
                  && not (Hashtbl.mem seen_units s.Ir.unit_name)
                then begin
                  Hashtbl.add seen_units s.Ir.unit_name ();
                  if was_cached then incr cached else incr analyzed;
                  Some s
                end
                else None))
      (Lint_tast.discover_cmts ~root)
  in
  if summaries = [] then
    errors :=
      Printf.sprintf
        "no .cmt artifacts found under %s — run `dune build` first so the \
         whole-program rules have typedtrees to analyze"
        root
      :: !errors;
  let findings =
    analyze ?only ~config:project_config summaries
    |> apply_waivers ~root |> dedup_sorted
  in
  {
    findings;
    errors = List.rev !errors;
    units = List.length summaries;
    analyzed = !analyzed;
    cached = !cached;
  }
