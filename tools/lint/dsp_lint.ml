(* dsp_lint: command-line driver for the project invariant checker.

   R1–R5 are per-file parsetree rules over the given paths; R6–R9 are
   whole-program rules over the compiler's .cmt typedtree artifacts
   (discovered under <root>/_build/default, or under <root> itself
   when already inside the build tree).  They are read as they are on
   disk; `dune build @lint` rebuilds every one before it runs this.

   Exit status: 0 when clean, 1 when findings were reported, 2 on
   usage/parse errors. *)

let usage () =
  prerr_endline
    "usage: dsp_lint [options] [PATH...]";
  prerr_endline "  --list-rules     describe the rules and exit";
  prerr_endline
    "  --only RULES     run only these rules (comma-separated, e.g. R6,R8)";
  prerr_endline
    "  --except RULES   run all rules except these (comma-separated)";
  prerr_endline
    "  --root DIR       project root (default .); sets rule scopes and the";
  prerr_endline "                   .cmt search path for R6-R9";
  prerr_endline
    "  --format FMT     output format: text (default) or sarif";
  prerr_endline
    "  PATH...          files or directories for R1-R5, each of which must \
     exist";
  prerr_endline "                   (default: lib bin bench)";
  exit 2

let list_rules () =
  List.iter
    (fun r ->
      Printf.printf "%s  %s\n" (Lint_core.rule_name r)
        (Lint_core.rule_summary r))
    Lint_core.all_rules;
  print_endline "";
  print_endline "suppressions:";
  print_endline
    "  (* lint: ok R<k> *)     waives R<k> on this line and the next";
  print_endline
    "  (* lint: local *)       the R2 form, for deliberately local state";
  print_endline
    "  [@@@lint.ignore \"R<k>\"]  waives R<k> for the whole file";
  exit 0

let parse_rules flag spec =
  let rules =
    String.split_on_char ',' spec |> List.filter_map Lint_core.rule_of_string
  in
  let expected = List.length (String.split_on_char ',' spec) in
  if rules = [] || List.length rules <> expected then begin
    Printf.eprintf "dsp_lint: bad %s spec %S (rules are R1..R9)\n" flag spec;
    exit 2
  end;
  rules

let () =
  let root = ref "." in
  let only = ref None in
  let except = ref [] in
  let format = ref `Text in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--list-rules" :: _ -> list_rules ()
    | "--only" :: spec :: rest ->
        only := Some (parse_rules "--only" spec);
        parse rest
    | "--except" :: spec :: rest ->
        except := parse_rules "--except" spec @ !except;
        parse rest
    | "--root" :: dir :: rest ->
        root := dir;
        parse rest
    | "--format" :: fmt :: rest ->
        (format :=
           match fmt with
           | "text" -> `Text
           | "sarif" -> `Sarif
           | _ ->
               Printf.eprintf "dsp_lint: bad --format %S (text or sarif)\n" fmt;
               exit 2);
        parse rest
    | p :: _ when String.starts_with ~prefix:"-" p ->
        (* --help, an option missing its argument, or an unknown one *)
        usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    let base = match !only with None -> Lint_core.all_rules | Some rs -> rs in
    List.filter (fun r -> not (List.mem r !except)) base
  in
  if selected = [] then begin
    prerr_endline "dsp_lint: --only/--except selected no rules";
    exit 2
  end;
  let syntactic =
    List.filter (fun r -> List.mem r Lint_core.syntactic_rules) selected
  in
  let whole =
    List.filter (fun r -> List.mem r Lint_core.whole_program_rules) selected
  in
  let paths =
    match List.rev !paths with
    | [] ->
        [ "lib"; "bin"; "bench" ]
        |> List.map (Filename.concat !root)
        |> List.filter Sys.file_exists
    | ps ->
        (* A mistyped path would otherwise lint nothing and pass. *)
        (match List.filter (fun p -> not (Sys.file_exists p)) ps with
        | [] -> ()
        | missing ->
            List.iter (Printf.eprintf "dsp_lint: no such path %S\n") missing;
            exit 2);
        ps
  in
  let syn_result =
    if syntactic = [] then None
    else Some (Lint_core.run ~only:syntactic (Lint_core.project_config ~root:!root) paths)
  in
  let whole_result =
    if whole = [] then None
    else Some (Lint_whole.run_project ~only:whole ~root:!root ())
  in
  let findings =
    (match syn_result with Some r -> r.Lint_core.findings | None -> [])
    @ (match whole_result with Some r -> r.Lint_whole.findings | None -> [])
    |> List.sort Lint_core.compare_findings
  in
  let errors =
    (match syn_result with Some r -> r.Lint_core.errors | None -> [])
    @ match whole_result with Some r -> r.Lint_whole.errors | None -> []
  in
  List.iter prerr_endline errors;
  (match !format with
  | `Text -> print_string (Lint_report.to_text findings)
  | `Sarif -> print_string (Lint_report.to_sarif findings));
  (match whole_result with
  | Some r ->
      Printf.eprintf "dsp_lint: whole-program: %d units\n" r.Lint_whole.units
  | None -> ());
  let n = List.length findings in
  let files =
    match syn_result with Some r -> r.Lint_core.files | None -> 0
  in
  if errors <> [] then exit 2
  else if n > 0 then begin
    Printf.eprintf "dsp_lint: %d finding%s in %d files\n" n
      (if n = 1 then "" else "s")
      files;
    exit 1
  end
  else
    Printf.eprintf "dsp_lint: clean (%d files, rules %s)\n" files
      (String.concat "," (List.map Lint_core.rule_name selected))
