(* Output emitters for dsp_lint: the classic `file:line:col [R#] msg`
   text lines, and SARIF 2.1.0 for CI annotation uploads.  The SARIF
   is hand-rolled — the payload is flat and the toolchain ships no
   JSON library. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ json_escape s ^ "\""

let to_text (findings : Lint_core.finding list) =
  String.concat ""
    (List.map (fun f -> Lint_core.finding_to_string f ^ "\n") findings)

(* Minimal SARIF 2.1.0: one run, one driver, the rule catalogue, one
   result per finding.  Columns are 0-based internally and 1-based in
   SARIF. *)
let to_sarif (findings : Lint_core.finding list) =
  let rule r =
    Printf.sprintf
      "          {\"id\": %s, \"shortDescription\": {\"text\": %s}}"
      (quote (Lint_core.rule_name r))
      (quote (Lint_core.rule_summary r))
  in
  let result (f : Lint_core.finding) =
    Printf.sprintf
      "        {\"ruleId\": %s, \"level\": \"error\", \"message\": {\"text\": \
       %s}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": \
       {\"uri\": %s}, \"region\": {\"startLine\": %d, \"startColumn\": \
       %d}}}]}"
      (quote (Lint_core.rule_name f.Lint_core.rule))
      (quote f.Lint_core.msg)
      (quote f.Lint_core.file) f.Lint_core.line (f.Lint_core.col + 1)
  in
  String.concat "\n"
    [
      "{";
      "  \"$schema\": \
       \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",";
      "  \"version\": \"2.1.0\",";
      "  \"runs\": [{";
      "    \"tool\": {";
      "      \"driver\": {";
      "        \"name\": \"dsp_lint\",";
      "        \"informationUri\": \
       \"https://example.invalid/dsp/tools/lint\",";
      "        \"rules\": [";
      String.concat ",\n" (List.map rule Lint_core.all_rules);
      "        ]";
      "      }";
      "    },";
      "    \"results\": [";
      String.concat ",\n" (List.map result findings);
      "    ]";
      "  }]";
      "}";
      "";
    ]
