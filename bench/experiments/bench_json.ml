(* Machine-readable benchmark output (schema dsp-bench/7).

   Experiments register metrics (wall-clock seconds, peak heights,
   node counts, speedups) under their experiment id while they run;
   the harness then serializes everything to BENCH.json so later PRs
   have a perf trajectory to regress against.  Metrics are values of
   the daemon's codec ({!Dsp_serve.Json}): the writer prints them with
   its encoder, one metric per line, and the validating reader parses
   with its decoder and checks the container shape.

   The schema (documented in EXPERIMENTS.md) is one container,
   {"schema", "experiments": [{"id", <metrics>...}]}.  A metric is a
   scalar or a one-level group, a flat object of scalars such as a
   timing's [gc] sub-record ({"minor_words": ...}) or a "latency"
   percentile group; groups never nest, and the loader rejects deeper
   structure so downstream tooling can keep treating leaves as
   scalars.  Every experiment carries "status" ("ok" | "crashed")
   and, when crashed, an "error" string, so a partial run still
   yields a valid, attributable file; a randomized experiment also
   records the "seed" offset its workload was generated with.  The
   perf gate reads metrics by name: "*_seconds" timings and "*agree"
   correctness flags.  Writes are atomic
   (temp file in the target directory + rename): a harness killed
   mid-write never leaves a truncated BENCH.json, and the checkpoint
   written after every experiment makes the last completed state
   durable.  The loader accepts this one version only. *)

module Json = Dsp_serve.Json

let schema_version = "dsp-bench/7"

(* Insertion-ordered: experiment ids in run order, metrics in record
   order within an experiment.  The store is shared mutable state, so
   every access to [experiments] (and to the per-experiment row refs)
   happens under [m]. *)
let experiments : (string * (string * Json.t) list ref) list ref = ref []
let m = Mutex.create ()
let locked f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let clear () = locked (fun () -> experiments := [])

let record ~experiment key value =
  locked (fun () ->
      let row =
        match List.assoc_opt experiment !experiments with
        | Some r -> r
        | None ->
            let r = ref [] in
            experiments := !experiments @ [ (experiment, r) ];
            r
      in
      row := !row @ [ (key, value) ])

let is_scalar = function Json.List _ | Json.Obj _ -> false | _ -> true

(* A one-level metric group.  Nesting is a schema violation, so it is
   refused at record time rather than surfacing as an unreadable
   BENCH.json later. *)
let record_group ~experiment key fields =
  List.iter
    (fun (k, v) ->
      if not (is_scalar v) then
        invalid_arg
          (Printf.sprintf "Bench_json.record_group: nested group %S in %S" k
             key))
    fields;
  record ~experiment key (Json.Obj fields)

let record_counters ~experiment ~solver counters =
  List.iter
    (fun (name, v) -> record ~experiment (solver ^ "." ^ name) (Json.Int v))
    counters

(* One metric per line, each key and value in the daemon's encoding
   (so a non-finite float is written as null). *)
let render () =
  (* Snapshot under the lock, serialize outside it. *)
  let snapshot =
    locked (fun () -> List.map (fun (id, metrics) -> (id, !metrics)) !experiments)
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"schema\": \"%s\",\n  \"experiments\": ["
    schema_version;
  List.iteri
    (fun i (id, metrics) ->
      Buffer.add_string buf (if i > 0 then ",\n    {" else "\n    {");
      List.iteri
        (fun j (k, v) ->
          Printf.bprintf buf "%s\n      %s: %s"
            (if j > 0 then "," else "")
            (Json.to_string (Json.String k))
            (Json.to_string v))
        (("id", Json.String id) :: metrics);
      Buffer.add_string buf "\n    }")
    snapshot;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* Atomic write: the temp file lives in the destination directory so
   the rename cannot cross filesystems; a crash mid-write leaves the
   old file (or nothing) in place, never a truncated one. *)
let write path =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  let ok =
    match output_string oc (render ()) with
    | () ->
        close_out oc;
        true
    | exception e ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
  in
  if ok then Sys.rename tmp path

(* ----- validating reader ----------------------------------------- *)

type parsed = {
  schema : string;
  parsed_experiments : (string * (string * Json.t) list) list;
}

(* The name of a metric that breaks the one-level rule: a list, or a
   group holding a non-scalar field. *)
let non_scalar (k, v) =
  match v with
  | Json.List _ -> Some k
  | Json.Obj fields ->
      List.find_map
        (fun (gk, gv) -> if is_scalar gv then None else Some (k ^ "." ^ gk))
        fields
  | _ -> None

let experiment_of = function
  | Json.Obj fields -> (
      match List.assoc_opt "id" fields with
      | Some (Json.String id) -> (
          let metrics = List.filter (fun (k, _) -> k <> "id") fields in
          match List.find_map non_scalar metrics with
          | Some k ->
              Error
                (Printf.sprintf "experiment %S: metric %S is not a scalar" id k)
          | None -> Ok (id, metrics))
      | Some _ -> Error "experiment entry: \"id\" is not a string"
      | None -> Error "experiment entry: missing \"id\"")
  | _ -> Error "\"experiments\" element is not an object"

(* Validate the container shape, with errors naming the offending
   experiment/metric. *)
let of_json = function
  | Json.Obj fields -> (
      match (List.assoc_opt "schema" fields, List.assoc_opt "experiments" fields) with
      | None, _ -> Error "missing \"schema\" key"
      | _, None -> Error "missing \"experiments\" key"
      | Some (Json.String schema), Some (Json.List entries) ->
          if schema <> schema_version then
            Error
              (Printf.sprintf "unknown schema %S (expected %s)" schema
                 schema_version)
          else
            let rec all acc = function
              | [] -> Ok { schema; parsed_experiments = List.rev acc }
              | e :: rest -> (
                  match experiment_of e with
                  | Ok x -> all (x :: acc) rest
                  | Error msg -> Error msg)
            in
            all [] entries
      | Some (Json.String _), Some _ -> Error "\"experiments\" is not an array"
      | Some _, _ -> Error "\"schema\" is not a string")
  | _ -> Error "top-level value is not an object"

(* Json errors start "byte N: "; report the line holding byte N. *)
let line_error text msg =
  match Scanf.sscanf msg "byte %d: %n" (fun pos rest -> (pos, rest)) with
  | pos, rest ->
      let line = ref 1 in
      String.iteri (fun i c -> if i < pos && c = '\n' then incr line) text;
      Printf.sprintf "line %d: %s" !line
        (String.sub msg rest (String.length msg - rest))
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> msg

let parse_string_result text =
  match Json.of_string text with
  | Ok json -> of_json json
  | Error msg -> Error (line_error text msg)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match parse_string_result text with
      | Ok p -> Ok p
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg
