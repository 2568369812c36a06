(* Machine-readable benchmark output (schema dsp-bench/7).

   Experiments register metrics (wall-clock seconds, peak heights,
   node counts, speedups) under their experiment id while they run;
   the harness then serializes everything to BENCH.json so later PRs
   have a perf trajectory to regress against.  The writer is
   hand-rolled so the file keeps its layout and "%.6f" floats; the
   validating reader parses with the daemon's codec ({!Dsp_serve.Json})
   and checks the container shape on its value type.

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

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Group of (string * value) list
      (* one level deep: fields must be scalars (enforced on record) *)

let schema_version = "dsp-bench/7"

(* Insertion-ordered: experiment ids in run order, metrics in record
   order within an experiment.  The store is shared mutable state and
   experiments may record from pool workers, so every access to
   [experiments] (and to the per-experiment row refs) happens under
   [m]. *)
let experiments : (string * (string * value) list ref) list ref = ref []
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

(* A one-level metric group.  Nesting is a schema violation, so it is
   refused at record time rather than surfacing as an unreadable
   BENCH.json later. *)
let record_group ~experiment key fields =
  List.iter
    (fun (k, v) ->
      match v with
      | Group _ ->
          invalid_arg
            (Printf.sprintf "Bench_json.record_group: nested group %S in %S" k
               key)
      | _ -> ())
    fields;
  record ~experiment key (Group fields)

let record_counters ~experiment ~solver counters =
  List.iter
    (fun (name, v) -> record ~experiment (solver ^ "." ^ name) (Int v))
    counters

(* A JSON string literal, quotes included. *)
let quote s = Json.to_string (Json.String s)

let rec value_to_string = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
  | String s -> quote s
  | Bool b -> if b then "true" else "false"
  | Group fields ->
      Printf.sprintf "{%s}"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s: %s" (quote k) (value_to_string v))
              fields))

let render () =
  (* Snapshot under the lock, serialize outside it. *)
  let snapshot =
    locked (fun () -> List.map (fun (id, metrics) -> (id, !metrics)) !experiments)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"experiments\": ["
       schema_version);
  List.iteri
    (fun i (id, metrics) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    {\n      \"id\": %s" (quote id));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ",\n      %s: %s" (quote k) (value_to_string v)))
        metrics;
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
  parsed_experiments : (string * (string * value) list) list;
}

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
          else begin
            let exp_of = function
              | Json.Obj fields -> (
                  match List.assoc_opt "id" fields with
                  | Some (Json.String id) ->
                      let scalar k v =
                        match v with
                        | Json.Int i -> Ok (Int i)
                        | Json.Float f -> Ok (Float f)
                        | Json.String s -> Ok (String s)
                        | Json.Bool b -> Ok (Bool b)
                        | Json.Null -> Ok (Float Float.nan)
                        | Json.List _ | Json.Obj _ ->
                            Error
                              (Printf.sprintf
                                 "experiment %S: metric %S is not a scalar" id
                                 k)
                      in
                      let metric (k, v) =
                        if k = "id" then Ok None
                        else
                          match v with
                          | Json.Obj fields ->
                              (* A group: exactly one level of scalars. *)
                              let rec go acc = function
                                | [] -> Ok (Some (k, Group (List.rev acc)))
                                | (gk, gv) :: rest -> (
                                    match
                                      scalar (k ^ "." ^ gk) gv
                                    with
                                    | Ok s -> go ((gk, s) :: acc) rest
                                    | Error e -> Error e)
                              in
                              go [] fields
                          | _ -> (
                              match scalar k v with
                              | Ok s -> Ok (Some (k, s))
                              | Error e -> Error e)
                      in
                      let rec metrics acc = function
                        | [] -> Ok (id, List.rev acc)
                        | kv :: rest -> (
                            match metric kv with
                            | Ok (Some m) -> metrics (m :: acc) rest
                            | Ok None -> metrics acc rest
                            | Error e -> Error e)
                      in
                      metrics [] fields
                  | Some _ -> Error "experiment entry: \"id\" is not a string"
                  | None -> Error "experiment entry: missing \"id\"")
              | _ -> Error "\"experiments\" element is not an object"
            in
            let rec all acc = function
              | [] -> Ok { schema; parsed_experiments = List.rev acc }
              | e :: rest -> (
                  match exp_of e with
                  | Ok x -> all (x :: acc) rest
                  | Error msg -> Error msg)
            in
            all [] entries
          end
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
