(* Request parsing is written like Io/Trace: classify every way a line
   can be malformed into a typed error, touch no state, and validate
   geometry up front so anything that parses can be logged and later
   replayed without failing. *)

type request =
  | Ping
  | Solve of {
      width : int;
      items : (int * int) list;
      timeout_ms : int option;
      chain : string option;
    }
  | Compare of {
      width : int;
      items : (int * int) list;
      timeout_ms : int option;
      solvers : string list option;
    }
  | Open of {
      session : string;
      width : int;
      policy : string option;
      k : int option;
    }
  | Arrive of { session : string; w : int; h : int }
  | Depart of { session : string; arrival : int }
  | Peak of { session : string }
  | Snapshot of { session : string }
  | Close of { session : string }
  | Stats

type error_kind =
  | Parse of string
  | Bad_request of string
  | Unknown_op of string
  | Unknown_session of string
  | Session_exists of string
  | Bad_instance of string
  | Stale_departure of string
  | Overloaded of int
  | Wal_failure of string
  | Internal of string

let kind_name = function
  | Parse _ -> "parse"
  | Bad_request _ -> "bad_request"
  | Unknown_op _ -> "unknown_op"
  | Unknown_session _ -> "unknown_session"
  | Session_exists _ -> "session_exists"
  | Bad_instance _ -> "bad_instance"
  | Stale_departure _ -> "stale_departure"
  | Overloaded _ -> "overloaded"
  | Wal_failure _ -> "wal"
  | Internal _ -> "internal"

let error_message = function
  | Parse m -> Printf.sprintf "not valid JSON: %s" m
  | Bad_request m -> m
  | Unknown_op op -> Printf.sprintf "unknown op %S" op
  | Unknown_session s -> Printf.sprintf "no session named %S" s
  | Session_exists s -> Printf.sprintf "session %S already exists" s
  | Bad_instance m -> m
  | Stale_departure m -> m
  | Overloaded ms ->
      Printf.sprintf "server at capacity; retry after %d ms" ms
  | Wal_failure m -> m
  | Internal m -> m

(* ----- request decoding --------------------------------------------- *)

exception Bad of error_kind

let fail kind = raise (Bad kind)
let bad fmt = Printf.ksprintf (fun m -> fail (Bad_request m)) fmt

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> bad "missing field %S" name

let int_field name json =
  match Json.to_int (field name json) with
  | Some i -> i
  | None -> bad "field %S must be an integer" name

let str_field name json =
  match Json.to_str (field name json) with
  | Some s -> s
  | None -> bad "field %S must be a string" name

let opt f name json =
  match Json.member name json with
  | None | Some Json.Null -> None
  | Some v -> (
      match f v with
      | Some x -> Some x
      | None -> bad "field %S has the wrong type" name)

(* A negative deadline is the client's input error, answered before it
   reaches [Budget.create] (which would raise [Invalid_argument]). *)
let timeout_field json =
  match opt Json.to_int "timeout_ms" json with
  | Some ms when ms < 0 -> bad "field \"timeout_ms\" must be >= 0"
  | t -> t

let session_field json =
  let s = str_field "session" json in
  if s = "" then bad "field \"session\" must be non-empty";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | c ->
          bad "session name may only contain [a-zA-Z0-9._-], got %C" c)
    s;
  s

(* Geometry checks mirror Io: dims >= 1 and demand within the strip.
   Rejecting here keeps invalid events out of the WAL. *)
let check_dims ~width ~w ~h =
  if width < 1 then fail (Bad_instance "width must be >= 1");
  if w < 1 || h < 1 then
    fail
      (Bad_instance
         (Printf.sprintf "dimensions must be >= 1, got %d x %d" w h));
  if w > width then
    fail
      (Bad_instance
         (Printf.sprintf "demand %d exceeds the strip width %d" w width))

let items_field ~width json =
  match Json.to_list (field "items" json) with
  | None -> bad "field \"items\" must be a list of [w, h] pairs"
  | Some xs ->
      List.map
        (fun x ->
          match Json.to_list x with
          | Some [ jw; jh ] -> (
              match (Json.to_int jw, Json.to_int jh) with
              | Some w, Some h ->
                  check_dims ~width ~w ~h;
                  (w, h)
              | _ -> bad "item entries must be integer pairs")
          | _ -> bad "field \"items\" must be a list of [w, h] pairs")
        xs

let decode json =
  match Json.member "op" json with
  | None -> fail (Bad_request "missing field \"op\"")
  | Some op -> (
      match Json.to_str op with
      | None -> fail (Bad_request "field \"op\" must be a string")
      | Some op -> (
          match op with
          | "ping" -> Ping
          | "stats" -> Stats
          | "solve" ->
              let width = int_field "width" json in
              if width < 1 then fail (Bad_instance "width must be >= 1");
              Solve
                {
                  width;
                  items = items_field ~width json;
                  timeout_ms = timeout_field json;
                  chain = opt Json.to_str "fallback" json;
                }
          | "compare" ->
              let width = int_field "width" json in
              if width < 1 then fail (Bad_instance "width must be >= 1");
              let solvers =
                opt
                  (fun v ->
                    match Json.to_list v with
                    | None -> None
                    | Some xs ->
                        let names = List.filter_map Json.to_str xs in
                        if List.length names = List.length xs then Some names
                        else None)
                  "solvers" json
              in
              Compare
                {
                  width;
                  items = items_field ~width json;
                  timeout_ms = timeout_field json;
                  solvers;
                }
          | "open" ->
              let width = int_field "width" json in
              if width < 1 then fail (Bad_instance "width must be >= 1");
              Open
                {
                  session = session_field json;
                  width;
                  policy = opt Json.to_str "policy" json;
                  k = opt Json.to_int "k" json;
                }
          | "arrive" ->
              let session = session_field json in
              let w = int_field "w" json and h = int_field "h" json in
              if w < 1 || h < 1 then
                fail
                  (Bad_instance
                     (Printf.sprintf "dimensions must be >= 1, got %d x %d" w
                        h));
              Arrive { session; w; h }
          | "depart" ->
              Depart
                { session = session_field json; arrival = int_field "arrival" json }
          | "peak" -> Peak { session = session_field json }
          | "snapshot" -> Snapshot { session = session_field json }
          | "close" -> Close { session = session_field json }
          | op -> fail (Unknown_op op)))

let parse_request line =
  match Json.of_string line with
  | Error msg -> Error (None, Parse msg)
  | Ok json -> (
      let id = Json.member "id" json in
      match decode json with
      | req -> Ok (id, req)
      | exception Bad kind -> Error (id, kind))

(* ----- response encoding -------------------------------------------- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", id) :: fields

let ok_response ~id result =
  Json.to_string (Json.Obj (with_id id [ ("ok", Json.Bool true); ("result", result) ]))

let error_response ~id kind =
  let base =
    [
      ("kind", Json.String (kind_name kind));
      ("message", Json.String (error_message kind));
    ]
  in
  let fields =
    match kind with
    | Overloaded ms -> base @ [ ("retry_after_ms", Json.Int ms) ]
    | _ -> base
  in
  Json.to_string
    (Json.Obj (with_id id [ ("ok", Json.Bool false); ("error", Json.Obj fields) ]))

(* ----- client-side decoding ----------------------------------------- *)

type response = { rid : Json.t option; body : (Json.t, error_kind) result }

let decode_error err =
  let message =
    Option.value ~default:""
      (Option.bind (Json.member "message" err) Json.to_str)
  in
  match Option.bind (Json.member "kind" err) Json.to_str with
  | Some "parse" -> Parse message
  | Some "bad_request" -> Bad_request message
  | Some "unknown_op" -> Unknown_op message
  | Some "unknown_session" -> Unknown_session message
  | Some "session_exists" -> Session_exists message
  | Some "bad_instance" -> Bad_instance message
  | Some "stale_departure" -> Stale_departure message
  | Some "overloaded" ->
      let ms =
        Option.value ~default:100
          (Option.bind (Json.member "retry_after_ms" err) Json.to_int)
      in
      Overloaded ms
  | Some "wal" -> Wal_failure message
  | _ -> Internal message

let parse_response line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "bad response line (%s)" msg)
  | Ok json -> (
      let rid = Json.member "id" json in
      match Option.bind (Json.member "ok" json) Json.to_bool with
      | Some true -> (
          match Json.member "result" json with
          | Some r -> Ok { rid; body = Ok r }
          | None -> Error "ok response without a result field")
      | Some false -> (
          match Json.member "error" json with
          | Some e -> Ok { rid; body = Error (decode_error e) }
          | None -> Error "error response without an error field")
      | None -> Error "response without a boolean ok field")
