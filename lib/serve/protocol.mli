(** The NDJSON request/response protocol of the DSP service.

    One request per line, one response per line.  Every request is a
    JSON object with an ["op"] field and an optional ["id"] the server
    echoes back verbatim, so a pipelining client can match answers to
    questions.  Responses are [{"id":…, "ok":true, "result":{…}}] or
    [{"id":…, "ok":false, "error":{"kind":…, "message":…}}]; an
    [overloaded] error also carries ["retry_after_ms"], the client's
    backoff hint.

    Parsing mirrors the hardened {!Dsp_instance.Io}/{!Dsp_instance.Trace}
    parsers: {!parse_request} is total, classifies every malformed
    line into a typed {!error_kind}, and never raises — the protocol
    fuzz suite feeds it mutated request lines.  Geometry checks
    (positive dimensions, demand within the strip width) happen here,
    {e before} any state is touched or logged, so a request that
    reaches the write-ahead log is guaranteed to replay. *)

(** Operations a client can ask for.  [Solve] and [Compare] are
    stateless batch solves (dispatched onto the worker pool, subject
    to admission control); the session ops drive a named incremental
    {!Dsp_engine.Session}, durably when the server has a WAL
    directory. *)
type request =
  | Ping
  | Solve of {
      width : int;
      items : (int * int) list;
      timeout_ms : int option;  (** >= 0; a negative one is [Bad_request] *)
      chain : string option;  (** comma-separated solver names *)
    }
  | Compare of {
      width : int;
      items : (int * int) list;
      timeout_ms : int option;  (** >= 0; a negative one is [Bad_request] *)
      solvers : string list option;  (** default: every registered solver *)
    }
  | Open of {
      session : string;
      width : int;
      policy : string option;
      k : int option;  (** migration bound for the ["migrate"] policy *)
    }
  | Arrive of { session : string; w : int; h : int }
  | Depart of { session : string; arrival : int }
  | Peak of { session : string }
  | Snapshot of { session : string }
  | Close of { session : string }
  | Stats

type error_kind =
  | Parse of string  (** the line is not JSON *)
  | Bad_request of string  (** JSON, but not a valid request shape *)
  | Unknown_op of string
  | Unknown_session of string
  | Session_exists of string
  | Bad_instance of string  (** geometry rejected (dims, width) *)
  | Stale_departure of string  (** never arrived / already departed *)
  | Overloaded of int  (** shed; payload is the retry-after hint, ms *)
  | Wal_failure of string
  | Internal of string

val kind_name : error_kind -> string
(** The wire ["kind"] tag: ["parse"], ["bad_request"], ["unknown_op"],
    ["unknown_session"], ["session_exists"], ["bad_instance"],
    ["stale_departure"], ["overloaded"], ["wal"], ["internal"]. *)

val error_message : error_kind -> string

val parse_request : string -> (Json.t option * request, Json.t option * error_kind) result
(** Parse one NDJSON line.  Both sides carry the request's ["id"]
    field (verbatim JSON) when one could be extracted, so even a
    malformed request gets an attributable error.  Total. *)

val ok_response : id:Json.t option -> Json.t -> string
(** Serialize a success line: [{"id":…, "ok":true, "result":…}]. *)

val error_response : id:Json.t option -> error_kind -> string
(** Serialize an error line; [Overloaded] adds ["retry_after_ms"]. *)

(** {2 Client-side decoding} *)

type response = {
  rid : Json.t option;  (** echoed request id *)
  body : (Json.t, error_kind) result;  (** [result] or typed error *)
}

val parse_response : string -> (response, string) result
(** Decode one response line (the client helper's half of the
    protocol).  Unknown error kinds decode as {!Internal}. *)
