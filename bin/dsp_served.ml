(* dsp_served — the DSP scheduler service.

   [daemon] runs the NDJSON server from {!Dsp_serve.Server} on a
   Unix-domain socket (or stdin/stdout with --stdio), recovering every
   WAL-backed session found in --wal-dir on startup.  [client] drives
   a running daemon with {!Dsp_serve.Client.rpc} — the retrying,
   backoff-with-jitter client — one request line per argument (or per
   stdin line), one response line printed each. *)

open Cmdliner
module Server = Dsp_serve.Server
module Client = Dsp_serve.Client
module Wal = Dsp_serve.Wal
module Protocol = Dsp_serve.Protocol

let fsync_conv =
  let parse s =
    match Wal.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Wal.fsync_policy_to_string p))

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to serve on (daemon) or connect to \
              (client).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for stateless solves (default: DSP_JOBS or the \
              hardware).")

let daemon socket stdio wal_dir fsync queue compact_every retry_after jobs =
  if (not stdio) && socket = None then begin
    prerr_endline "error: daemon needs --socket PATH or --stdio";
    exit 2
  end;
  (* out-of-range numbers are usage errors, checked before the pool
     exists (Pool.create raises on jobs < 1) *)
  let at_least flag lo v =
    if v < lo then begin
      Printf.eprintf "error: %s must be >= %d\n" flag lo;
      exit 2
    end
  in
  at_least "--queue" 1 queue;
  Option.iter (at_least "--jobs" 1) jobs;
  at_least "--compact-every" 0 compact_every;
  at_least "--retry-after-ms" 0 retry_after;
  (* a client vanishing mid-reply must surface as EPIPE on the write,
     not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    wal_dir;
  let cfg =
    {
      Server.wal_dir;
      fsync;
      queue_limit = queue;
      compact_every;
      retry_after_ms = retry_after;
    }
  in
  let jobs = match jobs with Some j -> j | None -> Dsp_util.Pool.default_jobs () in
  Dsp_util.Pool.with_pool ~jobs (fun pool ->
      let t = Server.create ~pool cfg in
      List.iter
        (fun (name, outcome) ->
          match outcome with
          | Ok n -> Printf.eprintf "recovered session %s (%d records)\n%!" name n
          | Error m ->
              Printf.eprintf "failed to recover session %s: %s\n%!" name m)
        (Server.recover_sessions t);
      let status =
        if stdio then begin
          Server.run_pipe t stdin Stdlib.stdout;
          0
        end
        else
          let path = Option.get socket in
          let stop = Atomic.make false in
          let quit _ = Atomic.set stop true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
          Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
          match Server.run_socket t ~path ~stop () with
          | Ok () -> 0
          | Error m ->
              Printf.eprintf "error: %s\n" m;
              1
      in
      Server.close t;
      exit status)

let client socket retries seed requests =
  match socket with
  | None ->
      prerr_endline "error: client needs --socket PATH";
      exit 2
  | Some path ->
      let lines =
        match requests with
        | [] -> In_channel.input_lines In_channel.stdin
        | rs -> rs
      in
      let rng = Dsp_util.Rng.create seed in
      let failed = ref false in
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Client.rpc ~retries ~rng ~path line with
            | Error m ->
                Printf.eprintf "error: %s\n" m;
                exit 2
            | Ok resp ->
                (match resp.Protocol.body with
                | Ok _ -> ()
                | Error _ -> failed := true);
                (* responses echo back verbatim: re-render the line we
                   decoded so output is exactly one line per request *)
                print_endline
                  (match resp.Protocol.body with
                  | Ok result -> Protocol.ok_response ~id:resp.Protocol.rid result
                  | Error kind ->
                      Protocol.error_response ~id:resp.Protocol.rid kind))
        lines;
      exit (if !failed then 3 else 0)

let daemon_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ] ~doc:"Serve stdin/stdout instead of a socket.")
  in
  let wal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:"Directory of per-session write-ahead logs; created if \
                missing.  Sessions recovered from it on startup.")
  in
  let fsync =
    Arg.(
      value
      & opt fsync_conv Wal.Always
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:"WAL durability: always, never, or every:N.")
  in
  let queue =
    Arg.(
      value & opt int Server.default_config.Server.queue_limit
      & info [ "queue" ] ~docv:"N"
          ~doc:"Max in-flight solves before shedding with 'overloaded'.")
  in
  let compact_every =
    Arg.(
      value & opt int Server.default_config.Server.compact_every
      & info [ "compact-every" ] ~docv:"N"
          ~doc:"WAL appends between snapshot compactions; 0 disables.")
  in
  let retry_after =
    Arg.(
      value & opt int Server.default_config.Server.retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Backoff hint attached to 'overloaded' responses.")
  in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Run the NDJSON scheduler service")
    Term.(
      const daemon $ socket_arg $ stdio $ wal_dir $ fsync $ queue
      $ compact_every $ retry_after $ jobs_arg)

let client_cmd =
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget for connection failures and shed requests.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Seed of the backoff jitter (deterministic).")
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"NDJSON request lines; read from stdin when absent.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send requests to a running daemon")
    Term.(const client $ socket_arg $ retries $ seed $ requests)

let () =
  let info =
    Cmd.info "dsp_served" ~version:"%%VERSION%%"
      ~doc:"Demand Strip Packing as a service"
  in
  exit (Cmd.eval (Cmd.group info [ daemon_cmd; client_cmd ]))
