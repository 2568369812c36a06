(* The daemon under test and the closed-loop client that feeds it.

   The daemon is [Server.run_socket] on its own domain in this
   process, as the serve experiment runs it; the client talks to it
   over the Unix socket with plain descriptors, so one thread can keep
   one request in flight on each of its connections and wait for
   whichever reply comes first.  Every path is relative to the
   working directory: the benchmark reads and writes only inside the
   checkout it runs from. *)

module Server = Dsp_serve.Server
module Wal = Dsp_serve.Wal
module Pool = Dsp_util.Pool

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let scratch_root = Filename.concat "_build" "perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Run a program and return its first output line ("" when it printed
   nothing), or None when it cannot run or fails.  The child is always
   waited for. *)
let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim (List.hd (String.split_on_char '\n' out)))
      | _ -> None)

(* Filesystem type of a directory, as statfs names it ("ext2/ext3",
   "tmpfs", ...). *)
let fstype dir =
  match command_line "stat" [ "-f"; "-c"; "%T"; dir ] with
  | Some t when t <> "" -> t
  | _ -> "unknown"

(* ----- one client connection ----------------------------------------- *)

type conn = { fd : Unix.file_descr; chunk : Bytes.t; pending : Buffer.t }

exception Broken of string

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; chunk = Bytes.create 65536; pending = Buffer.create 4096 }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error e

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write c.fd b !off (Bytes.length b - !off)
  done

(* Read what is available and return the reply line once it is
   complete.  At most one request is in flight per connection, so
   there is never more than one line pending. *)
let read_reply c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise (Broken "daemon closed the connection");
  Buffer.add_subbytes c.pending c.chunk 0 n;
  let data = Buffer.contents c.pending in
  match String.index_opt data '\n' with
  | None -> None
  | Some nl ->
      if nl <> String.length data - 1 then
        raise (Broken "more than one reply line in flight");
      Buffer.clear c.pending;
      Some (String.sub data 0 nl)

let rec recv c = match read_reply c with Some l -> l | None -> recv c

let rpc c line =
  send c line;
  recv c

(* ----- the daemon ----------------------------------------------------- *)

type t = {
  server : Server.t;
  domain : (unit, string) result Domain.t;
  stop : bool Atomic.t;
  sock : string;
  pool : Pool.t option;
  wal_dir : string option;
  conns : conn array;
}

let config (w : Workload.t) wal_dir =
  match (w.Workload.wal, wal_dir) with
  | Some fsync, Some dir -> { Server.default_config with Server.wal_dir = Some dir; fsync }
  | _ -> Server.default_config

(* Start a daemon for workload [w] and connect [n_conns] clients.  The
   socket file may not exist yet when the domain has just been
   spawned, so connecting retries briefly. *)
let start (w : Workload.t) ~tag ~n_conns =
  mkdir_p scratch_root;
  let sock = Filename.concat scratch_root (Printf.sprintf "%d-%s.sock" (Unix.getpid ()) tag) in
  let wal_dir =
    if w.Workload.wal <> None then begin
      let dir = Filename.concat scratch_root (Printf.sprintf "wal-%d-%s" (Unix.getpid ()) tag) in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      Some dir
    end
    else None
  in
  let pool = if w.Workload.pool_jobs > 0 then Some (Pool.create ~jobs:w.Workload.pool_jobs) else None in
  let server = Server.create ?pool (config w wal_dir) in
  let stop = Atomic.make false in
  let domain = Domain.spawn (fun () -> Server.run_socket server ~path:sock ~stop ()) in
  let deadline = now_ns () + 5_000_000_000 in
  let rec connect_retry () =
    match connect sock with
    | Ok c -> c
    | Error e ->
        if now_ns () > deadline then
          raise (Broken ("connect: " ^ Unix.error_message e));
        Unix.sleepf 0.0001;
        connect_retry ()
  in
  let conns = Array.init n_conns (fun _ -> connect_retry ()) in
  { server; domain; stop; sock; pool; wal_dir; conns }

(* Stop the loop and join its domain.  Closing the client descriptors
   wakes the daemon's select at once, so it sees the stop flag without
   waiting out its idle timeout. *)
let stop d =
  Atomic.set d.stop true;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  let outcome = Domain.join d.domain in
  Server.close d.server;
  Option.iter Pool.shutdown d.pool;
  if Sys.file_exists d.sock then Sys.remove d.sock;
  match outcome with Ok () -> () | Error m -> raise (Broken ("daemon: " ^ m))

let discard d = Option.iter rm_rf d.wal_dir

(* ----- the closed loop ------------------------------------------------ *)

(* Process CPU seconds, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type drive = {
  rts : int array;  (** round trip per request, ns *)
  seq : int array;  (** order in which each reply arrived *)
  bytes : int;  (** request and reply bytes, newlines included *)
  marks : (int * float) array;
      (** (clock ns, CPU s) when the first [j * n / k] replies were in,
          for j = 0 .. k *)
}

(* Send the stream over every connection, one request in flight per
   connection, until every reply is in.  A free connection takes the
   first unsent request whose target (session) has nothing in flight,
   so each session's requests reach the daemon in stream order and no
   connection idles while requests remain.  [on_reply i line] sees
   each reply after its round trip is taken.  The window is marked at
   [k] equal shares of the replies, so it can be cut into slices. *)
let drive d (w : Workload.t) ~k ~on_reply =
  let n = Workload.n_requests w in
  let rts = Array.make n 0 and seq = Array.make n 0 in
  let marks = Array.make (k + 1) (0, 0.) in
  let sent = Array.make n false in
  let busy = Hashtbl.create 8 in
  let inflight = Array.make (Array.length d.conns) (-1) and sent_at = Array.make (Array.length d.conns) 0 in
  let first_unsent = ref 0 and replies = ref 0 and next_mark = ref 1 and bytes = ref 0 in
  let send_next c =
    while !first_unsent < n && sent.(!first_unsent) do incr first_unsent done;
    let rec pick i =
      if i >= n then None
      else if sent.(i) || Hashtbl.mem busy (Workload.target w i) then pick (i + 1)
      else Some i
    in
    match pick !first_unsent with
    | None -> ()
    | Some i ->
        sent.(i) <- true;
        Hashtbl.replace busy (Workload.target w i) ();
        inflight.(c) <- i;
        let line = Workload.line w i in
        bytes := !bytes + String.length line + 1;
        sent_at.(c) <- now_ns ();
        send d.conns.(c) line
  in
  marks.(0) <- (now_ns (), cpu_s ());
  Array.iteri (fun c _ -> send_next c) d.conns;
  while !replies < n do
    let active = List.filter (fun c -> inflight.(c) >= 0) (List.init (Array.length d.conns) Fun.id) in
    if active = [] then raise (Broken "no request in flight but replies are missing");
    let ready =
      match Unix.select (List.map (fun c -> d.conns.(c).fd) active) [] [] (-1.) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        if List.mem d.conns.(c).fd ready then
          match read_reply d.conns.(c) with
          | None -> ()
          | Some line ->
              let t = now_ns () in
              let i = inflight.(c) in
              rts.(i) <- t - sent_at.(c);
              seq.(i) <- !replies;
              incr replies;
              while !next_mark <= k && !replies >= !next_mark * n / k do
                marks.(!next_mark) <- (t, cpu_s ());
                incr next_mark
              done;
              inflight.(c) <- -1;
              bytes := !bytes + String.length line + 1;
              Hashtbl.remove busy (Workload.target w i);
              on_reply i line;
              (* the other connections may have been waiting on this
                 session; refill every idle one *)
              Array.iteri (fun c' _ -> if inflight.(c') < 0 then send_next c') d.conns)
      active
  done;
  { rts; seq; bytes = !bytes; marks }
