(* The benchmark's workloads as request streams, made from the seed
   alone.

   The amount of work is fixed by the seed and the run length: each
   workload sends about [seconds x nominal rate] requests, where the
   nominal rate is what the daemon sustained on the reference machine
   (2-vCPU VM, run pinned to one CPU, ext4 on a virtio disk).  Two runs
   with the same arguments therefore send byte-identical requests,
   every counter the daemon keeps repeats exactly, and a faster program
   simply finishes the same work sooner.  Generation happens before
   set-up and is never timed. *)

module Rng = Dsp_util.Rng
module Trace = Dsp_instance.Trace
module Generators = Dsp_instance.Generators
module Instance = Dsp_core.Instance
module Item = Dsp_core.Item
module Wal = Dsp_serve.Wal

(* A request is a work request (arrive/depart, or a solve) or a read
   probe (peak, or stats in solve-mix). *)
type kind = Work | Read

type session = {
  sname : string;
  trace : Trace.t;
  events : Trace.event array;  (** the trace's events, indexable *)
  policy : string;
  k : int;
}

type solve = {
  inst : Instance.t;
  fallback : string option;  (** the protocol's chain field; None = default chain *)
  timeout_ms : int;
  sline : string;  (** the request line *)
}

type t = {
  name : string;
  wal : Wal.fsync_policy option;  (** sessions log to a WAL with this policy *)
  pool_jobs : int;  (** worker domains of the daemon's pool; 0 = none *)
  sessions : session array;
  solves : solve array;
  opens : string list;  (** sent once per set-up, before warm-up *)
  warmup : string list;  (** sent once per set-up; leaves no session behind *)
  stream : int array;
      (** the timed requests, packed as [target lsl 21 lor step lsl 1 lor
          read]: target is the session (or solve) index and step the
          event index within the session.  Session request lines are
          formatted when sent, which keeps a long stream small. *)
  conns : int;
      (** connections sharing the stream, each with one request in
          flight; a session's next request waits for the answer to its
          previous one, so every trace stays in order *)
  parts : int;
      (** the stream is this many consecutive parts of equal work: rounds
          over the same traces on fresh sessions, or slices of distinct
          solves drawn alike *)
}

let names = [ "grid-durable"; "grid-logged"; "churn-wide"; "solve-mix" ]

(* Independent generator streams per purpose, all from the one seed. *)
let rng seed salt = Rng.create (Hashtbl.hash (seed, salt))

let session sname policy k trace =
  { sname; trace; events = Array.of_list trace.Trace.events; policy; k }

let open_line s =
  let width = s.trace.Trace.width in
  if s.policy = "migrate" then
    Printf.sprintf
      {|{"op":"open","session":%S,"width":%d,"policy":"migrate","k":%d}|}
      s.sname width s.k
  else
    Printf.sprintf {|{"op":"open","session":%S,"width":%d,"policy":%S}|}
      s.sname width s.policy

let event_line name = function
  | Trace.Arrive { w; h } ->
      Printf.sprintf {|{"op":"arrive","session":%S,"w":%d,"h":%d}|} name w h
  | Trace.Depart { arrival } ->
      Printf.sprintf {|{"op":"depart","session":%S,"arrival":%d}|} name
        arrival

let peak_line name = Printf.sprintf {|{"op":"peak","session":%S}|} name

let stats_line = {|{"op":"stats"}|}

let pack ~target ~step kind = (target lsl 21) lor (step lsl 1) lor (if kind = Read then 1 else 0)

(* The sessions' events merged round-robin, as independent feeders
   multiplex onto the daemon, with a peak probe after every 8 events of
   a session.  Each session's own events stay in trace order. *)
let session_stream sessions =
  let longest = Array.fold_left (fun m s -> max m (Array.length s.events)) 0 sessions in
  let out = ref [] in
  for step = 0 to longest - 1 do
    Array.iteri
      (fun i s ->
        if step < Array.length s.events then begin
          out := pack ~target:i ~step Work :: !out;
          if step mod 8 = 7 then out := pack ~target:i ~step Read :: !out
        end)
      sessions
  done;
  Array.of_list (List.rev !out)

(* [parts] rounds over the same traces, one after another, each round on
   fresh sessions named r<round>-<name>: parts of identical work. *)
let rounds parts base =
  let m = Array.length base in
  let sessions =
    Array.init (parts * m) (fun i ->
        let b = base.(i mod m) in
        { b with sname = Printf.sprintf "r%d-%s" (i / m) b.sname })
  in
  let one = session_stream base in
  let stream =
    Array.concat (List.init parts (fun r -> Array.map (fun code -> code + ((r * m) lsl 21)) one))
  in
  (sessions, stream)

(* A throwaway session fed a short trace and closed again, so every
   code path the timed requests use has run once before timing. *)
let warmup_session s =
  (open_line s :: List.map (event_line s.sname) s.trace.Trace.events)
  @ [ peak_line s.sname; Printf.sprintf {|{"op":"close","session":%S}|} s.sname ]

(* grid-durable and grid-logged: smart-grid feeders, one
   Trace.smartgrid day (W = 96) per session under best-fit, over 2
   connections, every session logged to its WAL with the default
   compaction.  grid-durable fsyncs every append (nominal 7,000
   requests/s); grid-logged leaves appends to the page cache and only
   compaction fsyncs (nominal rate 16,000 requests/s, for a window of
   about half the run length).  A session is a 512-household day, ~3,500
   requests.  Both sizes keep the file churn per run down: set-up
   creates one WAL file per session, compaction a temporary file every
   256 appends, and with 727 short days and 640,000 requests per run
   set-up time rose from 0.08 to 0.44 s over ten consecutive runs.  The
   warm-up day is small enough never to compact. *)
let grid ~name ~fsync ~rate ~seed ~seconds ~smoke =
  let households = if smoke then 8 else 512 in
  let parts = if smoke then 2 else 10 in
  let per_round = if smoke then 2 else max 2 (rate * seconds / (3500 * parts)) in
  let day ?(households = households) name salt =
    session name "best-fit" 1 (Trace.smartgrid (rng seed salt) ~households ~departures:true)
  in
  let sessions, stream =
    rounds parts (Array.init per_round (fun i -> day (Printf.sprintf "feeder%d" i) (100 + i)))
  in
  {
    name;
    wal = Some fsync;
    pool_jobs = 0;
    sessions;
    solves = [||];
    opens = Array.to_list (Array.map open_line sessions);
    warmup = warmup_session (day ~households:8 "warmup" 1);
    stream;
    conns = 2;
    parts;
  }

(* churn-wide: 4 long-lived sessions on a W = 32,768 strip under
   migrate with k = 2, fed by Trace.churn, over one connection, in 8
   rounds.  The per-request cost grows with session age, so the size is
   set in arrivals per session (60 x seconds per round) rather than by
   a rate.  Eight rounds rather than four: the median of more parts
   steadied the figures against the machine's speed drifting within a
   run. *)
let churn_wide ~seed ~seconds ~smoke =
  let width = 32768 in
  let parts = if smoke then 2 else 8 in
  let n = if smoke then 60 else 60 * seconds in
  let sess name salt n = session name "migrate" 2 (Trace.churn (rng seed salt) ~width ~n) in
  let sessions, stream =
    rounds parts (Array.init 4 (fun i -> sess (Printf.sprintf "strip%d" i) (200 + i) n))
  in
  {
    name = "churn-wide";
    wal = None;
    pool_jobs = 0;
    sessions;
    solves = [||];
    opens = Array.to_list (Array.map open_line sessions);
    warmup = warmup_session (sess "warmup" 2 (if smoke then 20 else 200));
    stream;
    conns = 1;
    parts;
  }

(* solve-mix instance classes, cycled small / mid / large:
   - small: uniform, n 10-12 on an 8-column strip, default chain, so
     exact-bb proves optimality well inside its node budget;
   - mid: correlated or tall-and-flat, n 60-80, approx54 then bfd-height;
   - large: uniform, n 200-400, bfd-height alone.
   Strip widths and heights keep every solve under about 8 ms on the
   reference machine.  A reply waits for the daemon's 20 ms tick plus,
   when the pool worker runs first, the solve itself, so lat_p99_us is
   20 ms plus a slow solve; with solves near 11 ms, a slow spell on the
   machine pushed some past the next tick and lat_p99_us jumped from
   about 26 to 41 ms between runs. *)
let solve_class rng i =
  match i mod 3 with
  | 0 ->
      let n = Rng.int_in rng 10 12 in
      (Generators.uniform rng ~n ~width:8 ~max_w:4 ~max_h:10, None)
  | 1 ->
      let n = Rng.int_in rng 60 80 in
      let inst =
        if i mod 2 = 0 then
          Generators.correlated rng ~n ~width:100 ~max_w:50 ~max_h:20
        else Generators.tall_and_flat rng ~n ~width:100 ~max_h:20
      in
      (inst, Some "approx54,bfd-height")
  | _ ->
      let n = Rng.int_in rng 200 400 in
      (Generators.uniform rng ~n ~width:200 ~max_w:60 ~max_h:100, Some "bfd-height")

let solve_line (s : solve) =
  let items =
    Array.to_list
      (Array.map
         (fun (it : Item.t) -> Printf.sprintf "[%d,%d]" it.Item.w it.Item.h)
         s.inst.Instance.items)
  in
  Printf.sprintf {|{"op":"solve","width":%d,"items":[%s],"timeout_ms":%d%s}|}
    s.inst.Instance.width (String.concat "," items) s.timeout_ms
    (match s.fallback with
    | None -> ""
    | Some chain -> Printf.sprintf {|,"fallback":%S|} chain)

(* A timeout no solve of these sizes comes near: a fired deadline would
   make the winning solver depend on timing. *)
let solve_timeout_ms = 60_000

(* Stats reads per probe in solve-mix.  A probe follows a solve reply,
   which the daemon sends after idling until its 20 ms tick, and the
   first read after any idle pays the machine's wake-up: on the
   reference machine its round trip spread over 45-110 us within a
   run, and the median of such reads spread by 0.30 of itself over ten
   runs of the same code, while the reads that follow it on the now
   busy loop took 18-38 us (a 1 ms sleep before any read made it as
   slow as the first).  With 4 reads per probe the median falls among
   the reads that time the loop and the stats handler, and the first
   read still counts as a sample. *)
let stats_burst = 4

(* solve-mix: closed-loop solves over distinct seeded instances on one
   connection, a stats probe after every 2 solves.  Nominal 52
   solves/s: the daemon answers a deferred reply on its 20 ms select
   tick. *)
let solve_mix ~seed ~seconds ~smoke =
  let n = if smoke then 9 else 52 * seconds in
  let make salt i =
    let inst, fallback = solve_class (rng seed (salt + i)) i in
    let s = { inst; fallback; timeout_ms = solve_timeout_ms; sline = "" } in
    { s with sline = solve_line s }
  in
  let solves = Array.init n (make 1_000_000) in
  let stream = ref [] in
  for i = 0 to n - 1 do
    stream := pack ~target:i ~step:0 Work :: !stream;
    if i mod 2 = 1 then
      for _ = 1 to stats_burst do
        stream := pack ~target:i ~step:0 Read :: !stream
      done
  done;
  {
    name = "solve-mix";
    wal = None;
    pool_jobs = 1;
    sessions = [||];
    solves;
    opens = [];
    warmup = List.init 3 (fun i -> (make 500_000 i).sline) @ [ stats_line ];
    stream = Array.of_list (List.rev !stream);
    conns = 1;
    parts = (if smoke then 3 else 10);
  }

let make ~name ~seed ~seconds ~smoke =
  match name with
  | "grid-durable" -> Some (grid ~name ~fsync:Wal.Always ~rate:7000 ~seed ~seconds ~smoke)
  | "grid-logged" -> Some (grid ~name ~fsync:Wal.Never ~rate:16000 ~seed ~seconds ~smoke)
  | "churn-wide" -> Some (churn_wide ~seed ~seconds ~smoke)
  | "solve-mix" -> Some (solve_mix ~seed ~seconds ~smoke)
  | _ -> None

let n_requests w = Array.length w.stream

let kind w i = if w.stream.(i) land 1 = 1 then Read else Work
let target w i = w.stream.(i) lsr 21

(* The session and trace event of request [i], when it is one. *)
let event w i =
  if w.sessions = [||] || kind w i = Read then None
  else
    let t = target w i in
    Some (t, w.sessions.(t).events.((w.stream.(i) lsr 1) land 0xFFFFF))

(* The line of request [i]. *)
let line w i =
  match (kind w i, event w i) with
  | Read, _ -> if w.sessions = [||] then stats_line else peak_line w.sessions.(target w i).sname
  | Work, Some (t, ev) -> event_line w.sessions.(t).sname ev
  | Work, None -> w.solves.(target w i).sline
