(* The repository benchmark: one workload of the DSP daemon, driven
   over its Unix socket, with correctness checks and either the
   end-to-end metrics (untraced) or the per-layer breakdown (traced).

     dspbench --workload NAME --seed N --seconds S --trace 0|1
     dspbench --smoke

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  A failed check prints
   correct:false with no metrics and exits 1.  Every run also writes a
   results file with its provenance under _build/perfbench/.  See
   BENCHMARK.json for the workloads and for what each metric is
   predicted to move. *)

module Server = Dsp_serve.Server
module Protocol = Dsp_serve.Protocol
module Json = Dsp_serve.Json
module Session = Dsp_engine.Session
module Runner = Dsp_engine.Runner
module Report = Dsp_engine.Report
module Instance = Dsp_core.Instance
module Trace = Dsp_instance.Trace
module Instr = Dsp_util.Instr

let percentile = Dsp_bench.Exp_serve.percentile

let now_ns = Daemon.now_ns

(* Set-ups per run; the median is setup_s and the last one serves the
   timed window. *)
let setups_per_run = 5

(* ----- small helpers -------------------------------------------------- *)

let sorted_us (ns : int list) =
  let a = Array.of_list (List.map (fun x -> float_of_int x /. 1e3) ns) in
  Array.sort compare a;
  a

let p q ns = percentile (sorted_us ns) q

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

let ok_body line =
  match Protocol.parse_response line with
  | Ok { Protocol.body = Ok result; _ } -> Some result
  | Ok { Protocol.body = Error _; _ } | Error _ -> None

let expect_ok what line =
  match ok_body line with
  | Some result -> result
  | None -> failwith (Printf.sprintf "%s: not ok: %s" what line)

let int_member name json =
  match Option.bind (Json.member name json) Json.to_int with
  | Some v -> v
  | None -> failwith (Printf.sprintf "reply has no integer %S" name)

(* ----- set-up ---------------------------------------------------------- *)

(* Start the daemon, ping it, open every session and send the warm-up
   requests.  Returns the daemon and the seconds it took. *)
let setup (w : Workload.t) ~tag =
  let t0 = now_ns () in
  let d = Daemon.start w ~tag ~n_conns:w.Workload.conns in
  let c = d.Daemon.conns.(0) in
  ignore (expect_ok "ping" (Daemon.rpc c {|{"op":"ping"}|}));
  List.iter (fun l -> ignore (expect_ok "set-up" (Daemon.rpc c l))) w.Workload.opens;
  List.iter (fun l -> ignore (expect_ok "warm-up" (Daemon.rpc c l))) w.Workload.warmup;
  (d, fi (now_ns () - t0) /. 1e9)

(* ----- the untraced window -------------------------------------------- *)

type solve_reply = {
  winner : string;
  peak : int;
  lower_bound : int;
  safety_net : bool;
  timeouts : int;
}

(* The window is cut into the workload's parts (equal work each), a
   timing metric is taken per part, and the median part is reported, so
   a stall in one part of the window does not move it; every part's
   figures are kept in the results file.  A part's p99 counts only when
   the part has this many work requests (10 samples beyond its p99);
   otherwise lat_p99_us is taken over the whole window. *)
let p99_min_samples = 1000

type part = {
  rate : float;  (** acknowledged requests per second *)
  cpu_per_op : float;  (** process CPU seconds per acknowledged request *)
  work : int list;  (** round trips of work requests, ns *)
  read : int list;  (** round trips of read probes, ns *)
}

type window = {
  rts : int array;  (** round trip per request, ns *)
  parts : part list;  (** non-empty parts, in window order *)
  seconds : float;
  counters : (string * int) list;  (** Instr deltas over the window *)
  sent : int;
  acked : int;
  acked_work : int;
  bytes : int;  (** request plus reply bytes, newlines included *)
  solve_replies : solve_reply option array;
  heap_top_words : int;  (** right after the window *)
}

let solve_reply json =
  let failures = Option.value ~default:[] (Option.bind (Json.member "failures" json) Json.to_list) in
  {
    winner = Option.value ~default:"" (Option.bind (Json.member "solver" json) Json.to_str);
    peak = int_member "peak" json;
    lower_bound = int_member "lower_bound" json;
    safety_net = Option.value ~default:true (Option.bind (Json.member "safety_net" json) Json.to_bool);
    timeouts =
      List.length
        (List.filter
           (fun f -> Option.bind (Json.member "kind" f) Json.to_str = Some "timeout")
           failures);
  }

let cut_parts (w : Workload.t) (dr : Daemon.drive) ok =
  let k = w.Workload.parts in
  let n = Workload.n_requests w in
  let part_of = Array.make n 0 in
  for j = 0 to k - 1 do
    for q = j * n / k to ((j + 1) * n / k) - 1 do
      part_of.(q) <- j
    done
  done;
  let acked = Array.make k 0 and work = Array.make k [] and read = Array.make k [] in
  for i = 0 to n - 1 do
    let j = part_of.(dr.Daemon.seq.(i)) in
    if ok.(i) then acked.(j) <- acked.(j) + 1;
    match Workload.kind w i with
    | Workload.Work -> work.(j) <- dr.Daemon.rts.(i) :: work.(j)
    | Workload.Read -> read.(j) <- dr.Daemon.rts.(i) :: read.(j)
  done;
  List.filter_map
    (fun j ->
      let t0, c0 = dr.Daemon.marks.(j) and t1, c1 = dr.Daemon.marks.(j + 1) in
      if (j + 1) * n / k = j * n / k then None
      else
        Some
          {
            rate = ratio (fi acked.(j)) (fi (t1 - t0) /. 1e9);
            cpu_per_op = ratio (c1 -. c0) (fi acked.(j));
            work = work.(j);
            read = read.(j);
          })
    (List.init k Fun.id)

let run_window (w : Workload.t) d =
  let acked = ref 0 and acked_work = ref 0 in
  let ok = Array.make (Workload.n_requests w) false in
  let solve_replies = Array.make (Array.length w.Workload.solves) None in
  let on_reply i reply =
    match ok_body reply with
    | None -> ()
    | Some result ->
        ok.(i) <- true;
        incr acked;
        if Workload.kind w i = Workload.Work then begin
          incr acked_work;
          if w.Workload.solves <> [||] then
            solve_replies.(Workload.target w i) <- Some (solve_reply result)
        end
  in
  let before = Instr.snapshot () in
  let dr = Daemon.drive d w ~k:w.Workload.parts ~on_reply in
  let after = Instr.snapshot () in
  let heap_top_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0, _ = dr.Daemon.marks.(0) and t1, _ = dr.Daemon.marks.(w.Workload.parts) in
  {
    rts = dr.Daemon.rts;
    parts = cut_parts w dr ok;
    seconds = fi (t1 - t0) /. 1e9;
    counters = Instr.delta ~before ~after;
    sent = Workload.n_requests w;
    acked = !acked;
    acked_work = !acked_work;
    bytes = dr.Daemon.bytes;
    solve_replies;
    heap_top_words;
  }

let counter win name = Option.value ~default:0 (List.assoc_opt name win.counters)

(* ----- correctness checks --------------------------------------------- *)

(* Each session's peak by a local replay of its trace; the rounds of a
   workload share their traces, so each trace is replayed once. *)
let expected_peaks (w : Workload.t) =
  let memo = ref [] in
  Array.map
    (fun (s : Workload.session) ->
      match List.assq_opt s.Workload.trace !memo with
      | Some peak -> peak
      | None ->
          let policy = Option.get (Session.find_policy ~k:s.Workload.k s.Workload.policy) in
          let peak = Session.peak (Session.replay ~policy s.Workload.trace) in
          memo := (s.Workload.trace, peak) :: !memo;
          peak)
    w.Workload.sessions

(* A cold server rebuilt from the WAL directory alone. *)
let recovered_peaks (w : Workload.t) wal_dir =
  let cold = Server.create (Daemon.config w (Some wal_dir)) in
  let recovered = Server.recover_sessions cold in
  let all_ok = List.for_all (fun (_, r) -> Result.is_ok r) recovered in
  let peaks =
    Array.map
      (fun (s : Workload.session) ->
        match Server.handle cold (Workload.peak_line s.Workload.sname) with
        | Server.Now line -> (
            match ok_body line with Some j -> int_member "peak" j | None -> -1)
        | Server.Later _ -> -1)
      w.Workload.sessions
  in
  Server.close cold;
  (all_ok, peaks)

let solve_checks (w : Workload.t) win =
  let n = Array.length w.Workload.solves in
  let solve_ns = Array.make n 0 in
  let agree = ref true and clean = ref true in
  Array.iteri
    (fun i (s : Workload.solve) ->
      let chain =
        Option.map
          (fun spec -> match Runner.parse_chain spec with Ok c -> c | Error m -> failwith m)
          s.Workload.fallback
      in
      let t0 = now_ns () in
      let r = Runner.solve ~timeout_ms:s.Workload.timeout_ms ?chain s.Workload.inst in
      solve_ns.(i) <- now_ns () - t0;
      match win.solve_replies.(i) with
      | None -> agree := false
      | Some got ->
          if got.winner <> r.Runner.winner || got.peak <> r.Runner.report.Report.peak then
            agree := false;
          if got.safety_net || got.timeouts > 0 then clean := false)
    w.Workload.solves;
  ([ ("solve_agree", !agree); ("no_timeout_or_safety_net", !clean) ], solve_ns)

(* ----- metrics --------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let peak_ratio (w : Workload.t) win ~final_peaks =
  if w.Workload.solves <> [||] then
    let peak, lb =
      Array.fold_left
        (fun (p, l) r ->
          match r with Some r -> (p + r.peak, l + r.lower_bound) | None -> (p, l))
        (0, 0) win.solve_replies
    in
    ratio (fi peak) (fi lb)
  else
    let lb =
      Array.fold_left
        (fun acc (s : Workload.session) ->
          acc + Instance.lower_bound (fst (Trace.live_instance s.Workload.trace)))
        0 w.Workload.sessions
    in
    ratio (fi (Array.fold_left ( + ) 0 final_peaks)) (fi lb)

(* A part's timing figures: rate, work p50 and p99, read p50 (us) and
   CPU per request (us). *)
type figures = { rate_s : float; p50 : float; p99 : float; read50 : float; cpu_us : float }

let figures part =
  let pct q l = if l = [] then Float.nan else p q l in
  {
    rate_s = part.rate;
    p50 = pct 0.50 part.work;
    p99 = pct 0.99 part.work;
    read50 = pct 0.50 part.read;
    cpu_us = 1e6 *. part.cpu_per_op;
  }

let end_to_end (w : Workload.t) win ~setup_s ~final_peaks =
  let heap = win.heap_top_words * (Sys.word_size / 8) in
  let figs = List.map figures win.parts in
  (* parts without a sample of some kind (tiny smoke runs) do not vote *)
  let per_part f =
    match List.filter (fun v -> not (Float.is_nan v)) (List.map f figs) with
    | [] -> 0.
    | vs -> median vs
  in
  let lat_p99 =
    if List.for_all (fun s -> List.length s.work >= p99_min_samples) win.parts then
      per_part (fun f -> f.p99)
    else p 0.99 (List.concat_map (fun s -> s.work) win.parts)
  in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (per_part (fun f -> f.rate_s));
    m "lat_p50_us" "us" (per_part (fun f -> f.p50));
    m "lat_p99_us" "us" lat_p99;
    m "read_p50_us" "us" (per_part (fun f -> f.read50));
    m "ok_frac" "ratio" (ratio (fi win.acked) (fi win.sent));
    m "peak_ratio" "ratio" (peak_ratio w win ~final_peaks);
    m "heap_top_mb" "MB" (fi heap /. 1e6);
    m "cpu_us_per_op" "us" (per_part (fun f -> f.cpu_us));
  ]

(* Layers, by the span names that belong to them.  pool.queue_wait is
   not a layer of Server.handle: the inline replay has no pool. *)
let layers =
  [
    ("codec", [ "codec.parse"; "codec.encode" ]);
    ("wal", [ "wal.append"; "wal.fsync"; "wal.compact" ]);
    ("session", [ "session.arrive"; "session.depart"; "session.peak" ]);
    ("kernel", [ "kernel.best_start" ]);
    ("runner", [ "runner.stage" ]);
    ("solver", [ "solver.exact-bb"; "solver.approx54"; "solver.bfd-height" ]);
  ]

(* The traced replays cover at most this many requests from the start
   of the stream, which bounds the span store and the replay time of
   the longest (grid) streams. *)
let traced_requests = 160_000

let per_layer (w : Workload.t) win ~solve_ns =
  let n_req = min traced_requests (Workload.n_requests w) in
  let lines = Array.init n_req (Workload.line w) in
  let st = Spans.create_store () in
  let wal_dir tag =
    if w.Workload.wal <> None then begin
      let dir = Filename.concat Daemon.scratch_root (Printf.sprintf "trace-%d-%s" (Unix.getpid ()) tag) in
      Daemon.rm_rf dir;
      Unix.mkdir dir 0o755;
      Some dir
    end
    else None
  in
  let handle_dir = wal_dir "handle" in
  let h = Spans.replay_handle w ~wal_dir:handle_dir ~lines st in
  Option.iter Daemon.rm_rf handle_dir;
  let n_handle = st.Spans.n in
  let shadow_dir = wal_dir "shadow" in
  let sh = Spans.replay_shadow w ~wal_dir:shadow_dir ~lines st in
  Option.iter Daemon.rm_rf shadow_dir;
  let n_shadow = st.Spans.n - n_handle in
  Spans.probe_kernel w ~n:n_req ~arrive_span:sh.Spans.arrive_span st;
  let cost = Spans.span_cost_ns () in
  Spans.write_tsv st
    (Filename.concat Daemon.scratch_root (Printf.sprintf "spans-%s.tsv" w.Workload.name));
  let self = Spans.self_times st in
  let durs name =
    let acc = ref [] in
    for i = 0 to st.Spans.n - 1 do
      if st.Spans.name.(i) = name then acc := Spans.duration st i :: !acc
    done;
    !acc
  in
  let self_sum names =
    let acc = ref 0 in
    for i = 0 to st.Spans.n - 1 do
      if List.mem st.Spans.name.(i) names then acc := !acc + self.(i)
    done;
    fi !acc
  in
  let pu q name = match durs name with [] -> 0. | l -> p q l in
  let pm q name = pu q name /. 1e3 in
  let handle_total = fi (Array.fold_left ( + ) 0 h.Spans.handle_ns) in
  let layer_total = List.fold_left (fun a (_, names) -> a +. self_sum names) 0. layers in
  (* round trips of immediate replies against their handle time *)
  let rt_now = ref [] and handle_now = ref [] and deferred = ref [] in
  for rid = 0 to n_req - 1 do
    let rt = win.rts.(rid) in
    if w.Workload.solves <> [||] && Workload.kind w rid = Workload.Work then
      deferred := (rt - solve_ns.(Workload.target w rid)) :: !deferred
    else begin
      rt_now := rt :: !rt_now;
      handle_now := h.Spans.handle_ns.(rid) :: !handle_now
    end
  done;
  let solves = Array.length w.Workload.solves in
  (* chain stages per solve, in the order they ran: every stage but the
     last one of a solve failed and fell through *)
  let stages = Hashtbl.create 64 in
  for i = st.Spans.n - 1 downto 0 do
    if st.Spans.name.(i) = "runner.stage" then
      let rid = st.Spans.rid.(i) in
      Hashtbl.replace stages rid
        (Spans.duration st i :: Option.value ~default:[] (Hashtbl.find_opt stages rid))
  done;
  let solve_times = Hashtbl.fold (fun _ ds acc -> List.fold_left ( + ) 0 ds :: acc) stages [] in
  let n_stages = Hashtbl.fold (fun _ ds acc -> acc + List.length ds) stages 0 in
  let failed_ns =
    Hashtbl.fold
      (fun _ ds acc -> acc + List.fold_left ( + ) 0 (List.filteri (fun j _ -> j < List.length ds - 1) ds))
      stages 0
  in
  let stage_ns = List.fold_left ( + ) 0 solve_times in
  let per_op c = ratio (fi (counter win c)) (fi win.acked) in
  let per_solve_c c = ratio (fi (counter win c)) (fi solves) in
  let arrivals = counter win Instr.Sites.session_arrivals in
  let trials = counter win Instr.Sites.session_migration_trials in
  let wal_acks = if w.Workload.wal <> None then win.acked_work else 0 in
  let share names = ratio (self_sum names) handle_total in
  [
    m "loop.transport_p50_us" "us" (p 0.5 !rt_now -. p 0.5 !handle_now);
    m "loop.deferred_wait_p50_us" "us" (if !deferred = [] then 0. else p 0.5 !deferred);
    m "loop.deferred_wait_p99_us" "us" (if !deferred = [] then 0. else p 0.99 !deferred);
    m "server.handle_p50_us" "us" (pu 0.5 "server.handle");
    m "server.handle_p99_us" "us" (pu 0.99 "server.handle");
    m "codec.parse_p50_us" "us" (pu 0.5 "codec.parse");
    m "codec.encode_p50_us" "us" (pu 0.5 "codec.encode");
    m "codec.bytes_per_op" "B/op" (ratio (fi win.bytes) (fi win.sent));
    m "wal.append_p50_us" "us" (pu 0.5 "wal.append");
    m "wal.fsync_p50_us" "us" (pu 0.5 "wal.fsync");
    m "wal.fsync_p99_us" "us" (pu 0.99 "wal.fsync");
    m "wal.compact_p50_us" "us" (pu 0.5 "wal.compact");
    m "wal.fsyncs_per_ack" "count/ack"
      (ratio (fi (counter win Instr.Sites.wal_fsyncs)) (fi wal_acks));
    m "wal.bytes_per_ack" "B/ack" (ratio (fi sh.Spans.wal_bytes) (fi sh.Spans.wal_appends));
    m "session.arrive_p50_us" "us" (pu 0.5 "session.arrive");
    m "session.arrive_p99_us" "us" (pu 0.99 "session.arrive");
    m "session.depart_p50_us" "us" (pu 0.5 "session.depart");
    m "session.trials_per_arrival" "count/arrival" (ratio (fi trials) (fi arrivals));
    m "session.migration_yield" "ratio"
      (ratio (fi (counter win Instr.Sites.session_migrations)) (fi trials));
    m "kernel.best_start_p50_us" "us" (pu 0.5 "kernel.best_start");
    m "kernel.range_add_per_op" "count/op" (per_op Instr.Sites.segtree_range_add);
    m "kernel.range_max_per_op" "count/op" (per_op Instr.Sites.segtree_range_max);
    m "kernel.first_fit_per_op" "count/op" (per_op Instr.Sites.segtree_first_fit);
    m "kernel.best_start_per_op" "count/op" (per_op Instr.Sites.segtree_best_start);
    m "runner.solve_p50_ms" "ms" (if solve_times = [] then 0. else p 0.5 solve_times /. 1e3);
    m "runner.solve_p99_ms" "ms" (if solve_times = [] then 0. else p 0.99 solve_times /. 1e3);
    m "runner.fallthrough_frac" "ratio"
      (ratio (fi (n_stages - Hashtbl.length stages)) (fi n_stages));
    m "runner.wasted_frac" "ratio" (ratio (fi failed_ns) (fi stage_ns));
    m "solver.exact_bb_p50_ms" "ms" (pm 0.5 "solver.exact-bb");
    m "solver.approx54_p50_ms" "ms" (pm 0.5 "solver.approx54");
    m "solver.bfd_height_p50_ms" "ms" (pm 0.5 "solver.bfd-height");
    m "solver.bb_nodes_per_solve" "count/solve" (per_solve_c Instr.Sites.bb_nodes);
    m "solver.approx54_guesses_per_solve" "count/solve" (per_solve_c Instr.Sites.approx54_guesses);
    m "solver.simplex_pivots_per_solve" "count/solve" (per_solve_c Instr.Sites.simplex_pivots);
    m "pool.queue_wait_p50_us" "us" (pu 0.5 "pool.queue_wait");
    m "gc.minor_words_per_op" "words/op" (ratio h.Spans.minor_words (fi n_req));
    m "gc.major_collections_per_kop" "count/kop"
      (ratio (1000. *. fi h.Spans.major_collections) (fi n_req));
    m "trace.layers_cover" "ratio" (ratio layer_total handle_total);
    m "trace.unattributed_us_per_op" "us/op" (ratio ((handle_total -. layer_total) /. 1e3) (fi n_req));
    m "trace.overhead_frac" "ratio"
      (ratio (cost *. fi n_shadow) (fi sh.Spans.shadow_ns));
  ]
  @ List.map (fun (layer, names) -> m ("trace.self_share." ^ layer) "ratio" (share names)) layers

(* ----- one run ---------------------------------------------------------- *)

type outcome = {
  workload : string;
  correct : bool;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;  (** empty unless traced *)
  setup_samples : float list;
  window_s : float;
  parts : figures list;
  wal_fstype : string;
}

let run_workload ~name ~seed ~seconds ~trace ~smoke =
  let w =
    match Workload.make ~name ~seed ~seconds ~smoke with
    | Some w -> w
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (%s)" name (String.concat ", " Workload.names))
  in
  Daemon.mkdir_p Daemon.scratch_root;
  let wal_fstype = Daemon.fstype Daemon.scratch_root in
  if w.Workload.wal <> None && List.mem wal_fstype [ "tmpfs"; "ramfs" ] then
    failwith
      (Printf.sprintf "%s needs its WAL on a disk, but %s is %s" name Daemon.scratch_root
         wal_fstype);
  let samples = ref [] in
  let rec setups k =
    let d, s = setup w ~tag:(string_of_int k) in
    samples := s :: !samples;
    if k < (if smoke then 2 else setups_per_run) then begin
      Daemon.stop d;
      Daemon.discard d;
      setups (k + 1)
    end
    else d
  in
  let d = setups 1 in
  let win = run_window w d in
  let final_peaks =
    Array.map
      (fun (s : Workload.session) ->
        int_member "peak"
          (expect_ok "final peak" (Daemon.rpc d.Daemon.conns.(0) (Workload.peak_line s.Workload.sname))))
      w.Workload.sessions
  in
  Daemon.stop d;
  let setup_s = median !samples in
  let e2e = end_to_end w win ~setup_s ~final_peaks in
  let session_checks =
    if w.Workload.sessions = [||] then []
    else
      let expected = expected_peaks w in
      ("peak_agree", final_peaks = expected)
      ::
      (match d.Daemon.wal_dir with
      | None -> []
      | Some dir ->
          let all_ok, peaks = recovered_peaks w dir in
          [ ("recover_agree", all_ok && peaks = expected) ])
  in
  Daemon.discard d;
  let solve_checks, solve_ns =
    if w.Workload.solves = [||] then ([], [||]) else solve_checks w win
  in
  let checks = session_checks @ solve_checks in
  let correct = List.for_all snd checks in
  let layer = if trace && correct then per_layer w win ~solve_ns else [] in
  {
    workload = name;
    correct;
    checks;
    attempted = win.sent;
    failed = win.sent - win.acked;
    e2e;
    layer;
    setup_samples = List.rev !samples;
    window_s = win.seconds;
    parts = List.map figures win.parts;
    wal_fstype;
  }

(* ----- output ----------------------------------------------------------- *)

(* The shortest decimal that reads back as the same float: a value is
   printed with all its digits. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s =
      List.find
        (fun s -> float_of_string s = v)
        (List.map (fun d -> Printf.sprintf "%.*g" d v) [ 15; 16; 17 ])
    in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
       ms)

let result_line o ~trace =
  let ms = if not o.correct then [] else if trace then o.layer else o.e2e in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} o.correct
    o.attempted o.failed (metrics_json ms)

let git_provenance () =
  if not (Sys.file_exists ".git") then ("none", "unknown")
  else
    let sha = Option.value ~default:"unknown" (Daemon.command_line "git" [ "rev-parse"; "HEAD" ]) in
    let dirty =
      match Daemon.command_line "git" [ "status"; "--porcelain"; "--untracked-files=no" ] with
      | Some "" -> "false"
      | Some _ -> "true"
      | None -> "unknown"
    in
    (sha, dirty)

let write_results o ~seed ~seconds ~trace =
  let sha, dirty = git_provenance () in
  let path =
    Filename.concat Daemon.scratch_root
      (Printf.sprintf "results-%s-seed%d-trace%d.json" o.workload seed (if trace then 1 else 0))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b,\n\
    \ \"provenance\": {\"nproc\": %S, \"cpu_affinity\": %S, \"ocaml\": %S, \"git_sha\": %S, \
     \"git_dirty\": %S, \"wal_fstype\": %S},\n\
    \ \"requests\": {\"sent\": %d, \"acknowledged\": %d, \"failed\": %d},\n\
    \ \"window_s\": %s, \"setup_samples_s\": [%s],\n\
    \ \"parts\": [%s],\n\
    \ \"checks\": {%s},\n\
    \ \"end_to_end\": {%s},\n\
    \ \"per_layer\": {%s}}\n"
    o.workload seed seconds trace
    (Option.value ~default:"unknown" (Daemon.command_line "nproc" [ "--all" ]))
    (Option.value ~default:"unknown"
       (Daemon.command_line "taskset" [ "-pc"; string_of_int (Unix.getpid ()) ]))
    Sys.ocaml_version sha dirty
    o.wal_fstype o.attempted (o.attempted - o.failed) o.failed (number o.window_s)
    (String.concat ", " (List.map number o.setup_samples))
    (String.concat ", "
       (List.map
          (fun f ->
            Printf.sprintf
              "{\"ops_per_s\": %s, \"lat_p50_us\": %s, \"lat_p99_us\": %s, \"read_p50_us\": %s, \"cpu_us_per_op\": %s}"
              (number f.rate_s) (number f.p50) (number f.p99) (number f.read50) (number f.cpu_us))
          o.parts))
    (String.concat ", " (List.map (fun (n, ok) -> Printf.sprintf "%S: %b" n ok) o.checks))
    (if o.correct then metrics_json o.e2e else "")
    (if o.correct then metrics_json o.layer else "");
  close_out oc;
  path

let print_summary o =
  Printf.printf "workload %s: %d requests, %d failed, window %.3f s\n" o.workload o.attempted
    o.failed o.window_s;
  List.iter (fun (n, ok) -> Printf.printf "  check %-26s %s\n" n (if ok then "pass" else "FAIL")) o.checks;
  if o.correct then
    List.iter (fun x -> Printf.printf "  %-36s %14.4f %s\n" x.name x.value x.unit_) (o.e2e @ o.layer)

(* ----- smoke test ------------------------------------------------------- *)

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* Metric names and units as BENCHMARK.json declares them. *)
let declared section =
  List.map
    (fun x ->
      match
        ( Option.bind (Json.member "name" x) Json.to_str,
          Option.bind (Json.member "unit" x) Json.to_str )
      with
      | Some n, Some u -> (n, u)
      | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ section))
    (Option.value ~default:[]
       (Option.bind (Json.member section (read_json "BENCHMARK.json")) Json.to_list))

(* Metrics that count work rather than time it: they must repeat
   exactly across runs with the same seed. *)
let exact_metrics =
  [
    "peak_ratio"; "ok_frac"; "wal.fsyncs_per_ack"; "kernel.range_add_per_op";
    "kernel.range_max_per_op"; "kernel.first_fit_per_op"; "kernel.best_start_per_op";
    "session.trials_per_arrival"; "session.migration_yield"; "solver.bb_nodes_per_solve";
    "solver.approx54_guesses_per_solve"; "solver.simplex_pivots_per_solve";
  ]

(* Per-layer metric names, layer by layer, from perfbench/layers.json. *)
let layer_table () =
  let strs j = List.filter_map Json.to_str (Option.value ~default:[] (Json.to_list j)) in
  List.concat_map
    (fun l -> Option.fold ~none:[] ~some:strs (Json.member "metrics" l))
    (Option.value ~default:[]
       (Option.bind (Json.member "layers" (read_json "perfbench/layers.json")) Json.to_list))

let smoke () =
  let e2e = declared "end_to_end" and layer = declared "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let table = layer_table () in
  List.iter
    (fun (n, _) ->
      match List.length (List.filter (( = ) n) table) with
      | 1 -> ()
      | k -> problem "layers.json lists %s %d times" n k)
    layer;
  List.iter
    (fun n -> if not (List.mem_assoc n layer) then problem "layers.json lists undeclared %s" n)
    table;
  List.iter
    (fun name ->
      let a = run_workload ~name ~seed:7 ~seconds:1 ~trace:true ~smoke:true in
      let b = run_workload ~name ~seed:7 ~seconds:1 ~trace:true ~smoke:true in
      List.iter
        (fun o ->
          List.iter (fun (c, ok) -> if not ok then problem "%s: check %s failed" name c) o.checks;
          let printed = o.e2e @ o.layer in
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun x -> x.name = n) printed with
              | None -> problem "%s: metric %s not printed" name n
              | Some x -> if x.unit_ <> u then problem "%s: %s unit %s, declared %s" name n x.unit_ u)
            (e2e @ layer);
          List.iter
            (fun x ->
              if not (List.mem_assoc x.name (e2e @ layer)) then
                problem "%s: metric %s is not declared" name x.name)
            printed)
        [ a; b ];
      List.iter
        (fun n ->
          let v o = List.find_opt (fun x -> x.name = n) (o.e2e @ o.layer) in
          match (v a, v b) with
          | Some x, Some y when x.value = y.value -> ()
          | Some x, Some y -> problem "%s: %s differs across runs: %.17g vs %.17g" name n x.value y.value
          | _ -> ())
        exact_metrics;
      Printf.printf "smoke %s: %d metrics, checks %s\n%!" name
        (List.length (a.e2e @ a.layer))
        (String.concat "," (List.map fst a.checks)))
    Workload.names;
  match !problems with
  | [] ->
      print_endline "smoke: ok";
      exit 0
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* ----- entry ------------------------------------------------------------ *)

let usage =
  "usage: dspbench --workload NAME --seed N --seconds S --trace 0|1\n       dspbench --smoke"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: v :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | a :: _ ->
        prerr_endline ("unexpected argument " ^ a);
        prerr_endline usage;
        exit 2
  in
  let opts = parse [] args in
  if List.mem_assoc "smoke" opts then smoke ();
  let get k =
    match List.assoc_opt k opts with
    | Some v -> v
    | None ->
        prerr_endline usage;
        exit 2
  in
  let int_arg k =
    match int_of_string_opt (get k) with
    | Some v -> v
    | None ->
        prerr_endline (k ^ " must be an integer");
        exit 2
  in
  let name = get "workload" and seed = int_arg "seed" and seconds = int_arg "seconds" in
  let trace =
    match get "trace" with
    | "0" -> false
    | "1" -> true
    | _ ->
        prerr_endline "--trace must be 0 or 1";
        exit 2
  in
  if seconds < 1 then begin
    prerr_endline "--seconds must be at least 1";
    exit 2
  end;
  match run_workload ~name ~seed ~seconds ~trace ~smoke:false with
  | exception Failure m ->
      prerr_endline ("dspbench: " ^ m);
      exit 2
  | o ->
      print_summary o;
      let path = write_results o ~seed ~seconds ~trace in
      Printf.printf "results: %s\n" path;
      print_endline (result_line o ~trace);
      if not o.correct then exit 1
