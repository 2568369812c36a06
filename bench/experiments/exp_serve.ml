(* Service-level benchmark: the NDJSON daemon end to end.

   A real [Server.run_socket] loop is spawned on its own domain and
   driven over its Unix-domain socket by the library {!Client} — the
   measured path is the full production stack (socket, framing,
   protocol parsing, session kernel, WAL), not an in-process shortcut.

   Workload: sharded smart-grid days — one session per shard, each
   replaying its own generated arrival/departure trace, interleaved
   round-robin over one connection the way independent clients
   multiplex onto the daemon, with a peak probe every few events.
   Variants measure the durability spectrum: no WAL, WAL with
   amortized fsync, and (full runs only) WAL with fsync-per-append.

   Metrics per variant: request throughput, per-request round-trip
   latency percentiles (p50/p95/p99 in microseconds, the SLA figures
   the gate trends), the driver-side GC group, and two exact
   correctness signals the gate refuses to tolerate drift on: the
   server's final per-shard peaks must equal a local replay of the
   same traces ([peak_agree]), and for durable variants a fresh server
   recovering from the WAL directory alone must reproduce those peaks
   ([recover_agree]). *)

module Rng = Dsp_util.Rng
module Trace = Dsp_instance.Trace
module Session = Dsp_engine.Session
module Server = Dsp_serve.Server
module Client = Dsp_serve.Client
module Wal = Dsp_serve.Wal
module Protocol = Dsp_serve.Protocol
module Json = Dsp_serve.Json

(* Nearest-rank percentile; perfbench/dspbench.ml reads this binding. *)
let percentile = Dsp_util.Xutil.percentile

let us s = 1e6 *. s

let scratch name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dsp-serve-bench-%d-%s" (Unix.getpid ()) name)

let fresh_dir path =
  if Sys.file_exists path then
    Array.iter (fun f -> Sys.remove (Filename.concat path f)) (Sys.readdir path)
  else Unix.mkdir path 0o755;
  path

(* One session per shard; events merged round-robin so the stream
   looks like independent clients, not one replay after another.
   Departure indices are session-local, so the interleaving preserves
   every shard's own event order and nothing else matters. *)
let shard_workload ~shards ~households ~seed =
  let traces =
    List.init shards (fun s ->
        ( Printf.sprintf "g%d" s,
          Trace.smartgrid
            (Rng.create (Common.seed_for (seed + s)))
            ~households ~departures:true ))
  in
  let opens =
    List.map
      (fun (name, tr) ->
        Printf.sprintf
          {|{"op":"open","session":%S,"width":%d,"policy":"best-fit"}|} name
          tr.Trace.width)
      traces
  in
  let arrays =
    List.map (fun (name, tr) -> (name, Array.of_list tr.Trace.events)) traces
  in
  let longest =
    List.fold_left (fun m (_, a) -> max m (Array.length a)) 0 arrays
  in
  let body = ref [] in
  for i = 0 to longest - 1 do
    List.iter
      (fun (name, a) ->
        if i < Array.length a then begin
          (match a.(i) with
          | Trace.Arrive { w; h } ->
              body :=
                Printf.sprintf
                  {|{"op":"arrive","session":%S,"w":%d,"h":%d}|} name w h
                :: !body
          | Trace.Depart { arrival } ->
              body :=
                Printf.sprintf
                  {|{"op":"depart","session":%S,"arrival":%d}|} name arrival
                :: !body);
          if i mod 8 = 7 then
            body :=
              Printf.sprintf {|{"op":"peak","session":%S}|} name :: !body
        end)
      arrays
  done;
  (traces, opens @ List.rev !body)

let ok_body context = function
  | Ok resp -> (
      match resp.Protocol.body with
      | Ok result -> result
      | Error k ->
          failwith
            (Printf.sprintf "serve bench: %s: %s error: %s" context
               (Protocol.kind_name k)
               (Protocol.error_message k)))
  | Error m -> failwith (Printf.sprintf "serve bench: %s: %s" context m)

let int_field name json =
  match Option.bind (Json.member name json) Json.to_int with
  | Some v -> v
  | None -> failwith (Printf.sprintf "serve bench: no %S field" name)

(* Send every request over the live connection, timing each round
   trip; any transport break or typed error crashes the experiment,
   which the harness degrades to status "crashed" — an automatic gate
   failure. *)
let drive client reqs =
  let lats = Array.make (max 1 (List.length reqs)) 0. in
  List.iteri
    (fun i line ->
      let resp, dt =
        Dsp_util.Xutil.timeit (fun () -> Client.request client line)
      in
      ignore (ok_body line resp);
      lats.(i) <- dt)
    reqs;
  Array.sort compare lats;
  lats

let peak_of_server ask (name, _) = int_field "peak" (ask name)

let local_peaks traces =
  List.map
    (fun (_, tr) ->
      let s = Session.replay ~policy:Session.best_fit tr in
      Session.peak s)
    traces

let run_variant ~experiment ~shards ~households ~seed (variant, wal_cfg) =
  let traces, reqs = shard_workload ~shards ~households ~seed in
  let sock = scratch (variant ^ ".sock") in
  if Sys.file_exists sock then Sys.remove sock;
  let cfg =
    match wal_cfg with
    | None -> { Server.default_config with Server.wal_dir = None }
    | Some fsync ->
        {
          Server.default_config with
          Server.wal_dir = Some (fresh_dir (scratch (variant ^ ".wal")));
          fsync;
        }
  in
  let server = Server.create cfg in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () -> Server.run_socket server ~path:sock ~stop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (match Domain.join daemon with
      | Ok () -> ()
      | Error m -> failwith ("serve bench: daemon: " ^ m));
      Server.close server;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      (* rpc retries the connect, absorbing daemon start-up. *)
      ignore (ok_body "ping" (Client.rpc ~path:sock {|{"op":"ping"}|}));
      match Client.connect ~path:sock with
      | Error m -> failwith ("serve bench: connect: " ^ m)
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let lats, seconds, gc =
                Dsp_util.Xutil.timeit_gc (fun () -> drive client reqs)
              in
              let n = List.length reqs in
              let rps = float_of_int n /. seconds in
              let ask name =
                ok_body "peak"
                  (Client.request client
                     (Printf.sprintf {|{"op":"peak","session":%S}|} name))
              in
              let served = List.map (peak_of_server ask) traces in
              let expected = local_peaks traces in
              let agree = if served = expected then 1 else 0 in
              let key k = Printf.sprintf "%s.%s" variant k in
              Bench_json.record ~experiment (key "requests")
                (Json.Int n);
              Bench_json.record ~experiment (key "drive_seconds")
                (Json.Float seconds);
              Bench_json.record ~experiment (key "req_per_s")
                (Json.Float rps);
              Bench_json.record ~experiment (key "peak_agree")
                (Json.Int agree);
              Common.record_gc ~experiment (key "gc") gc;
              Bench_json.record_group ~experiment (key "latency")
                [
                  ("p50_us", Json.Float (us (percentile lats 0.50)));
                  ("p95_us", Json.Float (us (percentile lats 0.95)));
                  ("p99_us", Json.Float (us (percentile lats 0.99)));
                  ("max_us", Json.Float (us (percentile lats 1.0)));
                ];
              Printf.printf
                "%-10s %6d req %8.0f req/s  p50 %7.1fus  p95 %7.1fus  p99 \
                 %7.1fus  peak_agree=%d\n"
                variant n rps
                (us (percentile lats 0.50))
                (us (percentile lats 0.95))
                (us (percentile lats 0.99))
                agree;
              (* Durable variants: a cold server rebuilt from the WAL
                 directory alone must land on the same peaks. *)
              match cfg.Server.wal_dir with
              | None -> ()
              | Some _ ->
                  let cold = Server.create cfg in
                  let recovered = Server.recover_sessions cold in
                  List.iter
                    (function
                      | _, Ok _ -> ()
                      | name, Error m ->
                          failwith
                            (Printf.sprintf "serve bench: recover %s: %s" name m))
                    recovered;
                  let ask_cold name =
                    match
                      Server.handle cold
                        (Printf.sprintf {|{"op":"peak","session":%S}|} name)
                    with
                    | Server.Now line -> (
                        match Protocol.parse_response line with
                        | Ok resp -> ok_body "cold peak" (Ok resp)
                        | Error m -> failwith ("serve bench: " ^ m))
                    | Server.Later _ ->
                        failwith "serve bench: peak deferred"
                  in
                  let cold_peaks = List.map (peak_of_server ask_cold) traces in
                  let ragree = if cold_peaks = expected then 1 else 0 in
                  Server.close cold;
                  Bench_json.record ~experiment (key "recover_agree")
                    (Json.Int ragree);
                  Printf.printf
                    "%-10s recovery: %d sessions, recover_agree=%d\n" variant
                    (List.length recovered) ragree))

let run ~experiment ~smoke () =
  Common.section experiment
    (if smoke then "service daemon over its socket, CI-sized"
     else "service daemon over its socket: throughput, SLA latency");
  let shards, households = if smoke then (3, 8) else (8, 24) in
  let variants =
    [ ("mem", None); ("wal", Some (Wal.Every 8)) ]
    @ if smoke then [] else [ ("wal-sync", Some Wal.Always) ]
  in
  Bench_json.record ~experiment "shards" (Json.Int shards);
  List.iter (run_variant ~experiment ~shards ~households ~seed:9300) variants

let experiments =
  [
    ("serve", run ~experiment:"serve" ~smoke:false);
    ("serve-smoke", run ~experiment:"serve-smoke" ~smoke:true);
  ]
