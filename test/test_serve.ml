(* The service layer's robustness contract, pinned four ways: the
   NDJSON parser is total under fuzz (like Io and Trace before it),
   the WAL round-trips and cleanly truncates torn/corrupt tails, a
   kill-mid-stream recovery is indistinguishable from an uninterrupted
   run (the crash differential, with and without compaction), and the
   admission queue sheds typed overload errors instead of wedging. *)

module Json = Dsp_serve.Json
module Protocol = Dsp_serve.Protocol
module Wal = Dsp_serve.Wal
module Server = Dsp_serve.Server
module Session = Dsp_engine.Session
module Trace = Dsp_instance.Trace
module Rng = Dsp_util.Rng
module Fault = Dsp_util.Fault

let case name f = Alcotest.test_case name `Quick f

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsp_serve_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

(* Run one request through the transport-independent core, waiting
   for deferred replies (pool-dispatched solves) to land. *)
let req t line = Server.await (Server.handle t line)

let decode line =
  match Protocol.parse_response line with
  | Ok r -> r
  | Error m -> Alcotest.failf "undecodable response %S: %s" line m

let ok_body name (resp : Protocol.response) =
  match resp.Protocol.body with
  | Ok result -> result
  | Error kind ->
      Alcotest.failf "%s: expected ok, got %s error: %s" name
        (Protocol.kind_name kind)
        (Protocol.error_message kind)

let expect_ok name line = ok_body name (decode line)

let expect_error name line =
  match (decode line).Protocol.body with
  | Error kind -> kind
  | Ok result ->
      Alcotest.failf "%s: expected an error, got ok %s" name
        (Json.to_string result)

let int_field name json =
  match Option.bind (Json.member name json) Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "response lacks integer field %S" name

(* Solves holding an admission slot, as the stats op reports them. *)
let inflight t = int_field "inflight" (expect_ok "stats" (req t {|{"op":"stats"}|}))

(* ---- JSON ---- *)

(* No Float in the round-trip generator: "%.12g" printing is not
   exactly inverse for every float; floats get their own case. *)
let json_gen =
  let open QCheck.Gen in
  sized_size (int_bound 3) (fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun s -> Json.String s) (small_string ~gen:printable);
          ]
      in
      if n = 0 then scalar
      else
        let key = small_string ~gen:(char_range 'a' 'z') in
        oneof
          [
            scalar;
            map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (n - 1)));
            map
              (fun kvs ->
                (* duplicate keys are dropped by the parser: dedup *)
                let seen = Hashtbl.create 8 in
                Json.Obj
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else begin
                         Hashtbl.add seen k ();
                         true
                       end)
                     kvs))
              (list_size (int_bound 4) (pair key (self (n - 1))));
          ]))

let json_arb = QCheck.make ~print:Json.to_string json_gen

let json_tests =
  [
    Helpers.qtest ~count:300 "json: to_string/of_string round-trips" json_arb
      (fun v ->
        match Json.of_string (Json.to_string v) with
        | Ok v' -> v = v'
        | Error m -> QCheck.Test.fail_reportf "re-parse failed: %s" m);
    case "json: floats survive a round trip" (fun () ->
        List.iter
          (fun f ->
            match Json.of_string (Json.to_string (Json.Float f)) with
            | Ok (Json.Float f') ->
                Alcotest.(check (float 1e-9)) "float" f f'
            | Ok v -> Alcotest.failf "parsed as %s" (Json.to_string v)
            | Error m -> Alcotest.fail m)
          [ 0.5; -3.25; 1e-9; 12345.678; 1e20 ]);
    case "json: escapes and unicode decode" (fun () ->
        match Json.of_string {|{"s":"a\nb\t\"q\" Aé"}|} with
        | Ok v ->
            Alcotest.(check (option string))
              "decoded"
              (Some "a\nb\t\"q\" A\xc3\xa9")
              (Option.bind (Json.member "s" v) Json.to_str)
        | Error m -> Alcotest.fail m);
    Helpers.qtest ~count:500 "fuzz: arbitrary bytes never crash the JSON parser"
      QCheck.(string_gen Gen.(char_range '\000' '\255'))
      (fun s ->
        match Json.of_string s with
        | Ok _ -> true
        | Error m -> String.length m > 0
        | exception e ->
            QCheck.Test.fail_reportf "parser raised %s on %S"
              (Printexc.to_string e) s);
    case "json: nesting depth is capped, not stack-fatal" (fun () ->
        let deep = String.make 5000 '[' ^ String.make 5000 ']' in
        match Json.of_string deep with
        | Ok _ -> Alcotest.fail "expected a depth error"
        | Error m -> Alcotest.(check bool) "typed" true (String.length m > 0));
  ]

(* ---- protocol fuzz ---- *)

let request_templates =
  [
    {|{"id":1,"op":"ping"}|};
    {|{"id":2,"op":"open","session":"s","width":10,"policy":"migrate","k":2}|};
    {|{"id":3,"op":"arrive","session":"s","w":4,"h":3}|};
    {|{"id":4,"op":"depart","session":"s","arrival":0}|};
    {|{"op":"peak","session":"s"}|};
    {|{"op":"snapshot","session":"s"}|};
    {|{"op":"close","session":"s"}|};
    {|{"op":"solve","width":9,"items":[[3,2],[4,1]],"timeout_ms":50,"fallback":"bfd-height"}|};
    {|{"op":"compare","width":9,"items":[[3,2]],"solvers":["bfd-height"]}|};
    {|{"op":"stats"}|};
  ]

let protocol_fuzz_tests =
  [
    Helpers.qtest ~count:400
      "fuzz: mutated request lines never crash parse_request"
      QCheck.(
        triple
          (int_bound (List.length request_templates - 1))
          small_nat (int_range 0 255))
      (fun (which, pos, byte) ->
        let text = List.nth request_templates which in
        let mutated =
          String.mapi
            (fun i c ->
              if i = pos mod String.length text then Char.chr byte else c)
            text
        in
        match Protocol.parse_request mutated with
        | Ok (_, _) -> true
        | Error (_, kind) ->
            String.length (Protocol.error_message kind) > 0
            && String.length (Protocol.kind_name kind) > 0
        | exception e ->
            QCheck.Test.fail_reportf "parse_request raised %s on %S"
              (Printexc.to_string e) mutated);
    Helpers.qtest ~count:300
      "fuzz: the server core answers every mutated line without raising"
      QCheck.(
        triple
          (int_bound (List.length request_templates - 1))
          small_nat (int_range 0 255))
      (fun (which, pos, byte) ->
        let t = Server.create Server.default_config in
        let text = List.nth request_templates which in
        let mutated =
          String.mapi
            (fun i c ->
              if i = pos mod String.length text then Char.chr byte else c)
            text
        in
        match req t mutated with
        | line -> (
            match Protocol.parse_response line with
            | Ok _ -> true
            | Error m ->
                QCheck.Test.fail_reportf "unparseable response %S: %s" line m)
        | exception e ->
            QCheck.Test.fail_reportf "server raised %s on %S"
              (Printexc.to_string e) mutated);
  ]

(* ---- protocol semantics through the core ---- *)

let semantics_tests =
  [
    case "every op answers, errors are typed" (fun () ->
        let t = Server.create Server.default_config in
        ignore (expect_ok "ping" (req t {|{"op":"ping"}|}));
        let kind line = Protocol.kind_name (expect_error "err" (req t line)) in
        Alcotest.(check string) "parse" "parse" (kind "nope");
        Alcotest.(check string) "unknown op" "unknown_op" (kind {|{"op":"x"}|});
        Alcotest.(check string)
          "unknown session" "unknown_session"
          (kind {|{"op":"peak","session":"ghost"}|});
        Alcotest.(check string)
          "bad width" "bad_instance"
          (kind {|{"op":"open","session":"a","width":0}|});
        ignore
          (expect_ok "open" (req t {|{"op":"open","session":"a","width":8}|}));
        Alcotest.(check string)
          "session exists" "session_exists"
          (kind {|{"op":"open","session":"a","width":8}|});
        Alcotest.(check string)
          "too wide" "bad_instance"
          (kind {|{"op":"arrive","session":"a","w":9,"h":1}|});
        ignore
          (expect_ok "arrive" (req t {|{"op":"arrive","session":"a","w":3,"h":2}|}));
        Alcotest.(check string)
          "stale departure" "stale_departure"
          (kind {|{"op":"depart","session":"a","arrival":7}|});
        ignore
          (expect_ok "depart" (req t {|{"op":"depart","session":"a","arrival":0}|}));
        Alcotest.(check string)
          "departed twice" "stale_departure"
          (kind {|{"op":"depart","session":"a","arrival":0}|});
        ignore (expect_ok "close" (req t {|{"op":"close","session":"a"}|}));
        Alcotest.(check string)
          "closed session gone" "unknown_session"
          (kind {|{"op":"peak","session":"a"}|}));
    case "solve lowers timeout and fallback chain onto the runner" (fun () ->
        let t = Server.create Server.default_config in
        let r =
          expect_ok "solve"
            (req t
               {|{"op":"solve","width":9,"items":[[3,2],[4,1],[2,5]],"timeout_ms":2000,"fallback":"bfd-height"}|})
        in
        Alcotest.(check (option string))
          "winner" (Some "bfd-height")
          (Option.bind (Json.member "solver" r) Json.to_str);
        let bad =
          expect_error "bad chain"
            (req t {|{"op":"solve","width":9,"items":[[3,2]],"fallback":"no-such"}|})
        in
        Alcotest.(check string) "bad chain kind" "bad_request"
          (Protocol.kind_name bad);
        let negative =
          expect_error "negative timeout"
            (req t {|{"op":"solve","width":4,"items":[[1,1],[2,2]],"timeout_ms":-5}|})
        in
        Alcotest.(check string) "negative timeout kind" "bad_request"
          (Protocol.kind_name negative);
        Alcotest.(check string) "negative timeout message"
          {|field "timeout_ms" must be >= 0|}
          (Protocol.error_message negative));
    case "compare answers per solver" (fun () ->
        let t = Server.create Server.default_config in
        let r =
          expect_ok "compare"
            (req t
               {|{"op":"compare","width":9,"items":[[3,2],[4,1]],"solvers":["bfd-height","lpt-width"]}|})
        in
        (match Option.bind (Json.member "results" r) Json.to_list with
        | Some [ _; _ ] -> ()
        | _ -> Alcotest.fail "expected two per-solver entries");
        Alcotest.(check string) "negative timeout kind" "bad_request"
          (Protocol.kind_name
             (expect_error "negative timeout"
                (req t {|{"op":"compare","width":4,"items":[[1,1]],"timeout_ms":-1}|}))));
    case "request ids are echoed verbatim" (fun () ->
        let t = Server.create Server.default_config in
        let resp = decode (req t {|{"id":{"n":7},"op":"ping"}|}) in
        Alcotest.(check (option string))
          "id" (Some {|{"n":7}|})
          (Option.map Json.to_string resp.Protocol.rid));
  ]

(* ---- WAL ---- *)

let sample_records =
  [
    Wal.Header { width = 12; policy = "migrate"; k = 2 };
    Wal.Event (Trace.Arrive { w = 3; h = 4 });
    Wal.Event (Trace.Arrive { w = 5; h = 1 });
    Wal.Event (Trace.Depart { arrival = 0 });
    Wal.Snapshot
      {
        width = 12;
        policy = "migrate";
        k = 2;
        n_arrived = 2;
        n_migrations = 1;
        live = [ (1, 5, 1, 0); (3, 2, 2, 7) ];
      };
  ]

let record_eq (a : Wal.record) (b : Wal.record) = a = b

let check_records name expected actual =
  Alcotest.(check int)
    (name ^ ": record count") (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: records equal (%s / %s)" name
           (Wal.encode_record e) (Wal.encode_record a))
        true (record_eq e a))
    expected actual

let wal_tests =
  [
    case "wal: record codec round-trips" (fun () ->
        List.iter
          (fun r ->
            match Wal.decode_record (Wal.encode_record r) with
            | Ok r' ->
                Alcotest.(check bool)
                  (Wal.encode_record r) true (record_eq r r')
            | Error m -> Alcotest.fail m)
          sample_records);
    case "wal: append then recover returns every record" (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir "a.wal" in
        let wal = Wal.create ~fsync:Wal.Always path in
        List.iter (Wal.append wal) sample_records;
        Wal.close wal;
        (match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; truncated_bytes }) ->
            Alcotest.(check int) "nothing truncated" 0 truncated_bytes;
            check_records "round-trip" sample_records records;
            (* the recovered log accepts further appends *)
            Wal.append wal (Wal.Event (Trace.Arrive { w = 1; h = 1 }));
            Wal.close wal);
        match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; _ }) ->
            Alcotest.(check int)
              "append after recovery persisted"
              (List.length sample_records + 1)
              (List.length records);
            Wal.close wal);
    case "wal: torn tail is detected and truncated" (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir "torn.wal" in
        let wal = Wal.create path in
        List.iter (Wal.append wal) sample_records;
        Wal.close wal;
        let intact = (Unix.stat path).Unix.st_size in
        (* simulate a crash mid-append: half a frame of a real record *)
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 path
        in
        output_string oc "\x40\x00\x00\x00\xde\xad\xbe\xefpartial";
        close_out oc;
        (match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; truncated_bytes }) ->
            Alcotest.(check bool) "tail cut" true (truncated_bytes > 0);
            check_records "torn" sample_records records;
            Wal.close wal);
        Alcotest.(check int)
          "file truncated back to the last good boundary" intact
          (Unix.stat path).Unix.st_size;
        (* second recovery is clean: truncation converged *)
        match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.truncated_bytes; _ }) ->
            Alcotest.(check int) "clean" 0 truncated_bytes;
            Wal.close wal);
    case "wal: corrupt-on-write is rejected by checksum on recovery" (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir "corrupt.wal" in
        let wal = Wal.create path in
        Wal.append wal (List.hd sample_records);
        Fault.arm
          { Fault.site = Dsp_util.Instr.Sites.wal_appends;
            action = Fault.Corrupt;
            after = 1;
          };
        Fun.protect ~finally:Fault.disarm (fun () ->
            Wal.append wal (Wal.Event (Trace.Arrive { w = 2; h = 2 })));
        Wal.append wal (Wal.Event (Trace.Arrive { w = 3; h = 3 }));
        Wal.close wal;
        match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; truncated_bytes }) ->
            (* everything from the corrupt record on is gone — the log
               is a clean prefix, never a log with a hole *)
            Alcotest.(check bool) "tail cut" true (truncated_bytes > 0);
            check_records "corrupt" [ List.hd sample_records ] records;
            Wal.close wal);
    case "wal: injected short write leaves a recoverable torn tail" (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir "short.wal" in
        let wal = Wal.create path in
        Wal.append wal (List.hd sample_records);
        Fault.arm
          { Fault.site = Dsp_util.Instr.Sites.wal_appends;
            action = Fault.Short;
            after = 1;
          };
        (Fun.protect ~finally:Fault.disarm (fun () ->
             match Wal.append wal (Wal.Event (Trace.Arrive { w = 2; h = 2 })) with
             | () -> Alcotest.fail "short write should raise Injected"
             | exception Fault.Injected _ -> ()));
        Wal.close wal;
        match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; truncated_bytes }) ->
            Alcotest.(check bool) "tail cut" true (truncated_bytes > 0);
            check_records "short" [ List.hd sample_records ] records;
            Wal.close wal);
    case "wal: compaction replaces the log atomically" (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir "compact.wal" in
        let wal = Wal.create path in
        List.iter (Wal.append wal) sample_records;
        let snap =
          Wal.Snapshot
            {
              width = 12;
              policy = "best-fit";
              k = 1;
              n_arrived = 9;
              n_migrations = 0;
              live = [ (4, 2, 2, 0) ];
            }
        in
        Wal.compact wal snap;
        Alcotest.(check int) "append counter reset" 0 (Wal.appended wal);
        Wal.append wal (Wal.Event (Trace.Arrive { w = 1; h = 1 }));
        Wal.close wal;
        match Wal.recover path with
        | Error m -> Alcotest.fail m
        | Ok (wal, { Wal.records; _ }) ->
            check_records "compacted"
              [ snap; Wal.Event (Trace.Arrive { w = 1; h = 1 }) ]
              records;
            Wal.close wal);
    case "wal: fsync failure surfaces as a typed wal error" (fun () ->
        let dir = fresh_dir () in
        let t =
          Server.create
            { Server.default_config with Server.wal_dir = Some dir }
        in
        ignore (expect_ok "open" (req t {|{"op":"open","session":"f","width":8}|}));
        Fault.arm
          { Fault.site = Dsp_util.Instr.Sites.wal_fsyncs;
            action = Fault.Raise;
            after = 1;
          };
        let kind =
          Fun.protect ~finally:Fault.disarm (fun () ->
              expect_error "fsync fault"
                (req t {|{"op":"arrive","session":"f","w":2,"h":2}|}))
        in
        Alcotest.(check string) "typed" "wal" (Protocol.kind_name kind);
        (* the server survives and keeps answering *)
        ignore
          (expect_ok "next arrive"
             (req t {|{"op":"arrive","session":"f","w":2,"h":2}|}));
        Server.close t);
  ]

(* ---- crash-recovery differential ---- *)

(* Drive a durable server through a prefix of a random churn trace,
   abandon it un-closed (the in-process stand-in for kill -9: the WAL
   is whatever was appended, no shutdown path ran), recover into a
   fresh server, and demand state identical to an uninterrupted
   session over the same prefix. *)
let arrive_line ?(session = "c") w h =
  Printf.sprintf {|{"op":"arrive","session":%S,"w":%d,"h":%d}|} session w h

let depart_line ?(session = "c") arrival =
  Printf.sprintf {|{"op":"depart","session":%S,"arrival":%d}|} session arrival

let drive_prefix t (tr : Trace.t) n =
  List.iteri
    (fun i ev ->
      if i < n then
        ignore
          (expect_ok "drive"
             (req t
                (match ev with
                | Trace.Arrive { w; h } -> arrive_line w h
                | Trace.Depart { arrival } -> depart_line arrival))))
    tr.Trace.events

let session_fingerprint sess =
  let st = Session.stats sess in
  ( st.Session.arrivals,
    st.Session.departures,
    st.Session.peak_now,
    List.map
      (fun (id, (it : Dsp_core.Item.t), s) -> (id, it.w, it.h, s))
      (Session.live_items sess) )

let crash_differential ~seed ~compact_every () =
  let rng = Rng.create seed in
  let tr = Trace.churn rng ~width:(Rng.int_in rng 4 24) ~n:(Rng.int_in rng 4 40) in
  let n_events = List.length tr.Trace.events in
  let cut = Rng.int_in rng 1 (max 1 n_events) in
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      Server.wal_dir = Some dir;
      compact_every;
      fsync = Wal.Always;
    }
  in
  (* interrupted run: drive, then abandon without close *)
  let a = Server.create cfg in
  ignore
    (expect_ok "open"
       (req a
          (Printf.sprintf
             {|{"op":"open","session":"c","width":%d,"policy":"first-fit"}|}
             tr.Trace.width)));
  drive_prefix a tr cut;
  (* recover from the WAL alone *)
  let b = Server.create cfg in
  (match Server.recover_sessions b with
  | [ ("c", Ok _) ] -> ()
  | [ ("c", Error m) ] -> Alcotest.failf "recovery failed: %s" m
  | other -> Alcotest.failf "expected one recovered session, got %d" (List.length other));
  (* uninterrupted yardstick: the same prefix through a fresh session *)
  let yard = Session.create ~policy:Session.first_fit ~width:tr.Trace.width () in
  List.iteri
    (fun i ev -> if i < cut then Session.apply yard ev)
    tr.Trace.events;
  let recovered_peak = int_field "peak" (expect_ok "peak" (req b {|{"op":"peak","session":"c"}|})) in
  Alcotest.(check int)
    (Printf.sprintf "recovered peak (seed %d, cut %d/%d)" seed cut n_events)
    (Session.peak yard) recovered_peak;
  let snap = expect_ok "snapshot" (req b {|{"op":"snapshot","session":"c"}|}) in
  let live =
    match Option.bind (Json.member "live" snap) Json.to_list with
    | Some l ->
        List.map
          (fun e ->
            ( int_field "id" e,
              int_field "w" e,
              int_field "h" e,
              int_field "start" e ))
          l
    | None -> Alcotest.fail "snapshot without live list"
  in
  let _, _, _, yard_live = session_fingerprint yard in
  Alcotest.(check bool)
    "recovered live placements identical" true (live = yard_live);
  (* recovered sessions stay fully usable: keep replaying the tail on
     both sides and the states must stay in lockstep *)
  drive_prefix b { tr with Trace.events = List.filteri (fun i _ -> i >= cut) tr.Trace.events } n_events;
  List.iteri (fun i ev -> if i >= cut then Session.apply yard ev) tr.Trace.events;
  let final_peak = int_field "peak" (expect_ok "peak" (req b {|{"op":"peak","session":"c"}|})) in
  Alcotest.(check int) "post-recovery tail stays in lockstep" (Session.peak yard) final_peak;
  Server.close a;
  Server.close b

let recovery_tests =
  [
    case "crash differential: recovered state = uninterrupted run" (fun () ->
        for seed = 1 to 12 do
          crash_differential ~seed:(7000 + seed) ~compact_every:0 ()
        done);
    case "crash differential under aggressive compaction" (fun () ->
        for seed = 1 to 12 do
          crash_differential ~seed:(7100 + seed) ~compact_every:3 ()
        done);
    case "recovery after torn tail: acknowledged events survive" (fun () ->
        let dir = fresh_dir () in
        let cfg = { Server.default_config with Server.wal_dir = Some dir } in
        let a = Server.create cfg in
        ignore (expect_ok "open" (req a {|{"op":"open","session":"t","width":10}|}));
        ignore (expect_ok "arrive" (req a (arrive_line ~session:"t" 3 3)));
        ignore (expect_ok "arrive" (req a (arrive_line ~session:"t" 4 2)));
        (* crash mid-append of a third event *)
        Fault.arm
          { Fault.site = Dsp_util.Instr.Sites.wal_appends;
            action = Fault.Short;
            after = 1;
          };
        (Fun.protect ~finally:Fault.disarm (fun () ->
             let kind =
               expect_error "short write"
                 (req a {|{"op":"arrive","session":"t","w":5,"h":5}|})
             in
             Alcotest.(check string) "typed" "wal" (Protocol.kind_name kind)));
        let b = Server.create cfg in
        (match Server.recover_sessions b with
        | [ ("t", Ok _) ] -> ()
        | _ -> Alcotest.fail "expected session t to recover");
        let st = expect_ok "peak" (req b {|{"op":"peak","session":"t"}|}) in
        (* the two acknowledged arrivals are there; the torn third is
           not — exactly the at-most-acknowledged contract *)
        Alcotest.(check int) "arrivals" 2 (int_field "arrivals" st);
        Server.close a;
        Server.close b);
    case "multiple sessions recover independently" (fun () ->
        let dir = fresh_dir () in
        let cfg = { Server.default_config with Server.wal_dir = Some dir } in
        let a = Server.create cfg in
        ignore (expect_ok "open x" (req a {|{"op":"open","session":"x","width":6}|}));
        ignore (expect_ok "open y" (req a {|{"op":"open","session":"y","width":9}|}));
        ignore (expect_ok "ax" (req a {|{"op":"arrive","session":"x","w":2,"h":5}|}));
        ignore (expect_ok "ay" (req a {|{"op":"arrive","session":"y","w":9,"h":1}|}));
        let b = Server.create cfg in
        let recovered = Server.recover_sessions b in
        Alcotest.(check int) "two sessions" 2 (List.length recovered);
        List.iter
          (function
            | _, Ok _ -> ()
            | name, Error m -> Alcotest.failf "session %s: %s" name m)
          recovered;
        Alcotest.(check (list string))
          "names" [ "x"; "y" ]
          (List.sort compare (List.map fst recovered));
        Alcotest.(check int) "x peak" 5
          (int_field "peak" (expect_ok "px" (req b {|{"op":"peak","session":"x"}|})));
        Alcotest.(check int) "y peak" 1
          (int_field "peak" (expect_ok "py" (req b {|{"op":"peak","session":"y"}|})));
        (* close removes the durable state: a third server sees nothing *)
        ignore (expect_ok "close x" (req b {|{"op":"close","session":"x"}|}));
        ignore (expect_ok "close y" (req b {|{"op":"close","session":"y"}|}));
        let c = Server.create cfg in
        Alcotest.(check int) "nothing left" 0
          (List.length (Server.recover_sessions c));
        Server.close a;
        Server.close b;
        Server.close c);
  ]

(* ---- session restore ---- *)

let restore_tests =
  [
    case "session restore rebuilds the exact profile" (fun () ->
        for seed = 1 to 20 do
          let rng = Rng.create (9200 + seed) in
          let tr =
            Trace.churn rng ~width:(Rng.int_in rng 3 20) ~n:(Rng.int_in rng 1 30)
          in
          let sess = Session.replay ~policy:Session.best_fit tr in
          let st = Session.stats sess in
          let live =
            List.map
              (fun (id, (it : Dsp_core.Item.t), s) -> (id, it.w, it.h, s))
              (Session.live_items sess)
          in
          let restored =
            Session.restore ~policy:Session.best_fit ~width:(Session.width sess)
              ~n_arrived:st.Session.arrivals
              ~n_migrations:st.Session.migrations ~live ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "fingerprint (seed %d)" seed)
            true
            (session_fingerprint sess = session_fingerprint restored);
          (* both continue identically: restore is a true resume point *)
          let id_a = Session.arrive sess ~w:2 ~h:2 in
          let id_b = Session.arrive restored ~w:2 ~h:2 in
          Alcotest.(check int) "same id" id_a id_b;
          Alcotest.(check (option int))
            "same placement"
            (Session.start_of sess id_a)
            (Session.start_of restored id_b)
        done);
    case "restore rejects inconsistent snapshots" (fun () ->
        let expects_invalid f =
          match f () with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        expects_invalid (fun () ->
            Session.restore ~width:5 ~n_arrived:1 ~n_migrations:0
              ~live:[ (1, 2, 2, 0) ] ());
        expects_invalid (fun () ->
            Session.restore ~width:5 ~n_arrived:2 ~n_migrations:0
              ~live:[ (0, 2, 2, 0); (0, 1, 1, 3) ] ());
        expects_invalid (fun () ->
            Session.restore ~width:5 ~n_arrived:1 ~n_migrations:0
              ~live:[ (0, 4, 2, 3) ] ());
        (* [live] may list ids in any order, so a duplicate need not
           sit next to its twin *)
        let restore live =
          Session.restore ~width:5 ~n_arrived:4 ~n_migrations:0 ~live ()
        in
        let live = [ (0, 2, 1, 0); (2, 1, 3, 4); (3, 2, 2, 1) ] in
        Alcotest.(check bool)
          "out of id order: same session" true
          (session_fingerprint (restore live)
          = session_fingerprint (restore (List.rev live)));
        expects_invalid (fun () ->
            restore [ (0, 2, 2, 0); (1, 1, 1, 3); (0, 1, 1, 4) ]));
  ]

(* ---- overload shedding and SLAs ---- *)

let overload_tests =
  [
    case "admission queue sheds typed overload errors" (fun () ->
        Dsp_util.Pool.with_pool ~jobs:1 (fun pool ->
            let t =
              Server.create ~pool
                {
                  Server.default_config with
                  Server.queue_limit = 1;
                  retry_after_ms = 123;
                }
            in
            let solve_line =
              {|{"op":"solve","width":9,"items":[[3,2],[4,1],[2,5]],"fallback":"bfd-height"}|}
            in
            (* first solve occupies the one admission slot... *)
            let first = Server.handle t solve_line in
            (match first with
            | Server.Later _ -> ()
            | Server.Now l -> Alcotest.failf "expected deferral, got %s" l);
            Alcotest.(check int) "inflight" 1 (inflight t);
            (* ...so the next is shed with the configured hint, even
               though the pool may already be done: slots are released
               by the event loop's poll, deterministically *)
            (match (decode (req t solve_line)).Protocol.body with
            | Error (Protocol.Overloaded ms) ->
                Alcotest.(check int) "retry hint" 123 ms
            | Error k ->
                Alcotest.failf "expected overloaded, got %s" (Protocol.kind_name k)
            | Ok _ -> Alcotest.fail "expected overloaded, got ok");
            (* session ops are never shed: they don't hold pool slots *)
            ignore
              (expect_ok "open"
                 (req t {|{"op":"open","session":"s","width":5}|}));
            (* awaiting the deferral frees the slot and answers *)
            ignore (expect_ok "deferred solve" (Server.await first));
            Alcotest.(check int) "slot released" 0 (inflight t);
            ignore (expect_ok "after await" (req t solve_line));
            Server.close t));
    case "per-request deadline degrades to the safety net, not a hang"
      (fun () ->
        let t = Server.create Server.default_config in
        let rng = Rng.create 4242 in
        let items =
          List.init 16 (fun _ ->
              Printf.sprintf "[%d,%d]" (Rng.int_in rng 2 9) (Rng.int_in rng 1 9))
          |> String.concat ","
        in
        let r =
          expect_ok "solve under 1ms"
            (req t
               (Printf.sprintf
                  {|{"op":"solve","width":18,"items":[%s],"timeout_ms":1,"fallback":"exact-bb"}|}
                  items))
        in
        (* whatever happened — timeout into the safety net or a very
           fast exact solve — the answer is a validated report *)
        Alcotest.(check bool) "has peak" true
          (int_field "peak" r >= int_field "lower_bound" r));
  ]

(* ---- the socket loop's completion wake ---- *)

module Client = Dsp_serve.Client

let small_solve =
  {|{"op":"solve","width":9,"items":[[3,2],[4,1],[2,5]],"fallback":"bfd-height"}|}

let expect_ok_response name = function
  | Ok resp -> ok_body name resp
  | Error m -> Alcotest.failf "%s: %s" name m

type socket_server = {
  server : Server.t;
  path : string;
  stop : bool Atomic.t;
  loop : (unit, string) result Domain.t;
}

(* A pool-backed server with its [run_socket] loop on its own domain;
   returns once the loop answers a ping. *)
let start_socket_server pool =
  let path = Filename.concat (fresh_dir ()) "dsp.sock" in
  let server = Server.create ~pool Server.default_config in
  let stop = Atomic.make false in
  let loop = Domain.spawn (fun () -> Server.run_socket server ~path ~stop ()) in
  (* rpc retries the connect until the loop has bound the socket *)
  ignore (expect_ok_response "ping" (Client.rpc ~path {|{"op":"ping"}|}));
  { server; path; stop; loop }

(* Stop the loop and join it; the caller has already closed its
   connections, which wakes the loop's select at once. *)
let stop_socket_loop srv =
  Atomic.set srv.stop true;
  match Domain.join srv.loop with
  | Ok () -> ()
  | Error m -> Alcotest.failf "run_socket: %s" m

let wake_tests =
  [
    case "socket loop answers pool solves when they finish, not on a timer"
      (fun () ->
        Dsp_util.Pool.with_pool ~jobs:1 (fun pool ->
            let srv = start_socket_server pool in
            let elapsed =
              match Client.connect ~path:srv.path with
              | Error m -> Alcotest.failf "connect: %s" m
              | Ok client ->
                  Fun.protect
                    ~finally:(fun () -> Client.close client)
                    (fun () ->
                      let t0 = Unix.gettimeofday () in
                      for _ = 1 to 20 do
                        ignore
                          (expect_ok_response "solve"
                             (Client.request client small_solve))
                      done;
                      Unix.gettimeofday () -. t0)
            in
            stop_socket_loop srv;
            Server.close srv.server;
            (* each round trip takes a few ms; a loop that waited out
               its 0.2 s select timeout would need about 4 s *)
            Alcotest.(check bool)
              (Printf.sprintf "20 sequential solves took %.3f s (< 1 s)"
                 elapsed)
              true (elapsed < 1.0)));
    case "a solve finishing after close writes to no reused descriptor"
      (fun () ->
        let pool = Dsp_util.Pool.create ~jobs:1 in
        let srv = start_socket_server pool in
        (* hold the solve back on the worker until the loop has
           returned, the server is closed and its descriptor numbers
           are taken by other files *)
        Fault.arm
          {
            Fault.site = Dsp_util.Instr.Sites.segtree_best_start;
            action = Fault.Stall 0.5;
            after = 1;
          };
        Fun.protect ~finally:Fault.disarm (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX srv.path);
            let lines = small_solve ^ "\n" ^ {|{"op":"ping"}|} ^ "\n" in
            ignore (Unix.write_substring fd lines 0 (String.length lines));
            (* the loop handles lines in order, so the pong proves the
               solve is already on the pool *)
            let ic = Unix.in_channel_of_descr fd in
            ignore (expect_ok "ping after solve" (input_line ic));
            close_in ic;
            stop_socket_loop srv;
            Server.close srv.server;
            let files =
              List.init 8 (fun _ ->
                  let path = Filename.temp_file "dsp_wake" ".tmp" in
                  (path, Unix.openfile path [ Unix.O_RDWR ] 0o600))
            in
            let last = Dsp_util.Pool.submit pool (fun () -> 42) in
            (* joins the worker after the held-back solve and [last] *)
            Dsp_util.Pool.shutdown pool;
            Alcotest.(check bool) "the solve was held back" true (Fault.fired ());
            Alcotest.(check bool)
              "the worker survived and ran one more task" true
              (Dsp_util.Pool.poll last = Some (Ok 42));
            List.iter
              (fun (path, fd) ->
                Alcotest.(check int)
                  (path ^ " stays empty") 0 (Unix.fstat fd).Unix.st_size;
                Unix.close fd;
                Sys.remove path)
              files));
  ]

let suite =
  json_tests @ protocol_fuzz_tests @ semantics_tests @ wal_tests
  @ recovery_tests @ restore_tests @ overload_tests @ wake_tests
