(* Incremental sessions and traces: parsing round-trips with typed
   errors, and the replay differentials that pin the session to the
   batch pipeline — an arrivals-only replay must leave exactly the
   profile of the equivalent batch placement, and after any
   depart/arrive interleaving the live profile must equal a
   from-scratch rebuild of the surviving placements. *)

open Dsp_core
module Rng = Dsp_util.Rng
module Trace = Dsp_instance.Trace
module Session = Dsp_engine.Session
module Naive = Dsp_bench.Naive

let policies =
  Session.
    [ first_fit; best_fit; bounded_migration ~k:2; bounded_migration ~k:0 ]

(* A departure as trace replay makes it: a stale id raises. *)
let depart s arrival = Session.apply s (Trace.Depart { arrival })

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let random_trace rng =
  match Rng.int rng 3 with
  | 0 ->
      Trace.churn rng
        ~width:(Rng.int_in rng 2 60)
        ~n:(Rng.int_in rng 1 50)
  | 1 ->
      Trace.smartgrid rng
        ~households:(Rng.int_in rng 1 6)
        ~departures:(Rng.int rng 2 = 0)
  | _ -> Trace.gap_arrivals rng ~scale:(Rng.int_in rng 1 3)

(* ---- trace format ---- *)

let trace_round_trip () =
  for i = 1 to 30 do
    let rng = Rng.create (61_000 + i) in
    let tr = random_trace rng in
    (match Trace.validate tr with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "trace %d: generator emitted invalid trace: %s" i
          (Trace.error_to_string e));
    match Trace.of_string (Trace.to_string tr) with
    | Error e ->
        Alcotest.failf "trace %d: round-trip failed: %s" i
          (Trace.error_to_string e)
    | Ok tr' ->
        if tr' <> tr then Alcotest.failf "trace %d: round-trip changed it" i
  done

let parse_error input expect =
  match Trace.of_string input with
  | Ok _ -> Alcotest.failf "accepted malformed input %S" input
  | Error e ->
      let msg = Trace.error_to_string e in
      if not (contains msg expect) then
        Alcotest.failf "%S: error %S does not mention %S" input msg expect

let trace_errors () =
  parse_error "" "empty";
  parse_error "# only comments\n" "empty";
  parse_error "width 5\n+ 1 1\n" "bad header";
  parse_error "trace x\n" "not an integer";
  parse_error "trace 0\n" "width must be >= 1";
  parse_error "trace 5\n+ 1\n" "expected";
  parse_error "trace 5\n+ 1 z\n" "not an integer";
  parse_error "trace 5\n+ 0 3\n" "dimensions must be >= 1";
  parse_error "trace 5\n+ 6 3\n" "exceeds the capacity";
  parse_error "trace 5\n+ 1 1\n- 1\n" "has not arrived";
  parse_error "trace 5\n+ 1 1\n- 0\n- 0\n" "already departed";
  (* Errors carry the 1-based source line, counted over the raw
     input including comments and blanks. *)
  match Trace.of_string "trace 4\n# fine so far\n+ 2 2\n\n- 3\n" with
  | Error { line = 5; kind = Trace.Unknown_arrival 3 } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Trace.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted dangling departure"

(* ---- replay differentials ---- *)

(* The live profile of a session, rebuilt from scratch: place every
   surviving item at its recorded start on a fresh profile. *)
let rebuilt_profile s =
  let p = Profile.create (Session.width s) in
  List.iter
    (fun (_, it, start) -> Profile.add_item p it ~start)
    (Session.live_items s);
  p

let check_session_consistent ~ctx s =
  let live = Session.live_items s in
  let q = rebuilt_profile s in
  if Profile.to_array (Session.profile s) <> Profile.to_array q then
    Alcotest.failf "%s: live profile differs from from-scratch rebuild" ctx;
  if Session.peak s <> Profile.peak q then
    Alcotest.failf "%s: peak %d <> rebuilt %d" ctx (Session.peak s)
      (Profile.peak q);
  let st = Session.stats s in
  if st.Session.live <> List.length live then
    Alcotest.failf "%s: stats.live %d <> %d" ctx st.Session.live
      (List.length live);
  match Packing.validate (Session.snapshot s) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: snapshot invalid: %s" ctx msg

let arrivals_only_matches_batch () =
  List.iter
    (fun policy ->
      for i = 1 to 15 do
        let rng = Rng.create (62_000 + i) in
        let inst =
          Dsp_instance.Generators.uniform rng
            ~n:(1 + Rng.int rng 30)
            ~width:(Rng.int_in rng 3 50)
            ~max_w:3 ~max_h:9
        in
        let tr = Trace.of_instance inst in
        let s = Session.replay ~policy tr in
        let ctx =
          Printf.sprintf "policy %s instance %d" policy.Session.pname i
        in
        check_session_consistent ~ctx s;
        (* Arrivals only: the session profile must be exactly
           [Profile.of_starts] of the batch placement it implies. *)
        let pk = Session.snapshot s in
        let batch = Profile.of_starts (Packing.instance pk) (Packing.starts pk) in
        if Profile.to_array (Session.profile s) <> Profile.to_array batch then
          Alcotest.failf "%s: profile differs from batch of_starts" ctx;
        if Session.peak s <> Packing.height pk then
          Alcotest.failf "%s: peak differs from packing height" ctx
      done)
    policies

let churn_matches_rebuild () =
  List.iter
    (fun policy ->
      for i = 1 to 15 do
        let rng = Rng.create (63_000 + i) in
        let tr = random_trace rng in
        let s = Session.replay ~policy tr in
        check_session_consistent
          ~ctx:(Printf.sprintf "policy %s trace %d" policy.Session.pname i)
          s;
        let st = Session.stats s in
        Alcotest.(check int)
          "arrivals counted" (Trace.n_arrivals tr)
          st.Session.arrivals;
        Alcotest.(check int)
          "departures counted" (Trace.n_departures tr)
          st.Session.departures
      done)
    policies

(* Per-event consistency on one interleaved stream, including manual
   arrive/depart calls outside [replay]. *)
let stepwise_consistency () =
  let rng = Rng.create 64_001 in
  let s = Session.create ~policy:(Session.bounded_migration ~k:2) ~width:30 () in
  for step = 1 to 120 do
    let live = Session.live_items s in
    if live <> [] && Rng.int rng 3 = 0 then begin
      let id, _, _ = List.nth live (Rng.int rng (List.length live)) in
      depart s id
    end
    else
      ignore
        (Session.arrive s ~w:(Rng.int_in rng 1 10) ~h:(Rng.int_in rng 1 8));
    if step mod 10 = 0 then
      check_session_consistent ~ctx:(Printf.sprintf "step %d" step) s
  done

(* ---- policy contracts ---- *)

(* k = 0 disables repair entirely, so migrate-0 must be placement-
   for-placement identical to best-fit. *)
let migrate0_equals_best_fit () =
  for i = 1 to 15 do
    let rng = Rng.create (65_000 + i) in
    let tr = random_trace rng in
    let a = Session.replay ~policy:Session.best_fit tr in
    let b = Session.replay ~policy:(Session.bounded_migration ~k:0) tr in
    if
      List.map (fun (id, _, s) -> (id, s)) (Session.live_items a)
      <> List.map (fun (id, _, s) -> (id, s)) (Session.live_items b)
    then Alcotest.failf "trace %d: migrate-0 diverged from best-fit" i;
    Alcotest.(check int) "same migration count" 0
      (Session.stats b).Session.migrations
  done

(* A replay's placements as an event log, recorded from outside the
   session: each arrival's placement through a policy that wraps
   [place], each departure's start from [depart_result]. *)
type event =
  | Arrived of { id : int; start : int; migrations : (int * int) list }
  | Departed of { id : int; start : int }

let replay_logged ~policy (tr : Trace.t) =
  let log = ref [] in
  let recording =
    {
      policy with
      Session.place =
        (fun ~budget s (it : Item.t) ->
          let pl = policy.Session.place ~budget s it in
          log :=
            Arrived
              { id = it.id; start = pl.Session.start; migrations = pl.Session.migrations }
            :: !log;
          pl);
    }
  in
  let s = Session.create ~policy:recording ~width:tr.Trace.width () in
  List.iter
    (function
      | Trace.Arrive { w; h } -> ignore (Session.arrive s ~w ~h)
      | Trace.Depart { arrival } -> (
          match Session.depart_result s arrival with
          | Ok start -> log := Departed { id = arrival; start } :: !log
          | Error e -> Alcotest.fail (Session.depart_error_to_string e)))
    tr.Trace.events;
  (s, List.rev !log)

let migration_budget_respected () =
  List.iter
    (fun k ->
      let policy = Session.bounded_migration ~k in
      for i = 1 to 10 do
        let rng = Rng.create (66_000 + i) in
        let tr = random_trace rng in
        let s, log = replay_logged ~policy tr in
        List.iter
          (function
            | Arrived { migrations; _ } ->
                if List.length migrations > k then
                  Alcotest.failf "k=%d trace %d: arrival moved %d items" k i
                    (List.length migrations)
            | Departed _ -> ())
          log;
        (* The log replays to the session's final placements. *)
        let starts = Hashtbl.create 16 in
        List.iter
          (function
            | Arrived { id; start; migrations } ->
                Hashtbl.replace starts id start;
                List.iter
                  (fun (mid, ms) -> Hashtbl.replace starts mid ms)
                  migrations
            | Departed { id; _ } -> Hashtbl.remove starts id)
          log;
        List.iter
          (fun (id, _, start) ->
            if Hashtbl.find_opt starts id <> Some start then
              Alcotest.failf "k=%d trace %d: log start of %d disagrees" k i id)
          (Session.live_items s)
      done)
    [ 0; 1; 3 ]

(* ---- migrate-k against a reference repair loop ---- *)

(* The migrate-k policy written out on a plain load array with the
   linear scans of [Naive]: best-fit, then up to k repairs, each trying
   every earlier live item over the rightmost peak column, tallest
   first (ties by id); the arriving item itself stays put.  A try
   removes the item, re-places it at the leftmost start whose window
   stays under pk - 1, and is kept iff the peak drops.  Returns the
   event log and the final peak. *)
let reference_migrate ~k (tr : Trace.t) =
  let width = tr.Trace.width and q = Array.make tr.Trace.width 0 in
  let live = ref [] (* (id, w, h, start) in id order *) and log = ref [] and next = ref 0 in
  let add (_, w, h, s) sign = Naive.add q ~lo:s ~hi:(s + w) (sign * h) in
  let rec repair ~h n migs =
    let pk = Naive.max_all q in
    if n = k || pk <= h then List.rev migs
    else begin
      let col = Naive.last_above q ~lo:0 ~hi:width (pk - 1) in
      let over = List.filter (fun (_, w, _, s) -> s <= col && col < s + w) !live in
      let rec attempt = function
        | [] -> List.rev migs
        | ((id, w, h', _) as it) :: rest -> (
            add it (-1);
            let dest = Naive.first_fit q ~from:0 ~len:w ~height:h' ~limit:(pk - 1) in
            Option.iter (fun d -> add (id, w, h', d) 1) dest;
            match dest with
            | Some d when Naive.max_all q < pk ->
                live :=
                  List.map (fun ((j, _, _, _) as x) -> if j = id then (id, w, h', d) else x) !live;
                repair ~h (n + 1) ((id, d) :: migs)
            | _ ->
                Option.iter (fun d -> add (id, w, h', d) (-1)) dest;
                add it 1;
                attempt rest)
      in
      attempt (List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) over)
    end
  in
  List.iter
    (function
      | Trace.Arrive { w; h } ->
          let id = !next in
          incr next;
          let best, _ = Option.get (Naive.best_start q ~len:w) in
          add (id, w, h, best) 1;
          let migrations = repair ~h 0 [] in
          live := !live @ [ (id, w, h, best) ];
          log := Arrived { id; start = best; migrations } :: !log
      | Trace.Depart { arrival } ->
          let ((_, _, _, s) as it) = List.find (fun (j, _, _, _) -> j = arrival) !live in
          add it (-1);
          live := List.filter (fun (j, _, _, _) -> j <> arrival) !live;
          log := Departed { id = arrival; start = s } :: !log)
    tr.Trace.events;
  (List.rev !log, Naive.max_all q)

(* Two item heights and many narrow items on a wide strip: the peak
   often sits in several disjoint places at once. *)
let tied_trace rng ~width ~n =
  let events = ref [] and live = ref [] in
  for a = 0 to n - 1 do
    let w = Rng.int_in rng 1 (max 1 (width / 4)) in
    events := Trace.Arrive { w; h = Rng.int_in rng 1 2 } :: !events;
    live := a :: !live;
    if Rng.int rng 4 = 0 then begin
      let victim = List.nth !live (Rng.int rng (List.length !live)) in
      live := List.filter (fun j -> j <> victim) !live;
      events := Trace.Depart { arrival = victim } :: !events
    end
  done;
  { Trace.width; events = List.rev !events }

let migrate_matches_reference () =
  let moves = ref 0 in
  for i = 1 to 90 do
    let rng = Rng.create (67_000 + i) in
    let width =
      match i mod 3 with
      | 0 -> Rng.int_in rng 1 12
      | 1 -> Rng.int_in rng 20 96
      | _ -> Rng.int_in rng 300 520
    in
    let n = Rng.int_in rng 5 40 in
    let tr = if i mod 2 = 0 then Trace.churn rng ~width ~n else tied_trace rng ~width ~n in
    let k = Rng.int_in rng 1 3 in
    let s, got = replay_logged ~policy:(Session.bounded_migration ~k) tr in
    let log, pk = reference_migrate ~k tr in
    if got <> log then
      Alcotest.failf "trace %d (width %d, k %d): log differs from the reference" i width k;
    if Session.peak s <> pk then
      Alcotest.failf "trace %d: peak %d <> reference %d" i (Session.peak s) pk;
    moves := !moves + (Session.stats s).Session.migrations
  done;
  (* The comparison has power only if repairs actually happen. *)
  Alcotest.(check bool) "the traces migrate items" true (!moves > 100)

let arrive_rejects_bad_dims () =
  let s = Session.create ~width:10 () in
  let rejects f =
    match f () with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "w = 0" true
    (rejects (fun () -> Session.arrive s ~w:0 ~h:3));
  Alcotest.(check bool) "h = 0" true
    (rejects (fun () -> Session.arrive s ~w:3 ~h:0));
  Alcotest.(check bool) "too wide" true
    (rejects (fun () -> Session.arrive s ~w:11 ~h:3));
  Alcotest.(check int) "session unharmed" 0 (Session.peak s)

(* The Trace parser under the same byte-mutation fuzz as Io: the serve
   daemon replays WAL event payloads through it, so totality here is a
   durability property, not just an input-hygiene one. *)
let trace_fuzz =
  Helpers.qtest ~count:200 "fuzz: mutated traces never crash the parser"
    QCheck.(triple (int_range 1 10_000) small_nat (int_range 0 255))
    (fun (seed, pos, byte) ->
      let rng = Rng.create (90_000 + seed) in
      let text = Trace.to_string (random_trace rng) in
      let mutated =
        if String.length text = 0 then text
        else
          String.mapi
            (fun i c ->
              if i = pos mod String.length text then Char.chr byte else c)
            text
      in
      match Trace.of_string mutated with
      | Ok tr -> (
          (* whatever the mutation still spells must satisfy the full
             stream invariants of_string promises *)
          match Trace.validate tr with
          | Ok () -> true
          | Error e ->
              QCheck.Test.fail_reportf "accepted invalid trace: %s"
                (Trace.error_to_string e))
      | Error e -> String.length (Trace.error_to_string e) > 0
      | exception e ->
          QCheck.Test.fail_reportf "parser raised %s on %S"
            (Printexc.to_string e) mutated)

let depart_typed_errors () =
  let s = Session.create ~width:10 () in
  let check_err name expected got =
    Alcotest.(check string)
      name expected
      (match got with
      | Ok _ -> "ok"
      | Error e -> Session.depart_error_to_string e)
  in
  check_err "never arrived"
    (Session.depart_error_to_string (Session.Never_arrived 0))
    (Session.depart_result s 0);
  check_err "negative id"
    (Session.depart_error_to_string (Session.Never_arrived (-3)))
    (Session.depart_result s (-3));
  let id = Session.arrive s ~w:4 ~h:2 in
  (match Session.depart_result s id with
  | Ok start ->
      Alcotest.(check (option int)) "freed start reported" (Some start) (Some 0)
  | Error e -> Alcotest.failf "live depart refused: %s" (Session.depart_error_to_string e));
  check_err "already departed"
    (Session.depart_error_to_string (Session.Already_departed id))
    (Session.depart_result s id);
  (* a refused departure mutates nothing *)
  let st = Session.stats s in
  Alcotest.(check int) "arrivals" 1 st.Session.arrivals;
  Alcotest.(check int) "departures" 1 st.Session.departures;
  (* trace replay's raising departure carries the same message *)
  (match depart s id with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      Alcotest.(check string)
        "wrapper message"
        (Session.depart_error_to_string (Session.Already_departed id))
        m);
  Alcotest.(check bool)
    "messages distinguish the two causes" false
    (Session.depart_error_to_string (Session.Never_arrived 5)
    = Session.depart_error_to_string (Session.Already_departed 5));
  (* Past a compaction: of 8 arrivals the even ids depart, and the
     departed entries are squeezed out once they outnumber a quarter of
     the live ones (after ids 2 and 6), so only [n_arrived] is left to
     tell a departed id from one never handed out.  A restored session
     never had entries for its departed ids. *)
  let s = Session.create ~width:10 () in
  let ids = List.init 8 (fun _ -> Session.arrive s ~w:1 ~h:1) in
  let stale name s =
    List.iter
      (fun id ->
        if id mod 2 = 0 then begin
          check_err
            (Printf.sprintf "%s: departed %d" name id)
            (Session.depart_error_to_string (Session.Already_departed id))
            (Session.depart_result s id);
          Alcotest.(check (option int))
            (Printf.sprintf "%s: start_of departed %d" name id)
            None (Session.start_of s id)
        end
        else
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d still live" name id)
            true
            (Session.start_of s id <> None))
      ids;
    List.iter
      (fun id ->
        check_err
          (Printf.sprintf "%s: id %d never arrived" name id)
          (Session.depart_error_to_string (Session.Never_arrived id))
          (Session.depart_result s id);
        Alcotest.(check (option int))
          (Printf.sprintf "%s: start_of unissued %d" name id)
          None (Session.start_of s id))
      [ 8; 9; max_int ]
  in
  List.iter (fun id -> if id mod 2 = 0 then depart s id) ids;
  stale "session" s;
  let restored =
    Session.restore ~width:10 ~n_arrived:8 ~n_migrations:0
      ~live:
        (List.map
           (fun (id, (it : Item.t), start) -> (id, it.w, it.h, start))
           (Session.live_items s))
      ()
  in
  stale "restored" restored;
  Alcotest.(check int) "ids continue after compaction" 8
    (Session.arrive s ~w:1 ~h:1)

(* ---- a long-lived session at a fixed live set ---- *)

(* Steady churn at L = 100 live items on W = 96 (widths 1-32, heights
   1-50): each step arrives one item and, once L are live, departs a
   random one.  A session that keeps only its live set retains as many
   words at 65,536 arrivals as at 4,096, and its repair scan walks as
   many entries per scan over the 4,096 arrivals before each point.
   Scans are counted by the instrumentation hook: the scan makes one
   [Instr.add] per walk. *)
let fixed_live_set () =
  let module Instr = Dsp_util.Instr in
  let site = Instr.Sites.session_scan_entries in
  let scans = ref 0 in
  Instr.set_on_hit (Some (fun name -> if name = site then incr scans));
  Fun.protect
    ~finally:(fun () -> Instr.set_on_hit None)
    (fun () ->
      List.iter
        (fun policy ->
          let name = policy.Session.pname in
          let rng = Rng.create 4242 and l = 100 in
          let s = Session.create ~policy ~width:96 () in
          let live = Array.make l 0 and n = ref 0 in
          let step () =
            let id =
              Session.arrive s ~w:(Rng.int_in rng 1 32) ~h:(Rng.int_in rng 1 50)
            in
            if !n < l then begin
              live.(!n) <- id;
              incr n
            end
            else begin
              let j = Rng.int rng l in
              depart s live.(j);
              live.(j) <- id
            end
          in
          (* retained words at [upto] arrivals, and the scans and
             entries walked over the 4,096 arrivals before it *)
          let window upto =
            while (Session.stats s).Session.arrivals < upto - 4096 do
              step ()
            done;
            let e0 = Helpers.counter_value site and c0 = !scans in
            for _ = 1 to 4096 do
              step ()
            done;
            ( Obj.reachable_words (Obj.repr s),
              !scans - c0,
              Helpers.counter_value site - e0 )
          in
          let words_a, scans_a, entries_a = window 4096 in
          let words_b, scans_b, entries_b = window 65536 in
          if words_b > words_a then
            Alcotest.failf "%s: retained words grew from %d to %d" name words_a
              words_b;
          if policy == Session.best_fit then
            Alcotest.(check int)
              (name ^ ": no repair scans") 0 (scans_a + scans_b)
          else begin
            if scans_a < 100 || scans_b < 100 then
              Alcotest.failf "%s: too few repairs to compare (%d, %d)" name
                scans_a scans_b;
            let mean e c = float_of_int e /. float_of_int c in
            let a = mean entries_a scans_a and b = mean entries_b scans_b in
            if Float.abs (b -. a) >= 0.1 *. a then
              Alcotest.failf "%s: entries per scan moved from %.1f to %.1f" name
                a b
          end)
        [ Session.best_fit; Session.bounded_migration ~k:2 ])

let suite =
  [
    Alcotest.test_case "trace to_string/of_string round-trips" `Quick
      trace_round_trip;
    trace_fuzz;
    Alcotest.test_case "trace parse errors are typed and line-numbered" `Quick
      trace_errors;
    Alcotest.test_case "arrivals-only replay equals batch of_starts" `Quick
      arrivals_only_matches_batch;
    Alcotest.test_case "churn replay equals from-scratch rebuild" `Quick
      churn_matches_rebuild;
    Alcotest.test_case "stepwise arrive/depart consistency and reset" `Quick
      stepwise_consistency;
    Alcotest.test_case "migrate-0 is exactly best-fit" `Quick
      migrate0_equals_best_fit;
    Alcotest.test_case "migration budget and log replay" `Quick
      migration_budget_respected;
    Alcotest.test_case "migrate-k matches a reference repair loop" `Quick
      migrate_matches_reference;
    Alcotest.test_case "arrive mirrors Io's dimension checks" `Quick
      arrive_rejects_bad_dims;
    Alcotest.test_case "depart_result types stale departures" `Quick
      depart_typed_errors;
    Alcotest.test_case "a fixed live set holds memory and scan cost flat" `Slow
      fixed_live_set;
  ]
