(* Multicore layer: the domain pool, per-domain Instr aggregation,
   one-shot faults under contention, the parallel branch-and-bound
   (differential against the serial solver), and the racing runner. *)

module Pool = Dsp_util.Pool
module Budget = Dsp_util.Budget
module Instr = Dsp_util.Instr
module Fault = Dsp_util.Fault
module Runner = Dsp_engine.Runner
module Registry = Dsp_engine.Registry
module Report = Dsp_engine.Report
module Rng = Dsp_util.Rng
module Gen = Dsp_instance.Generators
module Bb = Dsp_exact.Dsp_bb
module Wsdeque = Dsp_util.Wsdeque

let find = Registry.find_exn

let with_fault plan f =
  Fault.arm plan;
  Fun.protect ~finally:Fault.disarm f

(* Small seeded corpus the exact solver cracks quickly. *)
let corpus () =
  List.concat_map
    (fun seed ->
      let rng () = Rng.create seed in
      [
        Gen.uniform (rng ()) ~n:(5 + (seed mod 4)) ~width:(8 + (seed mod 5))
          ~max_w:6 ~max_h:8;
        Gen.tall_and_flat (rng ()) ~n:(4 + (seed mod 3)) ~width:10 ~max_h:7;
        Gen.correlated (rng ()) ~n:(4 + (seed mod 4)) ~width:9 ~max_w:5 ~max_h:6;
      ])
    [ 0; 1; 2; 3; 4; 5 ]

(* Seed picked so the exact branch-and-bound needs tens of seconds:
   a reliable victim for deadlines and cancellation. *)
let hard_instance () =
  let rng = Rng.create 2 in
  Gen.uniform rng ~n:28 ~width:24 ~max_w:12 ~max_h:10

let pool_tests =
  [
    Alcotest.test_case "map preserves order and values" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let xs = List.init 100 Fun.id in
            Alcotest.(check (list int))
              "squares" (List.map (fun x -> x * x) xs)
              (Pool.map pool (fun x -> x * x) xs)));
    Alcotest.test_case "await re-raises the task's exception" `Quick (fun () ->
        Pool.with_pool ~jobs:2 (fun pool ->
            let fut = Pool.submit pool (fun () -> failwith "boom") in
            Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
                Pool.await fut)));
    Alcotest.test_case "run_all isolates failures per task" `Quick (fun () ->
        Pool.with_pool ~jobs:3 (fun pool ->
            let outcomes =
              Pool.run_all pool
                [
                  (fun () -> 1);
                  (fun () -> failwith "poisoned");
                  (fun () -> 3);
                ]
            in
            (match outcomes with
            | [ Ok 1; Error (Failure _); Ok 3 ] -> ()
            | _ -> Alcotest.fail "wrong outcome shape");
            (* The pool survived the poisoned task. *)
            Alcotest.(check (list int)) "still alive" [ 10; 20 ]
              (Pool.map pool (fun x -> 10 * x) [ 1; 2 ])));
    Alcotest.test_case "submit after shutdown is refused" `Quick (fun () ->
        let pool = Pool.create ~jobs:2 in
        Pool.shutdown pool;
        Pool.shutdown pool (* idempotent *);
        Alcotest.(check bool) "refused" true
          (try
             ignore (Pool.submit pool (fun () -> ()));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "default_jobs override wins" `Quick (fun () ->
        let before = Pool.default_jobs () in
        Pool.set_default_jobs 3;
        Alcotest.(check int) "override" 3 (Pool.default_jobs ());
        Pool.set_default_jobs before;
        Alcotest.(check int) "restored" before (Pool.default_jobs ()));
  ]

let instr_tests =
  [
    Alcotest.test_case "aggregation is exact after join: 4 domains x 5000"
      `Quick (fun () ->
        let c = Instr.counter "test.par.bumps" in
        let before = Instr.value c in
        Pool.with_pool ~jobs:4 (fun pool ->
            ignore
              (Pool.run_all pool
                 (List.init 4 (fun _ () ->
                      for _ = 1 to 5000 do
                        Instr.bump c
                      done))));
        (* Workers are joined: the per-domain deltas must sum exactly. *)
        Alcotest.(check int) "sum of per-domain deltas" 20_000
          (Instr.value c - before));
    Alcotest.test_case "snapshot delta sees cross-domain work" `Quick
      (fun () ->
        let c = Instr.counter "test.par.delta" in
        let before = Instr.snapshot () in
        Pool.with_pool ~jobs:3 (fun pool ->
            ignore
              (Pool.run_all pool
                 (List.init 3 (fun _ () ->
                      for _ = 1 to 111 do
                        Instr.bump c
                      done))));
        let delta = Instr.delta ~before ~after:(Instr.snapshot ()) in
        Alcotest.(check (option int))
          "delta" (Some 333)
          (List.assoc_opt "test.par.delta" delta));
    Alcotest.test_case "one-shot fault fires exactly once under contention"
      `Quick (fun () ->
        let c = Instr.counter "test.par.fault" in
        let outcomes =
          with_fault
            { Fault.site = "test.par.fault"; action = Fault.Raise; after = 1 }
            (fun () ->
              Pool.with_pool ~jobs:4 (fun pool ->
                  Pool.run_all pool
                    (List.init 4 (fun _ () ->
                         for _ = 1 to 1000 do
                           Instr.bump c
                         done))))
        in
        let raised =
          List.length (List.filter Result.is_error outcomes)
        in
        Alcotest.(check int) "exactly one worker hit the fault" 1 raised;
        List.iter
          (function
            | Error e ->
                Alcotest.(check bool) "typed Injected" true
                  (match e with Fault.Injected _ -> true | _ -> false)
            | Ok () -> ())
          outcomes);
  ]

(* Records are (id, id * 31 + 7): the payload column catches torn or
   misaligned copies, the id column feeds the exactly-once ledger. *)
let payload_of id = (id * 31) + 7

let deque_tests =
  [
    Alcotest.test_case "empty deque refuses pop and steal" `Quick (fun () ->
        let dq = Wsdeque.create ~slots:4 ~record_width:3 in
        let buf = Array.make 3 0 in
        Alcotest.(check bool) "pop" false (Wsdeque.pop dq buf);
        Alcotest.(check bool) "steal" false (Wsdeque.steal dq buf);
        Alcotest.(check int) "size" 0 (Wsdeque.size dq));
    Alcotest.test_case "capacity rounds up to a power of two" `Quick (fun () ->
        Alcotest.(check int) "5 -> 8" 8
          (Wsdeque.capacity (Wsdeque.create ~slots:5 ~record_width:1));
        Alcotest.(check int) "1 -> 2" 2
          (Wsdeque.capacity (Wsdeque.create ~slots:1 ~record_width:1));
        Alcotest.(check int) "8 stays 8" 8
          (Wsdeque.capacity (Wsdeque.create ~slots:8 ~record_width:1));
        Alcotest.(check int) "record width" 4
          (Wsdeque.record_width (Wsdeque.create ~slots:2 ~record_width:4));
        let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
        Alcotest.(check bool) "slots < 1 rejected" true
          (rejects (fun () -> Wsdeque.create ~slots:0 ~record_width:1));
        Alcotest.(check bool) "record_width < 1 rejected" true
          (rejects (fun () -> Wsdeque.create ~slots:4 ~record_width:0)));
    Alcotest.test_case "full deque refuses the push, drains, accepts again"
      `Quick (fun () ->
        let dq = Wsdeque.create ~slots:4 ~record_width:1 in
        for i = 0 to 3 do
          Alcotest.(check bool) (Printf.sprintf "push %d" i) true
            (Wsdeque.push dq [| i |])
        done;
        Alcotest.(check bool) "5th push refused" false (Wsdeque.push dq [| 4 |]);
        Alcotest.(check int) "still 4 records" 4 (Wsdeque.size dq);
        let buf = [| -1 |] in
        Alcotest.(check bool) "pop" true (Wsdeque.pop dq buf);
        Alcotest.(check int) "refused record was not written" 3 buf.(0);
        Alcotest.(check bool) "room again" true (Wsdeque.push dq [| 9 |]));
    Alcotest.test_case "owner pops LIFO, thieves steal FIFO" `Quick (fun () ->
        let dq = Wsdeque.create ~slots:8 ~record_width:2 in
        List.iter
          (fun id -> assert (Wsdeque.push dq [| id; payload_of id |]))
          [ 1; 2; 3; 4 ];
        let buf = [| 0; 0 |] in
        let take name f expected =
          Alcotest.(check bool) (name ^ " succeeds") true (f dq buf);
          Alcotest.(check int) name expected buf.(0);
          Alcotest.(check int) (name ^ " payload") (payload_of expected) buf.(1)
        in
        take "pop newest" Wsdeque.pop 4;
        take "steal oldest" Wsdeque.steal 1;
        take "steal next-oldest" Wsdeque.steal 2;
        take "pop the rest" Wsdeque.pop 3;
        Alcotest.(check bool) "empty" false (Wsdeque.pop dq buf));
    Alcotest.test_case "slot reuse far past the capacity (wraparound)" `Quick
      (fun () ->
        let dq = Wsdeque.create ~slots:2 ~record_width:2 in
        let buf = [| 0; 0 |] in
        (* Single-record cycles walk top/bottom 32x around the ring. *)
        for i = 0 to 63 do
          assert (Wsdeque.push dq [| i; payload_of i |]);
          Alcotest.(check bool) "steal" true (Wsdeque.steal dq buf);
          Alcotest.(check int) "id round-trips" i buf.(0);
          Alcotest.(check int) "payload round-trips" (payload_of i) buf.(1)
        done;
        (* Two-in, steal-one, pop-one: both ends move every cycle. *)
        for i = 0 to 49 do
          let a = 1000 + (2 * i) and b = 1001 + (2 * i) in
          assert (Wsdeque.push dq [| a; payload_of a |]);
          assert (Wsdeque.push dq [| b; payload_of b |]);
          Alcotest.(check bool) "steal" true (Wsdeque.steal dq buf);
          Alcotest.(check int) "oldest stolen" a buf.(0);
          Alcotest.(check bool) "pop" true (Wsdeque.pop dq buf);
          Alcotest.(check int) "newest popped" b buf.(0)
        done;
        Alcotest.(check int) "drained" 0 (Wsdeque.size dq));
    Alcotest.test_case
      "stress: 3 thieves vs pushing owner, exactly-once accounting" `Quick
      (fun () ->
        (* The owner pushes 20k unique records through a 64-slot deque,
           consuming inline on full-deque refusals and popping every
           7th round; three thief domains steal concurrently.  Every id
           must land in exactly one consumer's ledger: a sorted-list
           equality catches losses, duplicates and phantom records
           alike, and each consumer validates the payload column before
           accepting a record (a torn copy fails there first). *)
        let n = 20_000 in
        let dq = Wsdeque.create ~slots:64 ~record_width:2 in
        let finished = Atomic.make false in
        let consume ~who buf acc =
          if buf.(1) <> payload_of buf.(0) then
            Alcotest.failf "%s read a torn record: (%d, %d)" who buf.(0) buf.(1);
          buf.(0) :: acc
        in
        let thief who =
          Domain.spawn (fun () ->
              let buf = [| 0; 0 |] in
              let rec loop acc =
                if Wsdeque.steal dq buf then loop (consume ~who buf acc)
                else if Atomic.get finished then acc
                else begin
                  Domain.cpu_relax ();
                  loop acc
                end
              in
              loop [])
        in
        let thieves = List.map thief [ "t0"; "t1"; "t2" ] in
        let buf = [| 0; 0 |] and scratch = [| 0; 0 |] in
        let mine = ref [] in
        for id = 0 to n - 1 do
          buf.(0) <- id;
          buf.(1) <- payload_of id;
          if not (Wsdeque.push dq buf) then
            (* Full: the caller keeps the record — consume it inline,
               exactly as the B&B worker expands the subtree itself. *)
            mine := consume ~who:"owner" buf !mine;
          if id mod 7 = 0 && Wsdeque.pop dq scratch then
            mine := consume ~who:"owner" scratch !mine
        done;
        while Wsdeque.pop dq scratch do
          mine := consume ~who:"owner" scratch !mine
        done;
        Atomic.set finished true;
        let stolen = List.concat_map Domain.join thieves in
        Alcotest.(check int)
          "all three thieves and the owner joined cleanly" 0 (Wsdeque.size dq);
        let ledger = List.sort compare (!mine @ stolen) in
        Alcotest.(check (list int))
          "every record consumed exactly once" (List.init n Fun.id) ledger);
  ]

let check_height msg expected actual = Alcotest.(check int) msg expected actual

(* One full-width dominant item plus small filler (the bench
   experiment's skew shape): the dominant item sorts first and admits
   exactly one start column, so the search root has a single subtree
   and only stealing can hand work to domains other than 0. *)
let skewed_instance () =
  let rng = Rng.create 35 in
  let width = 24 in
  let dims =
    (width, 8)
    :: List.init 27 (fun _ -> (1 + Rng.int rng (width / 3), 1 + Rng.int rng 10))
  in
  Dsp_core.Instance.of_dims ~width dims

let par_height ?stats ~jobs inst =
  Dsp_core.Packing.height (Bb.solve_par ?stats ~jobs inst)

let skew_tests =
  [
    Alcotest.test_case
      "skew regression: stealing balances a single-subtree root" `Quick
      (fun () ->
        let inst = skewed_instance () in
        let stats = ref None in
        check_height "optimum matches serial" (Bb.optimal_height inst)
          (par_height ~stats ~jobs:4 inst);
        let st = Option.get !stats in
        Alcotest.(check int) "4 domains ran" 4 st.Bb.domains;
        Alcotest.(check bool)
          (Printf.sprintf "steals happened (%d)" st.Bb.steals)
          true (st.Bb.steals > 0);
        let nodes = Array.to_list st.Bb.nodes_per_domain in
        List.iteri
          (fun i k ->
            Alcotest.(check bool)
              (Printf.sprintf "domain %d expanded nodes (%d)" i k)
              true (k > 0))
          nodes;
        (* The root has one subtree, so without stealing the ratio is
           infinite (domains 1-3 idle).  With stealing the observed
           spread is ~1.3-3x; 8x leaves slack for scheduler noise
           while still failing on any rebalancing regression. *)
        let worst = List.fold_left max 0 nodes in
        let best = List.fold_left min max_int nodes in
        Alcotest.(check bool)
          (Printf.sprintf "bounded imbalance (worst/best = %d/%d)" worst best)
          true (worst <= 8 * best));
  ]

let solve_par_tests =
  [
    Alcotest.test_case "differential: solve_par(4) = serial optimum on corpus"
      `Slow (fun () ->
        List.iteri
          (fun i inst ->
            let serial = Bb.optimal_height inst in
            let par = Bb.optimal_height_par ~jobs:4 inst in
            check_height (Printf.sprintf "instance %d" i) serial par)
          (corpus ()));
    Alcotest.test_case "differential: shared pool, jobs=2" `Slow (fun () ->
        Pool.with_pool ~jobs:2 (fun pool ->
            List.iteri
              (fun i inst ->
                check_height
                  (Printf.sprintf "instance %d" i)
                  (Bb.optimal_height inst)
                  (Bb.optimal_height_par ~pool inst))
              (corpus ())));
    Alcotest.test_case "edge cases: empty, single item, greedy-tight" `Quick
      (fun () ->
        let empty = Dsp_core.Instance.of_dims ~width:5 [] in
        check_height "empty" 0 (Bb.optimal_height_par ~jobs:3 empty);
        let one = Dsp_core.Instance.of_dims ~width:5 [ (3, 4) ] in
        check_height "single" 4 (Bb.optimal_height_par ~jobs:3 one);
        (* Perfect fit: the greedy seed already meets the lower bound,
           no search happens. *)
        let tight = Dsp_core.Instance.of_dims ~width:4 [ (4, 2); (4, 3) ] in
        check_height "greedy-tight" 5 (Bb.optimal_height_par ~jobs:3 tight));
    Alcotest.test_case "differential: split-depth boundary, n 2-5, W 2-8"
      `Quick (fun () ->
        (* With n <= 5 the deepest units sit at depth n-1 (the
           [k + 1 < n] push guard), and narrow strips give roots with a
           single seed unit.  Heights up to 10 keep the greedy seed
           above the lower bound on about half the calls. *)
        let cases =
          List.init 200 (fun seed ->
              let width = 2 + (seed mod 7) in
              let inst =
                Gen.uniform (Rng.create (1000 + seed)) ~n:(2 + (seed mod 4))
                  ~width ~max_w:width ~max_h:10
              in
              (inst, Bb.optimal_height inst))
        in
        let calls = ref 0 and searched = ref 0 in
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                List.iteri
                  (fun i (inst, expected) ->
                    let stats = ref None in
                    let par =
                      Dsp_core.Packing.height (Bb.solve_par ~pool ~stats inst)
                    in
                    check_height
                      (Printf.sprintf "jobs=%d instance %d" jobs i)
                      expected par;
                    incr calls;
                    if (Option.get !stats).Bb.domains > 0 then incr searched)
                  cases))
          [ 1; 2; 3 ];
        (* The greedy early return must not swallow the corpus:
           require that a third of the calls reached the search. *)
        Alcotest.(check bool)
          (Printf.sprintf "%d of %d calls searched" !searched !calls)
          true
          (3 * !searched >= !calls));
    Alcotest.test_case "shared node cap exhausts across workers" `Quick
      (fun () ->
        let budget = Budget.create ~nodes:50 () in
        Alcotest.check_raises "exhausted" (Budget.Expired Budget.Nodes)
          (fun () ->
            ignore (Bb.optimal_height_par ~jobs:4 ~budget (hard_instance ()))));
    Alcotest.test_case "cancellation unwinds as Expired Cancelled" `Quick
      (fun () ->
        let cancel = Atomic.make true in
        let budget = Budget.create ~cancel () in
        Alcotest.check_raises "cancelled"
          (Budget.Expired Budget.Cancelled) (fun () ->
            ignore (Bb.solve_par ~jobs:2 ~budget (hard_instance ()))));
    Alcotest.test_case "fault raise inside workers surfaces, pool joins"
      `Quick (fun () ->
        let raised =
          with_fault
            { Fault.site = "bb.nodes"; action = Fault.Raise; after = 200 }
            (fun () ->
              try
                ignore (Bb.solve_par ~jobs:4 (hard_instance ()));
                false
              with Fault.Injected _ -> true)
        in
        Alcotest.(check bool) "typed Injected escaped solve_par" true raised);
  ]

let race_tests =
  [
    Alcotest.test_case "race of [exact-bb] equals the serial optimum" `Quick
      (fun () ->
        let inst = List.nth (corpus ()) 0 in
        let opt = Bb.optimal_height inst in
        Pool.with_pool ~jobs:2 (fun pool ->
            let res = Runner.race ~chain:[ find "exact-bb" ] ~pool inst in
            Alcotest.(check string) "winner" "exact-bb" res.Runner.winner;
            Alcotest.(check int) "peak" opt res.Runner.report.Report.peak));
    Alcotest.test_case "race winner matches some chain member's answer"
      `Quick (fun () ->
        let inst = List.nth (corpus ()) 1 in
        let chain = Runner.default_chain () in
        let member_peaks =
          List.filter_map
            (fun s ->
              match Runner.run_one s inst with
              | Ok r -> Some r.Report.peak
              | Error _ -> None)
            chain
        in
        Pool.with_pool ~jobs:3 (fun pool ->
            let res = Runner.race ~chain ~pool inst in
            Alcotest.(check bool) "not the safety net" false
              res.Runner.safety_net;
            Alcotest.(check bool) "winner is a chain member" true
              (List.mem res.Runner.winner
                 (List.map (fun (s : Dsp_engine.Solver.t) -> s.name) chain));
            Alcotest.(check bool) "peak matches that member" true
              (List.mem res.Runner.report.Report.peak member_peaks)));
    Alcotest.test_case "losers are cancelled, not timed out" `Quick (fun () ->
        (* approx54 cracks the hard instance quickly; exact-bb cannot,
           and must be reeled in by the winner's cancel flag. *)
        let inst = hard_instance () in
        Pool.with_pool ~jobs:2 (fun pool ->
            let res =
              Runner.race ~timeout_ms:60_000
                ~chain:[ find "exact-bb"; find "approx54" ] ~pool inst
            in
            Alcotest.(check string) "winner" "approx54" res.Runner.winner;
            Alcotest.(check bool) "exact-bb cancelled" true
              (List.exists
                 (fun f ->
                   f.Runner.solver = "exact-bb"
                   && Runner.kind_name f.Runner.kind = "cancelled")
                 res.Runner.failures)));
    Alcotest.test_case "racing stages share one wall-clock deadline" `Quick
      (fun () ->
        (* Two concurrent exact stages under a 400ms budget: with the
           (sequential) per-stage slicing each would die near 200ms;
           sharing the deadline, both must run essentially the full
           window. *)
        let inst = hard_instance () in
        Pool.with_pool ~jobs:2 (fun pool ->
            let res =
              Runner.race ~timeout_ms:400
                ~chain:[ find "exact-bb"; find "exact-bb" ] ~pool inst
            in
            Alcotest.(check bool) "degraded to the safety net" true
              res.Runner.safety_net;
            List.iter
              (fun f ->
                Alcotest.(check string)
                  (f.Runner.solver ^ " timed out") "timeout"
                  (Runner.kind_name f.Runner.kind);
                Alcotest.(check bool)
                  (Printf.sprintf "%s ran the full window (%.0f ms)"
                     f.Runner.solver
                     (f.Runner.seconds *. 1000.))
                  true
                  (f.Runner.seconds > 0.3))
              res.Runner.failures));
    Alcotest.test_case "race stays total under injected faults" `Quick
      (fun () ->
        let inst = List.nth (corpus ()) 2 in
        let res =
          with_fault
            { Fault.site = "bb.nodes"; action = Fault.Raise; after = 1 }
            (fun () ->
              Pool.with_pool ~jobs:3 (fun pool ->
                  Runner.race ~chain:(Runner.default_chain ()) ~pool inst))
        in
        Alcotest.(check bool) "validated report" true
          (res.Runner.report.Report.peak > 0);
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (f.Runner.solver ^ " failure is typed") true
              (List.mem
                 (Runner.kind_name f.Runner.kind)
                 [ "timeout"; "budget"; "error"; "invalid"; "cancelled" ]))
          res.Runner.failures);
    Alcotest.test_case "registry exact-bb-par agrees with exact-bb" `Quick
      (fun () ->
        let inst = List.nth (corpus ()) 3 in
        let peak_of name =
          match Runner.run_one (find name) inst with
          | Ok r -> r.Report.peak
          | Error f -> Alcotest.failf "%s: %a" name Runner.pp_failure f
        in
        Alcotest.(check int) "same optimum" (peak_of "exact-bb")
          (peak_of "exact-bb-par"));
  ]

(* Pool.submit's completion hook, which wakes the serve daemon. *)
let hook_tests =
  [
    Alcotest.test_case "on_done sees the future settled; a raising hook \
                        spares the worker" `Quick (fun () ->
        let pool = Pool.create ~jobs:1 in
        (* the gate holds the task back until [cell] has its future *)
        let gate = Mutex.create () in
        Mutex.lock gate;
        let cell = Atomic.make None and seen = Atomic.make None in
        let on_done () =
          Atomic.set seen (Option.map Pool.poll (Atomic.get cell))
        in
        let fut =
          Pool.submit ~on_done pool (fun () ->
              Mutex.lock gate;
              Mutex.unlock gate;
              7)
        in
        Atomic.set cell (Some fut);
        Mutex.unlock gate;
        ignore (Pool.submit ~on_done:(fun () -> failwith "hook") pool Fun.id);
        let last = Pool.submit pool (fun () -> 42) in
        Pool.shutdown pool;
        Alcotest.(check bool) "hook polled Some" true
          (Atomic.get seen = Some (Some (Ok 7)));
        Alcotest.(check bool) "worker ran the next task" true
          (Pool.poll last = Some (Ok 42)));
  ]

let suite =
  pool_tests @ instr_tests @ deque_tests @ skew_tests @ solve_par_tests
  @ race_tests @ hook_tests
