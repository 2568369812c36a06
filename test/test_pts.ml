open Dsp_core

let rejected inst ~sigma ~rho =
  match Pts.Schedule.make inst ~sigma ~rho with
  | _ -> false
  | exception Invalid_argument _ -> true

let schedule_tests =
  [
    Alcotest.test_case "valid schedule accepted" `Quick (fun () ->
        let inst = Pts.Inst.of_dims ~machines:2 [ (2, 1); (2, 1); (1, 2) ] in
        let sched =
          Pts.Schedule.make inst ~sigma:[| 0; 0; 2 |]
            ~rho:[| [ 0 ]; [ 1 ]; [ 0; 1 ] |]
        in
        Alcotest.check Alcotest.int "makespan" 3 (Pts.Schedule.makespan sched));
    Alcotest.test_case "machine conflict rejected" `Quick (fun () ->
        let inst = Pts.Inst.of_dims ~machines:2 [ (2, 1); (2, 1) ] in
        Alcotest.check Alcotest.bool "overlap on machine 0" true
          (rejected inst ~sigma:[| 0; 1 |] ~rho:[| [ 0 ]; [ 0 ] |]));
    Alcotest.test_case "wrong machine count rejected" `Quick (fun () ->
        let inst = Pts.Inst.of_dims ~machines:3 [ (1, 2) ] in
        Alcotest.check Alcotest.bool "one machine for q=2" true
          (rejected inst ~sigma:[| 0 |] ~rho:[| [ 0 ] |]);
        Alcotest.check Alcotest.bool "duplicate machines" true
          (rejected inst ~sigma:[| 0 |] ~rho:[| [ 1; 1 ] |]));
    Alcotest.test_case "lower bounds on known instance" `Quick (fun () ->
        (* 3 machines; work = 2*3 + 4 = 10 -> ceil 10/3 = 4; longest
           job 4; stacking: q=2 job (2q > 3) alone -> 3. *)
        let inst = Pts.Inst.of_dims ~machines:3 [ (3, 2); (4, 1) ] in
        Alcotest.check Alcotest.int "lower bound" 4 (Pts.Inst.lower_bound inst);
        (* 2 machines, three (3, 1) jobs: work 9 -> 5 beats the longest
           job 3, and no job needs both machines. *)
        Alcotest.check Alcotest.int "work bound" 5
          (Pts.Inst.lower_bound
             (Pts.Inst.of_dims ~machines:2 [ (3, 1); (3, 1); (3, 1) ])));
  ]

let list_scheduling_tests =
  [
    Helpers.qtest "list schedules are valid" (Helpers.pts_arb ()) (fun inst ->
        let sched = Dsp_pts.List_scheduling.schedule inst in
        Result.is_ok (Pts.Schedule.validate sched));
    Helpers.qtest ~count:40 "list schedule within 2x the exact optimum"
      (Helpers.pts_arb ~max_m:4 ~max_n:7 ~max_p:5 ()) (fun inst ->
        let mk =
          Pts.Schedule.makespan (Dsp_pts.List_scheduling.schedule inst)
        in
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Pts_exact.optimal_makespan ~budget inst)
        with
        | Some opt -> mk <= 2 * opt
        | None -> true);
    Helpers.qtest "all orders produce valid schedules" (Helpers.pts_arb ())
      (fun inst ->
        List.for_all
          (fun order ->
            Result.is_ok
              (Pts.Schedule.validate (Dsp_pts.List_scheduling.schedule ~order inst)))
          Dsp_pts.List_scheduling.
            [ Input; Longest_first; Widest_first; Work_first ]);
  ]

let exact_small_tests =
  [
    Alcotest.test_case "m=1 is the serial sum" `Quick (fun () ->
        let inst = Pts.Inst.of_dims ~machines:1 [ (3, 1); (4, 1); (2, 1) ] in
        Alcotest.check (Alcotest.option Alcotest.int) "makespan" (Some 9)
          (Exact_small.optimal_makespan inst));
    Alcotest.test_case "m=2 partitions singles" `Quick (fun () ->
        (* q=2 block of 3, singles 4+3+3+2 = 12 -> balanced 6/6;
           optimum 3 + 6 = 9. *)
        let inst =
          Pts.Inst.of_dims ~machines:2 [ (3, 2); (4, 1); (3, 1); (3, 1); (2, 1) ]
        in
        Alcotest.check (Alcotest.option Alcotest.int) "makespan" (Some 9)
          (Exact_small.optimal_makespan inst));
    Helpers.qtest "m=2 DP matches branch and bound"
      (Helpers.pts_arb ~max_m:2 ~max_n:7 ~max_p:5 ()) (fun inst ->
        QCheck.assume (inst.Pts.Inst.machines = 2);
        match Exact_small.optimal_makespan inst with
        | Some a -> a = Dsp_exact.Pts_exact.optimal_makespan inst
        | None -> true);
    Helpers.qtest "m=2 DP schedules are valid and optimal"
      (Helpers.pts_arb ~max_m:2 ~max_n:8 ()) (fun inst ->
        QCheck.assume (Exact_small.supported inst);
        match Exact_small.solve inst with
        | Some sched ->
            Result.is_ok (Pts.Schedule.validate sched)
            && Pts.Schedule.makespan sched >= Pts.Inst.lower_bound inst
        | None -> false);
  ]

let suite = schedule_tests @ list_scheduling_tests @ exact_small_tests
