(* Tests for the future-work extensions: 90-degree rotations and
   moldable jobs (paper conclusion). *)

open Dsp_core
module Rot = Dsp_algo.Rotations
module Mold = Dsp_pts.Moldable

let rotation_tests =
  [
    Helpers.qtest "greedy rotating packings are valid"
      (Helpers.instance_arb ~max_width:12 ~max_n:10 ~max_h:10 ()) (fun inst ->
        let pk, orientations = Rot.best_fit_rotating inst in
        Result.is_ok (Packing.validate pk)
        && Array.length orientations = Instance.n_items inst);
    Helpers.qtest "orientations preserve area"
      (Helpers.instance_arb ~max_width:12 ~max_n:10 ~max_h:10 ()) (fun inst ->
        let _, orientations = Rot.best_fit_rotating inst in
        Instance.total_area (Rot.apply inst orientations)
        = Instance.total_area inst);
    Helpers.qtest ~count:25 "rotations never hurt the exact optimum"
      (Helpers.instance_arb ~max_width:8 ~max_n:5 ~max_h:6 ()) (fun inst ->
        let fixed, rotated = Rot.rotation_gain inst in
        rotated <= fixed);
    Alcotest.test_case "rotation strictly helps a crafted instance" `Quick
      (fun () ->
        (* Width 4: two 1x4 towers; rotated they become 4x1 flats:
           fixed optimum stacks towers side by side (peak 4), rotated
           lays both flat (peak 2). *)
        let inst = Instance.of_dims ~width:4 [ (1, 4); (1, 4) ] in
        let fixed, rotated = Rot.rotation_gain inst in
        Alcotest.check Alcotest.int "fixed" 4 fixed;
        Alcotest.check Alcotest.int "rotated" 2 rotated);
    Alcotest.test_case "inadmissible rotation rejected" `Quick (fun () ->
        (* Height 7 cannot become a width inside a strip of width 5. *)
        let inst = Instance.of_dims ~width:5 [ (2, 7) ] in
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore (Rot.apply inst [| Rot.Rotated |]);
             false
           with Invalid_argument _ -> true));
  ]

let moldable_arb =
  QCheck.make
    ~print:(fun (m, works) ->
      Printf.sprintf "m=%d works=%s" m
        (String.concat ";" (List.map string_of_int works)))
    QCheck.Gen.(
      let* m = int_range 2 5 in
      let* n = int_range 1 6 in
      let* works = list_repeat n (int_range 1 20) in
      return (m, works))

let moldable_tests =
  [
    Alcotest.test_case "work-based tables are monotone" `Quick (fun () ->
        let t = Mold.make_work_based ~machines:4 ~work:[ 10; 7 ] in
        let j = t.Mold.jobs.(0) in
        Alcotest.check (Alcotest.array Alcotest.int) "10 work"
          [| 10; 5; 4; 3 |] j.Mold.times);
    Alcotest.test_case "increasing tables rejected" `Quick (fun () ->
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore (Mold.make ~machines:2 [ [| 3; 4 |] ]);
             false
           with Invalid_argument _ -> true));
    Helpers.qtest "two-phase schedules are valid" moldable_arb (fun (m, works) ->
        let t = Mold.make_work_based ~machines:m ~work:works in
        let sched, allotment = Mold.schedule t in
        Result.is_ok (Pts.Schedule.validate sched)
        && Array.for_all (fun q -> q >= 1 && q <= m) allotment);
    Helpers.qtest ~count:30 "two-phase within 2x of the exact optimum"
      moldable_arb (fun (m, works) ->
        QCheck.assume (List.length works <= 5);
        let t = Mold.make_work_based ~machines:m ~work:works in
        Mold.makespan t <= 2 * fst (Mold.optimal_makespan t));
    Helpers.qtest ~count:30 "molding never hurts vs the rigid q=1 instance"
      moldable_arb (fun (m, works) ->
        QCheck.assume (List.length works <= 5);
        let t = Mold.make_work_based ~machines:m ~work:works in
        let rigid = Mold.allot t (Array.make (List.length works) 1) in
        fst (Mold.optimal_makespan t)
        <= Dsp_exact.Pts_exact.optimal_makespan rigid);
  ]

let suite = rotation_tests @ moldable_tests
