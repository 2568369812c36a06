open Dsp_core
module Transform = Dsp_transform.Transform

let transform_tests =
  [
    Helpers.qtest "schedule -> packing keeps the objective"
      (Helpers.pts_arb ()) (fun inst ->
        let sched = Dsp_pts.List_scheduling.schedule inst in
        let pk = Transform.schedule_to_packing sched in
        Result.is_ok (Packing.validate pk)
        && Packing.height pk <= inst.Pts.Inst.machines
        && (Packing.instance pk).Instance.width = Pts.Schedule.makespan sched);
    Helpers.qtest "packing -> schedule assigns concrete machines"
      (Helpers.instance_arb ~max_width:12 ~max_n:10 ~max_h:5 ()) (fun inst ->
        let pk = Dsp_algo.Baselines.best_fit_decreasing inst in
        let m = Packing.height pk in
        match Transform.packing_to_schedule pk ~machines:m with
        | Error e -> QCheck.Test.fail_reportf "unexpected failure: %s" e
        | Ok (sched, _) ->
            Result.is_ok (Pts.Schedule.validate sched)
            && Pts.Schedule.makespan sched <= inst.Instance.width);
    Helpers.qtest "packing -> schedule fails above the machine budget"
      (Helpers.instance_arb ~max_width:10 ~max_n:6 ~max_h:5 ()) (fun inst ->
        let pk = Dsp_algo.Baselines.best_fit_decreasing inst in
        let m = Packing.height pk in
        QCheck.assume (m > 1);
        Result.is_error (Transform.packing_to_schedule pk ~machines:(m - 1)));
    Helpers.qtest "round trip preserves makespan and validity"
      (Helpers.pts_arb ()) (fun inst ->
        let sched = Dsp_pts.List_scheduling.schedule inst in
        match Transform.roundtrip_schedule sched with
        | Error e -> QCheck.Test.fail_reportf "roundtrip failed: %s" e
        | Ok back ->
            Result.is_ok (Pts.Schedule.validate back)
            && Pts.Schedule.makespan back <= Pts.Schedule.makespan sched);
    Helpers.qtest "layout transformation is feasible and height-preserving"
      (Helpers.pts_arb ~max_m:5 ~max_n:9 ()) (fun inst ->
        let sched = Dsp_pts.List_scheduling.schedule inst in
        let layout, stats = Transform.schedule_to_layout sched in
        Result.is_ok (Slice_layout.validate layout)
        && Slice_layout.height layout <= inst.Pts.Inst.machines
        && stats.Transform.repairs <= stats.Transform.events);
    Helpers.qtest "instance transformations are mutually inverse"
      (Helpers.pts_arb ()) (fun inst ->
        let width = 1 + Pts.Inst.max_time inst in
        let dsp = Transform.pts_to_dsp_instance inst ~width in
        let back = Transform.dsp_to_pts_instance dsp ~machines:inst.Pts.Inst.machines in
        Array.for_all2
          (fun (a : Pts.Job.t) (b : Pts.Job.t) -> a.p = b.p && a.q = b.q)
          inst.Pts.Inst.jobs back.Pts.Inst.jobs);
    Alcotest.test_case "instance transformations force no minor collection"
      `Quick (fun () ->
        let dims = List.init 300 (fun i -> (1 + (i mod 7), 1 + (i mod 11))) in
        let inst = Instance.of_dims ~width:10 dims in
        Helpers.check_no_forced_minor "dsp_to_pts_instance, pts_to_dsp_instance"
          (fun () ->
            Transform.pts_to_dsp_instance ~width:10
              (Transform.dsp_to_pts_instance inst ~machines:11)));
  ]

let duality_tests =
  [
    (* The heart of Theorem 1: feasibility transfers exactly between
       the two problems on small instances. *)
    Helpers.qtest ~count:40 "optimal makespan equals optimal dual height"
      (Helpers.pts_arb ~max_m:4 ~max_n:6 ~max_p:4 ()) (fun inst ->
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Pts_exact.solve ~budget inst)
        with
        | None -> true
        | Some sched ->
            let t = Pts.Schedule.makespan sched in
            let m = inst.Pts.Inst.machines in
            (* A strip of width t and height budget m must be feasible,
               and width t-1 must not admit height <= m (optimality). *)
            let dual = Transform.pts_to_dsp_instance inst ~width:t in
            Dsp_exact.Dsp_bb.decide dual ~height:m <> None
            && (t <= Pts.Inst.max_time inst
               ||
               let dual' = Transform.pts_to_dsp_instance inst ~width:(t - 1) in
               Dsp_exact.Dsp_bb.decide dual' ~height:m = None));
  ]

let suite = transform_tests @ duality_tests
