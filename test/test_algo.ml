open Dsp_core
module Rat = Dsp_util.Rat

let classify_tests =
  [
    Helpers.qtest "classification covers every item exactly once"
      (Helpers.instance_arb ~max_width:20 ~max_n:15 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let cls = Dsp_algo.Classify.classify inst p in
        Dsp_algo.Classify.total_items cls = Instance.n_items inst);
    Helpers.qtest "chosen thresholds bound the medium area"
      (Helpers.instance_arb ~max_width:20 ~max_n:15 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let eps = Rat.make 1 4 in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps in
        (* Lemma 2 with f = eps: medium area <= eps * W * target. *)
        let area_scale = inst.Instance.width * target in
        Rat.(of_int (Dsp_algo.Classify.medium_area inst p)
             <= mul eps (of_int area_scale)));
    Alcotest.test_case "categories on a crafted instance" `Quick (fun () ->
        (* width 100, target 100, eps = 1/4 -> delta = 1/4, mu = 1/64.
           (50, 80): tall needs w < 25: no; h > 25, w >= 25 -> large.
           (1, 80): tall. (1, 10): vertical (10 in (25/4=6.25? no...
           h in (deltaH', (1/4+eps)H') = (25, 50): 10 is below -> not
           vertical; h <= muH'? mu*100 = 1.5625; 10 > that -> medium. *)
        let inst = Instance.of_dims ~width:100 [ (50, 80); (1, 80); (1, 10) ] in
        let p =
          Dsp_algo.Classify.choose_params inst ~target:100 ~eps:(Rat.make 1 4)
        in
        let cls = Dsp_algo.Classify.classify inst p in
        Alcotest.check Alcotest.int "large" 1 (List.length cls.Dsp_algo.Classify.large);
        Alcotest.check Alcotest.int "tall" 1 (List.length cls.Dsp_algo.Classify.tall));
  ]

let rounding_tests =
  [
    Helpers.qtest "rounding never shrinks heights"
      (Helpers.instance_arb ~max_width:20 ~max_n:12 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let r = Dsp_algo.Rounding.round_heights inst p in
        Array.for_all2
          (fun (a : Item.t) (b : Item.t) -> b.Item.h >= a.Item.h && a.Item.w = b.Item.w)
          inst.Instance.items r.Dsp_algo.Rounding.rounded.Instance.items);
    Helpers.qtest "restore keeps starts and only lowers the peak"
      (Helpers.instance_arb ~max_width:15 ~max_n:10 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let r = Dsp_algo.Rounding.round_heights inst p in
        let pk =
          Dsp_algo.Baselines.best_fit_decreasing r.Dsp_algo.Rounding.rounded
        in
        let restored = Dsp_algo.Rounding.restore r pk in
        Packing.starts restored = Packing.starts pk
        && Packing.height restored <= Packing.height pk);
  ]

let config_fill_tests =
  [
    Helpers.qtest ~count:60 "fill conserves items and respects boxes"
      (Helpers.instance_arb ~max_width:20 ~max_n:10 ~max_h:4 ()) (fun inst ->
        let boxes =
          [
            { Dsp_algo.Budget_fit.x = 0; len = inst.Instance.width; base = 0; height = 8 };
          ]
        in
        let items = Array.to_list inst.Instance.items in
        match Dsp_algo.Config_fill.fill ~boxes ~items () with
        | None -> true
        | Some r ->
            let placed = List.map (fun p -> p.Dsp_algo.Config_fill.item) r.placements in
            List.length placed + List.length r.Dsp_algo.Config_fill.overflow
            = List.length items
            &&
            (* Column loads within the box height. *)
            let profile = Profile.create inst.Instance.width in
            List.iter
              (fun { Dsp_algo.Config_fill.item; start } ->
                Profile.add_item profile item ~start)
              r.Dsp_algo.Config_fill.placements;
            Profile.peak profile <= 8);
    Alcotest.test_case "perfectly divisible fill has no overflow" `Quick (fun () ->
        (* Four 1x2 items into a 4-wide box of height 2: one
           configuration, zero overflow expected from the LP. *)
        let items = List.init 4 (fun id -> Item.make ~id ~w:1 ~h:2) in
        let boxes = [ { Dsp_algo.Budget_fit.x = 0; len = 4; base = 0; height = 2 } ] in
        match Dsp_algo.Config_fill.fill ~boxes ~items () with
        | None -> Alcotest.fail "LP should be feasible"
        | Some r ->
            Alcotest.check Alcotest.int "overflow" 0
              (List.length r.Dsp_algo.Config_fill.overflow));
  ]

let algo_tests =
  (* The heuristic solvers come from the engine registry — the single
     algorithm table — rather than a private list. *)
  List.concat_map
    (fun (s : Dsp_engine.Solver.t) ->
      let name = s.Dsp_engine.Solver.name in
      [
        Helpers.qtest (name ^ " always returns a valid packing")
          (Helpers.instance_arb ~max_width:16 ~max_n:12 ())
          (fun inst ->
            let pk =
              s.Dsp_engine.Solver.solve
                ~budget:(Dsp_util.Budget.unlimited ()) inst
            in
            Result.is_ok (Packing.validate pk)
            && Instance.n_items (Packing.instance pk) = Instance.n_items inst);
      ])
    (Dsp_engine.Registry.heuristics ())
  @ [
      Helpers.qtest ~count:30 "approx54 stays within 5/4 + eps of optimum"
        (Helpers.tiny_instance_arb ()) (fun inst ->
          match
            Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
                Dsp_exact.Dsp_bb.optimal_height ~budget inst)
          with
          | None -> true
          | Some opt ->
              let h = Packing.height (Dsp_algo.Approx54.solve inst) in
              (* eps = 1/4 default; integer slack of 1 for tiny optima. *)
              h <= ((5 * opt) + 3) / 4 + 1);
      Helpers.qtest ~count:30 "approx53 stays within 5/3 of optimum"
        (Helpers.tiny_instance_arb ()) (fun inst ->
          match
            Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
                Dsp_exact.Dsp_bb.optimal_height ~budget inst)
          with
          | None -> true
          | Some opt ->
              Packing.height (Dsp_algo.Approx53.solve inst) <= (5 * opt / 3) + 1);
      Alcotest.test_case "approx54 solves a perfect-fit instance optimally"
        `Quick (fun () ->
          let rng = Dsp_util.Rng.create 5 in
          let inst =
            Dsp_instance.Generators.perfect_fit rng ~width:12 ~height:10 ~cuts:9
          in
          let pk, _ = Dsp_algo.Approx54.solve_with_stats inst in
          Alcotest.check Alcotest.bool "within 5/4 of 10" true
            (Packing.height pk <= 13));
    ]

let suite = classify_tests @ rounding_tests @ config_fill_tests @ algo_tests
