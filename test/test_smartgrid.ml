module Sg = Dsp_smartgrid.Smartgrid
open Dsp_core

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000)

let suite =
  [
    Alcotest.test_case "catalogue fits the day" `Quick (fun () ->
        (* A day of 200 households runs all seven catalogue entries. *)
        let runs = Sg.simulate_day (Dsp_util.Rng.create 1) ~households:200 in
        List.iter
          (fun (r : Sg.run) ->
            let a = r.Sg.appliance in
            Alcotest.check Alcotest.bool a.Sg.name true
              (a.Sg.duration >= 1
              && a.Sg.duration <= Sg.slots_per_day
              && a.Sg.power >= 1
              && a.Sg.preferred_slot >= 0
              && a.Sg.preferred_slot < Sg.slots_per_day))
          runs;
        Alcotest.check Alcotest.int "every appliance ran" 7
          (List.length
             (List.sort_uniq compare
                (List.map (fun (r : Sg.run) -> r.Sg.appliance.Sg.name) runs))));
    Helpers.qtest "simulation is deterministic in the seed" seed_arb (fun seed ->
        let runs1 = Sg.simulate_day (Dsp_util.Rng.create seed) ~households:8 in
        let runs2 = Sg.simulate_day (Dsp_util.Rng.create seed) ~households:8 in
        List.length runs1 = List.length runs2
        && List.for_all2
             (fun (a : Sg.run) (b : Sg.run) ->
               a.Sg.arrival = b.Sg.arrival
               && a.Sg.appliance.Sg.name = b.Sg.appliance.Sg.name)
             runs1 runs2);
    Helpers.qtest "naive packing is valid" seed_arb (fun seed ->
        let runs = Sg.simulate_day (Dsp_util.Rng.create seed) ~households:6 in
        QCheck.assume (runs <> []);
        Result.is_ok (Packing.validate (Sg.naive_packing runs)));
    Helpers.qtest "scheduler never loses to the naive schedule" seed_arb
      (fun seed ->
        let runs = Sg.simulate_day (Dsp_util.Rng.create seed) ~households:6 in
        QCheck.assume (runs <> []);
        let report =
          Sg.evaluate runs ~scheduler:Dsp_algo.Baselines.first_fit_doubling
        in
        report.Sg.scheduled_peak <= report.Sg.naive_peak
        && report.Sg.scheduled_peak >= report.Sg.lower_bound);
    Helpers.qtest "quadratic cost is the sum of squared loads" seed_arb
      (fun seed ->
        let runs = Sg.simulate_day (Dsp_util.Rng.create seed) ~households:3 in
        QCheck.assume (runs <> []);
        let p = Packing.profile (Sg.naive_packing runs) in
        let report =
          Sg.evaluate runs ~scheduler:Dsp_algo.Baselines.first_fit_doubling
        in
        report.Sg.naive_cost
        = Array.fold_left (fun acc v -> acc + (v * v)) 0 (Profile.to_array p));
  ]
