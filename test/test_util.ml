module Rng = Dsp_util.Rng
module Xutil = Dsp_util.Xutil

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 17 and b = Rng.create 17 in
        for _ = 1 to 100 do
          Alcotest.check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.check Alcotest.bool "streams differ" true (xs <> ys));
    Alcotest.test_case "split independence" `Quick (fun () ->
        let a = Rng.create 5 in
        let b = Rng.split a in
        let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.check Alcotest.bool "streams differ" true (xs <> ys));
    Helpers.qtest "int respects bound" (QCheck.int_range 1 10_000) (fun bound ->
        let rng = Rng.create bound in
        let x = Rng.int rng bound in
        x >= 0 && x < bound);
    Helpers.qtest "int_in respects range"
      (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range 0 100))
      (fun (lo, extent) ->
        let rng = Rng.create (lo + extent) in
        let x = Rng.int_in rng lo (lo + extent) in
        x >= lo && x <= lo + extent);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Rng.create 9 in
        let arr = Array.init 50 Fun.id in
        Rng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.check (Alcotest.array Alcotest.int) "permutation"
          (Array.init 50 Fun.id) sorted);
  ]

let xutil_tests =
  [
    Alcotest.test_case "ceil_div" `Quick (fun () ->
        Alcotest.check Alcotest.int "7/2" 4 (Xutil.ceil_div 7 2);
        Alcotest.check Alcotest.int "8/2" 4 (Xutil.ceil_div 8 2);
        Alcotest.check Alcotest.int "0/5" 0 (Xutil.ceil_div 0 5));
    Helpers.qtest "ceil_div is minimal"
      (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 1 100))
      (fun (a, b) ->
        let k = Xutil.ceil_div a b in
        k * b >= a && (k = 0 || (k - 1) * b < a));
    Alcotest.test_case "take and drop" `Quick (fun () ->
        Alcotest.check (Alcotest.list Alcotest.int) "take" [ 1; 2 ]
          (Xutil.take 2 [ 1; 2; 3 ]);
        Alcotest.check (Alcotest.list Alcotest.int) "take too many" [ 1 ]
          (Xutil.take 5 [ 1 ]));
    Helpers.qtest "take @ drop = original"
      (QCheck.pair (QCheck.list QCheck.small_int) (QCheck.int_range 0 20))
      (fun (xs, n) -> Xutil.take n xs @ List.filteri (fun i _ -> i >= n) xs = xs);
    Alcotest.test_case "binary_search_min" `Quick (fun () ->
        Alcotest.check (Alcotest.option Alcotest.int) "min x >= 42" (Some 42)
          (Xutil.binary_search_min 0 100 (fun x -> x >= 42));
        Alcotest.check (Alcotest.option Alcotest.int) "none" None
          (Xutil.binary_search_min 0 100 (fun _ -> false));
        Alcotest.check (Alcotest.option Alcotest.int) "all" (Some 5)
          (Xutil.binary_search_min 5 100 (fun _ -> true)));
    Helpers.qtest "binary_search_min finds the threshold"
      (QCheck.pair (QCheck.int_range 0 1000) (QCheck.int_range 0 1000))
      (fun (lo, t) ->
        let hi = lo + 1000 in
        let threshold = lo + t in
        Xutil.binary_search_min lo hi (fun x -> x >= threshold) = Some threshold);
    Alcotest.test_case "range" `Quick (fun () ->
        Alcotest.check (Alcotest.list Alcotest.int) "range" [ 2; 3; 4 ]
          (Xutil.range 2 5);
        Alcotest.check (Alcotest.list Alcotest.int) "empty" [] (Xutil.range 5 5));
    Alcotest.test_case "percentile is nearest-rank" `Quick (fun () ->
        let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
        let check msg expected actual =
          Alcotest.check (Alcotest.float 0.) msg expected actual
        in
        check "empty" 0. (Xutil.percentile [||] 0.5);
        check "p50" 5. (Xutil.percentile xs 0.5);
        check "p99" 10. (Xutil.percentile xs 0.99);
        check "max" 10. (Xutil.percentile xs 1.0));
  ]

let suite = rng_tests @ xutil_tests
