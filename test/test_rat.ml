module Rat = Dsp_util.Rat

let rat_arb =
  QCheck.make
    ~print:(fun r -> Rat.to_string r)
    QCheck.Gen.(
      let* n = int_range (-1000) 1000 in
      let* d = int_range 1 1000 in
      return (Rat.make n d))

let check_rat =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Rat.to_string r))
    Rat.equal

let unit_tests =
  [
    Alcotest.test_case "normalization" `Quick (fun () ->
        Alcotest.check check_rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
        Alcotest.check check_rat "neg den" (Rat.make (-1) 2) (Rat.make 1 (-2));
        Alcotest.check Alcotest.string "lowest terms" "3/2"
          (Rat.to_string (Rat.make 6 4)));
    Alcotest.test_case "zero denominator rejected" `Quick (fun () ->
        Alcotest.check_raises "div by zero" Rat.Division_by_zero (fun () ->
            ignore (Rat.make 1 0)));
    Alcotest.test_case "floor and ceil" `Quick (fun () ->
        Alcotest.check Alcotest.int "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
        Alcotest.check Alcotest.int "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
        Alcotest.check Alcotest.int "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
        Alcotest.check Alcotest.int "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
        Alcotest.check Alcotest.int "floor 4" 4 (Rat.floor (Rat.of_int 4)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let a = Rat.make 1 3 and b = Rat.make 1 6 in
        Alcotest.check check_rat "1/3+1/6" (Rat.make 1 2) (Rat.add a b);
        Alcotest.check check_rat "1/3-1/6" (Rat.make 1 6) (Rat.sub a b);
        Alcotest.check check_rat "1/3*1/6" (Rat.make 1 18) (Rat.mul a b);
        Alcotest.check check_rat "1/3 / 1/6" (Rat.of_int 2) (Rat.div a b));
    Alcotest.test_case "overflow detected" `Quick (fun () ->
        let big = Rat.make max_int 1 in
        Alcotest.check_raises "mul overflow" Rat.Overflow (fun () ->
            ignore (Rat.mul big big)));
    Alcotest.test_case "int boundary: additions raise, never wrap" `Quick
      (fun () ->
        let top = Rat.of_int max_int in
        Alcotest.check_raises "max_int + 1" Rat.Overflow (fun () ->
            ignore (Rat.add top Rat.one));
        Alcotest.check_raises "sub below min_int" Rat.Overflow (fun () ->
            ignore (Rat.sub (Rat.of_int (-max_int)) (Rat.of_int 2)));
        (* Exactly representable boundary results must still work. *)
        Alcotest.check check_rat "max_int - 1 + 1"
          top
          (Rat.add (Rat.of_int (max_int - 1)) Rat.one);
        Alcotest.check check_rat "cross-reduction avoids the blowup"
          Rat.one
          (Rat.mul (Rat.make max_int 1) (Rat.make 1 max_int)));
    Alcotest.test_case "int boundary: min_int has no negation" `Quick
      (fun () ->
        let bottom = Rat.of_int min_int in
        Alcotest.check_raises "neg min_int" Rat.Overflow (fun () ->
            ignore (Rat.neg bottom));
        Alcotest.check_raises "make with min_int numerator" Rat.Overflow
          (fun () -> ignore (Rat.make min_int 3));
        Alcotest.check_raises "make with min_int denominator" Rat.Overflow
          (fun () -> ignore (Rat.make 1 min_int));
        (* compare goes through sub, so comparing against min_int can
           itself overflow — documented behavior, not a wrap. *)
        Alcotest.check_raises "compare overflows loudly" Rat.Overflow
          (fun () -> ignore (Rat.compare (Rat.of_int max_int) bottom)));
  ]

let property_tests =
  [
    Helpers.qtest "add commutative" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
        Rat.equal (Rat.add a b) (Rat.add b a));
    Helpers.qtest "mul commutative" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
        Rat.equal (Rat.mul a b) (Rat.mul b a));
    Helpers.qtest "add associative"
      (QCheck.triple rat_arb rat_arb rat_arb)
      (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    Helpers.qtest "distributivity"
      (QCheck.triple rat_arb rat_arb rat_arb)
      (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    Helpers.qtest "sub then add roundtrip" (QCheck.pair rat_arb rat_arb)
      (fun (a, b) -> Rat.equal a (Rat.add (Rat.sub a b) b));
    Helpers.qtest "inv involutive" rat_arb (fun a ->
        QCheck.assume (Rat.sign a <> 0);
        Rat.equal a (Rat.inv (Rat.inv a)));
    Helpers.qtest "floor <= x < floor+1" rat_arb (fun a ->
        let f = Rat.floor a in
        let f1 = f + 1 in
        Rat.(of_int f <= a) && not Rat.(of_int f1 <= a));
    Helpers.qtest "ceil is -floor(-x)" rat_arb (fun a ->
        Rat.ceil a = -Rat.floor (Rat.neg a));
    Helpers.qtest "compare antisymmetric" (QCheck.pair rat_arb rat_arb)
      (fun (a, b) -> Rat.compare a b = -Rat.compare b a);
  ]

let suite = unit_tests @ property_tests
