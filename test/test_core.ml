open Dsp_core

let item_tests =
  [
    Alcotest.test_case "make validates dimensions" `Quick (fun () ->
        Alcotest.check_raises "zero width"
          (Invalid_argument "Item.make: width must be >= 1") (fun () ->
            ignore (Item.make ~id:0 ~w:0 ~h:1));
        Alcotest.check_raises "zero height"
          (Invalid_argument "Item.make: height must be >= 1") (fun () ->
            ignore (Item.make ~id:0 ~w:1 ~h:0)));
    Alcotest.test_case "area and scaling" `Quick (fun () ->
        let it = Item.make ~id:3 ~w:4 ~h:5 in
        Alcotest.check Alcotest.int "area" 20 (Item.area it);
        Alcotest.check Alcotest.int "scaled height" 15
          (Item.scale_height 3 it).Item.h;
        Alcotest.check Alcotest.int "scaled width" 8 (Item.scale_width 2 it).Item.w);
    Alcotest.test_case "orderings" `Quick (fun () ->
        let a = Item.make ~id:0 ~w:2 ~h:5 and b = Item.make ~id:1 ~w:3 ~h:4 in
        Alcotest.check Alcotest.bool "height desc puts a first" true
          (Item.compare_by_height_desc a b < 0);
        Alcotest.check Alcotest.bool "width desc puts b first" true
          (Item.compare_by_width_desc b a < 0);
        Alcotest.check Alcotest.bool "area desc puts b(12) after a(10)? no" true
          (Item.compare_by_area_desc b a < 0));
  ]

let instance_tests =
  [
    Alcotest.test_case "make re-ids items" `Quick (fun () ->
        let items = [| Item.make ~id:9 ~w:1 ~h:1; Item.make ~id:9 ~w:2 ~h:2 |] in
        let inst = Instance.make ~width:4 items in
        Alcotest.check Alcotest.int "first id" 0 (Instance.item inst 0).Item.id;
        Alcotest.check Alcotest.int "second id" 1 (Instance.item inst 1).Item.id);
    Alcotest.test_case "rejects too-wide items" `Quick (fun () ->
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore (Instance.of_dims ~width:3 [ (4, 1) ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "bounds on a known instance" `Quick (fun () ->
        (* width 4; items 2x2, 2x2, 4x1: area 12 -> area bound 3;
           max height 2; column bound: only the 4-wide item crosses
           the middle -> 1. *)
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 2); (4, 1) ] in
        Alcotest.check Alcotest.int "area bound" 3 (Instance.area_lower_bound inst);
        Alcotest.check Alcotest.int "max height" 2 (Instance.max_height inst);
        Alcotest.check Alcotest.int "column bound" 1
          (Instance.column_lower_bound inst);
        Alcotest.check Alcotest.int "lower bound" 3 (Instance.lower_bound inst));
    Helpers.qtest "lower bound is sound vs exact optimum"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        Instance.lower_bound inst <= Dsp_exact.Dsp_bb.optimal_height inst);
    Helpers.qtest "scale_heights scales area"
      (Helpers.instance_arb ~max_width:10 ~max_n:6 ()) (fun inst ->
        Instance.total_area (Instance.scale_heights 3 inst)
        = 3 * Instance.total_area inst);
    Alcotest.test_case "building 300 items forces no minor collection" `Quick
      (fun () ->
        let dims = List.init 300 (fun i -> (1 + (i mod 7), 1 + (i mod 11))) in
        let taller (it : Item.t) = { it with Item.h = it.Item.h + 1 } in
        Helpers.check_no_forced_minor "of_dims, map_items" (fun () ->
            Instance.map_items taller (Instance.of_dims ~width:10 dims)));
  ]

let suite = item_tests @ instance_tests
