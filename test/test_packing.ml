open Dsp_core

let left_starts inst =
  Array.map (fun (_ : Item.t) -> 0) inst.Instance.items

let packing_tests =
  [
    Alcotest.test_case "make validates overhang" `Quick (fun () ->
        let inst = Instance.of_dims ~width:4 [ (3, 1) ] in
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore (Packing.make inst [| 2 |]);
             false
           with Invalid_argument _ -> true);
        Alcotest.check Alcotest.bool "negative raises" true
          (try
             ignore (Packing.make inst [| -1 |]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "height is the profile peak" `Quick (fun () ->
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 3); (4, 1) ] in
        let pk = Packing.make inst [| 0; 2; 0 |] in
        Alcotest.check Alcotest.int "height" 4 (Packing.height pk));
    Alcotest.test_case "shift re-places an item" `Quick (fun () ->
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 3) ] in
        let pk = Packing.make inst [| 0; 0 |] in
        Alcotest.check Alcotest.int "stacked" 5 (Packing.height pk);
        let pk' = Packing.shift pk 1 2 in
        Alcotest.check Alcotest.int "side by side" 3 (Packing.height pk'));
    Helpers.qtest "all-left packing is valid and peak = stacked sum"
      (Helpers.instance_arb ~max_width:10 ~max_n:8 ()) (fun inst ->
        let pk = Packing.make inst (left_starts inst) in
        Result.is_ok (Packing.validate pk)
        && Packing.height pk
           = Dsp_util.Xutil.sum_by
               (fun (it : Item.t) -> it.Item.h)
               (Array.to_list inst.Instance.items
               |> List.filter (fun (it : Item.t) -> it.Item.w > 0)));
  ]

let layout_tests =
  [
    Helpers.qtest "stacked layout is valid with the packing's height"
      (Helpers.instance_arb ~max_width:12 ~max_n:8 ()) (fun inst ->
        let pk = Dsp_algo.Baselines.best_fit_decreasing inst in
        let layout = Slice_layout.stacked pk in
        Result.is_ok (Slice_layout.validate layout)
        && Slice_layout.height layout = Packing.height pk);
    Alcotest.test_case "overlapping layout rejected" `Quick (fun () ->
        let inst = Instance.of_dims ~width:2 [ (2, 2); (2, 2) ] in
        let pk = Packing.make inst [| 0; 0 |] in
        (* Both items at y = 0: columns overlap. *)
        let ys = [| [| 0; 0 |]; [| 0; 0 |] |] in
        Alcotest.check Alcotest.bool "error reported" true
          (try
             ignore (Slice_layout.make pk ys);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "slice points count vertical cuts" `Quick (fun () ->
        let inst = Instance.of_dims ~width:3 [ (3, 1) ] in
        let pk = Packing.make inst [| 0 |] in
        let layout = Slice_layout.make pk [| [| 0; 2; 2 |] |] in
        Alcotest.check Alcotest.int "one cut" 1 (Slice_layout.slice_points layout);
        Alcotest.check Alcotest.int "height counts the slice top" 3
          (Slice_layout.height layout));
    Alcotest.test_case "render shows every item" `Quick (fun () ->
        let inst = Instance.of_dims ~width:4 [ (2, 1); (2, 1) ] in
        let pk = Packing.make inst [| 0; 2 |] in
        let s = Slice_layout.render (Slice_layout.stacked pk) in
        Alcotest.check Alcotest.bool "has A" true (String.contains s 'A');
        Alcotest.check Alcotest.bool "has B" true (String.contains s 'B'));
  ]

let suite = packing_tests @ layout_tests
