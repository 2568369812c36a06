open Dsp_core

let shelf_tests =
  [
    Helpers.qtest "NFDH packings are valid"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Result.is_ok (Rect_packing.validate (Dsp_sp.Shelf.nfdh inst)));
    Helpers.qtest "FFDH packings are valid"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Result.is_ok (Rect_packing.validate (Dsp_sp.Shelf.ffdh inst)));
    Helpers.qtest "NFDH respects its proven bound"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Rect_packing.height (Dsp_sp.Shelf.nfdh inst)
        <= Dsp_sp.Shelf.nfdh_height_bound inst);
    Helpers.qtest "FFDH never worse than NFDH"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Rect_packing.height (Dsp_sp.Shelf.ffdh inst)
        <= Rect_packing.height (Dsp_sp.Shelf.nfdh inst));
    Alcotest.test_case "nfdh_into splits placed and leftover" `Quick (fun () ->
        let items =
          [ Item.make ~id:0 ~w:2 ~h:3; Item.make ~id:1 ~w:2 ~h:2;
            Item.make ~id:2 ~w:2 ~h:2 ]
        in
        (* Box 4x4: shelf 1 holds the 3-tall and a 2-tall; the second
           2-tall opens a shelf at y=3 and does not fit. *)
        let placed, leftover = Dsp_sp.Shelf.nfdh_into ~width:4 ~height:4 items in
        Alcotest.check Alcotest.int "placed" 2 (List.length placed);
        Alcotest.check Alcotest.int "leftover" 1 (List.length leftover));
    Helpers.qtest "nfdh_into conserves items"
      (Helpers.instance_arb ~max_width:10 ~max_n:10 ()) (fun inst ->
        let items = Array.to_list inst.Instance.items in
        let placed, leftover =
          Dsp_sp.Shelf.nfdh_into ~width:inst.Instance.width ~height:6 items
        in
        List.length placed + List.length leftover = List.length items);
  ]

let steinberg_tests =
  [
    Alcotest.test_case "region bound formula" `Quick (fun () ->
        (* Area 8 in width 4 with small items: v = 4 gives
           2*8 = 16 <= 16. *)
        Alcotest.check Alcotest.int "bound" 4
          (Dsp_sp.Steinberg.region_bound ~u:4 ~w_max:2 ~h_max:2 ~area:8));
    Helpers.qtest "steinberg packings are valid"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Result.is_ok (Rect_packing.validate (Dsp_sp.Steinberg.pack inst)));
    Helpers.qtest "forgetting y coordinates never raises the peak"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        let pk = Dsp_sp.Steinberg.pack inst in
        Packing.height (Rect_packing.to_dsp pk) <= Rect_packing.height pk);
    Helpers.qtest "steinberg within the NFDH guarantee"
      (Helpers.instance_arb ~max_width:15 ~max_n:12 ()) (fun inst ->
        Dsp_sp.Steinberg.height inst <= Dsp_sp.Shelf.nfdh_height_bound inst);
    Helpers.qtest ~count:200 "steinberg within 2.1x of max(area, h) bound"
      (Helpers.instance_arb ~max_width:15 ~max_n:14 ()) (fun inst ->
        (* The Steinberg guarantee is <= 2 * max(S/W, h_max) up to
           rounding; we allow integer slack of h_max. *)
        let lb = max (Instance.area_lower_bound inst) (Instance.max_height inst) in
        Dsp_sp.Steinberg.height inst <= (2 * lb) + Instance.max_height inst);
    Helpers.qtest "pack_region respects the region"
      (Helpers.instance_arb ~max_width:12 ~max_n:8 ~max_h:5 ()) (fun inst ->
        let v = Dsp_sp.Steinberg.height_bound inst in
        match
          Dsp_sp.Steinberg.pack_region ~u:inst.Instance.width ~v
            (Array.to_list inst.Instance.items)
        with
        | None -> true
        | Some placements ->
            List.for_all
              (fun ((it : Item.t), { Rect_packing.x; y }) ->
                x >= 0 && y >= 0
                && x + it.Item.w <= inst.Instance.width
                && y + it.Item.h <= v)
              placements
            && List.length placements = Instance.n_items inst);
  ]

let suite = shelf_tests @ steinberg_tests
