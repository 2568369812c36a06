open Dsp_core

let ops_arb =
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "width=%d ops=%s" w
        (String.concat ";"
           (List.map (fun (s, l, h) -> Printf.sprintf "(%d,%d,%d)" s l h) ops)))
    QCheck.Gen.(
      let* width = int_range 1 40 in
      let* n = int_range 0 30 in
      let* ops =
        list_repeat n
          (let* s = int_range 0 (width - 1) in
           let* l = int_range 0 (width - s) in
           let* h = int_range (-5) 10 in
           return (s, l, h))
      in
      return (width, ops))

let apply_profile width ops =
  let p = Profile.create width in
  List.iter (fun (s, l, h) -> Profile.add p ~start:s ~len:l ~height:h) ops;
  p

let profile_tests =
  [
    Alcotest.test_case "basic add and peak" `Quick (fun () ->
        let p = Profile.create 5 in
        Profile.add p ~start:1 ~len:3 ~height:4;
        Profile.add p ~start:0 ~len:2 ~height:2;
        Alcotest.check Alcotest.int "load 0" 2 (Profile.load p 0);
        Alcotest.check Alcotest.int "load 1" 6 (Profile.load p 1);
        Alcotest.check Alcotest.int "peak" 6 (Profile.peak p);
        Alcotest.check Alcotest.int "peak in [2,5)" 4
          (Profile.peak_in p ~start:2 ~len:3));
    Alcotest.test_case "add_item/remove_item inverse" `Quick (fun () ->
        let p = Profile.create 6 in
        let it = Item.make ~id:0 ~w:3 ~h:2 in
        Profile.add_item p it ~start:2;
        Profile.remove_item p it ~start:2;
        Alcotest.check Alcotest.int "peak back to 0" 0 (Profile.peak p));
    Alcotest.test_case "out of range rejected" `Quick (fun () ->
        let p = Profile.create 4 in
        Alcotest.check Alcotest.bool "raises" true
          (try
             Profile.add p ~start:2 ~len:3 ~height:1;
             false
           with Invalid_argument _ -> true));
    Helpers.qtest "matches naive reference" ops_arb (fun (width, ops) ->
        let p = apply_profile width ops in
        Profile.to_array p = snd (Helpers.build width ops));
    Helpers.qtest "of_starts equals manual adds"
      (Helpers.instance_arb ~max_width:12 ~max_n:8 ()) (fun inst ->
        let starts =
          Array.map (fun (it : Item.t) -> (inst.Instance.width - it.Item.w) / 2)
            inst.Instance.items
        in
        let p = Profile.of_starts inst starts in
        let q = Profile.create inst.Instance.width in
        Array.iteri (fun i s -> Profile.add_item q (Instance.item inst i) ~start:s) starts;
        Profile.to_array p = Profile.to_array q);
  ]

let segtree_tests =
  [
    Helpers.qtest "segtree matches flat profile" ops_arb (fun (width, ops) ->
        let t, a = Helpers.build width ops in
        Segtree.to_array t = a);
    Helpers.qtest "range_max matches naive windows" ops_arb (fun (width, ops) ->
        let t, a = Helpers.build width ops in
        let ok = ref true in
        for lo = 0 to width - 1 do
          for hi = lo + 1 to width do
            if Segtree.range_max t ~lo ~hi <> Helpers.window_max a lo (hi - lo)
            then ok := false
          done
        done;
        !ok);
    Alcotest.test_case "first_fit_from finds the first fit" `Quick (fun () ->
        let t = Segtree.create 6 in
        Segtree.range_add t ~lo:0 ~hi:3 5;
        Segtree.range_add t ~lo:4 ~hi:6 2;
        (* len 2, height 3, limit 5: [3,5) has loads 0,2 -> fits at 3. *)
        Alcotest.check (Alcotest.option Alcotest.int) "start" (Some 3)
          (Segtree.first_fit_from t ~from:0 ~len:2 ~height:3 ~limit:5);
        Alcotest.check (Alcotest.option Alcotest.int) "impossible" None
          (Segtree.first_fit_from t ~from:0 ~len:6 ~height:1 ~limit:5));
    Alcotest.test_case "accumulation near max_int raises, never wraps" `Quick
      (fun () ->
        (* Segtree-backed path: the O(1) root guard fires on the add
           that would push the running max past max_int. *)
        let p = Profile.create 4 in
        Profile.add p ~start:0 ~len:4 ~height:max_int;
        Alcotest.check Alcotest.int "peak at the boundary" max_int
          (Profile.peak p);
        Alcotest.check_raises "segtree overflow" Dsp_util.Rat.Overflow
          (fun () -> Profile.add p ~start:1 ~len:2 ~height:1);
        (* The guarded add must not have half-applied. *)
        Alcotest.check Alcotest.int "load intact after refusal" max_int
          (Profile.load p 1);
        (* Naive reference path overflows identically. *)
        let n = Profile.Naive.create 4 in
        Profile.Naive.add n ~start:0 ~len:4 ~height:max_int;
        Alcotest.check_raises "naive overflow" Dsp_util.Rat.Overflow
          (fun () -> Profile.Naive.add n ~start:1 ~len:2 ~height:1);
        (* A large negative add keeps working: only the max can
           overflow upward. *)
        Profile.add p ~start:0 ~len:4 ~height:(-max_int);
        Alcotest.check Alcotest.int "peak back to 0" 0 (Profile.peak p);
        Profile.add p ~start:0 ~len:4 ~height:max_int;
        Alcotest.check Alcotest.int "boundary reachable again" max_int
          (Profile.peak p));
  ]

let suite = profile_tests @ segtree_tests
