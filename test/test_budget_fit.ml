(* Tests for the shared placement primitives (Budget_fit). *)

open Dsp_core
module B = Dsp_algo.Budget_fit

let suite =
  [
    Helpers.qtest "free boxes tile the space between profile and cap"
      (Helpers.instance_arb ~max_width:20 ~max_n:10 ()) (fun inst ->
        let st = B.create inst in
        Array.iter
          (fun (it : Item.t) ->
            ignore (B.best_fit st it ~budget:max_int))
          inst.Instance.items;
        let cap = B.peak st + 3 in
        let boxes = B.free_boxes st ~cap in
        (* Sum of box areas equals cap*width - occupied area, boxes
           are disjoint and left-to-right, and every box base matches
           the profile. *)
        let profile = B.profile st in
        let free_area =
          (cap * inst.Instance.width)
          - Array.fold_left ( + ) 0 (Profile.to_array profile)
        in
        let box_area =
          Dsp_util.Xutil.sum_by (fun (b : B.free_box) -> b.B.len * b.B.height) boxes
        in
        let bases_ok =
          List.for_all
            (fun (b : B.free_box) ->
              b.B.base = Profile.peak_in profile ~start:b.B.x ~len:1
              && b.B.base + b.B.height = cap
              && Profile.peak_in profile ~start:b.B.x ~len:b.B.len = b.B.base)
            boxes
        in
        let ordered =
          let rec go = function
            | (a : B.free_box) :: (b : B.free_box) :: rest ->
                a.B.x + a.B.len <= b.B.x && go (b :: rest)
            | _ -> true
          in
          go boxes
        in
        box_area = free_area && bases_ok && ordered);
    Helpers.qtest "place then unplace restores the profile"
      (Helpers.instance_arb ~max_width:15 ~max_n:8 ()) (fun inst ->
        let st = B.create inst in
        let before = Profile.to_array (B.profile st) in
        let it = Instance.item inst 0 in
        B.place st it ~start:0;
        B.unplace st it;
        Profile.to_array (B.profile st) = before);
    Helpers.qtest "first fit never places beyond the budget"
      (Helpers.instance_arb ~max_width:15 ~max_n:10 ~max_h:5 ()) (fun inst ->
        let st = B.create inst in
        let budget = Instance.lower_bound inst + 2 in
        Array.iter
          (fun (it : Item.t) -> ignore (B.first_fit st it ~budget))
          inst.Instance.items;
        B.peak st <= budget);
    Helpers.qtest "best fit places at a window of minimal peak"
      (Helpers.instance_arb ~max_width:12 ~max_n:6 ()) (fun inst ->
        let st = B.create inst in
        (* Place all but the last item arbitrarily, then check the
           best-fit position of the last. *)
        let n = Instance.n_items inst in
        QCheck.assume (n >= 2);
        for i = 0 to n - 2 do
          ignore (B.best_fit st (Instance.item inst i) ~budget:max_int)
        done;
        let it = Instance.item inst (n - 1) in
        let profile_before = B.profile st in
        let expected =
          Dsp_bench.Naive.best_start (Profile.to_array profile_before)
            ~len:it.Item.w
          |> Option.map snd
        in
        ignore (B.best_fit st it ~budget:max_int);
        let s = B.start_of st it in
        (* The profile now includes the item, which raised its own
           window uniformly by its height. *)
        Some (Profile.peak_in profile_before ~start:s ~len:it.Item.w - it.Item.h)
        = expected);
    Alcotest.test_case "to_packing rejects unplaced items" `Quick (fun () ->
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 2) ] in
        let st = B.create inst in
        B.place st (Instance.item inst 0) ~start:0;
        Alcotest.check Alcotest.bool "raises" true
          (try
             ignore (B.to_packing st);
             false
           with Invalid_argument _ -> true));
  ]
