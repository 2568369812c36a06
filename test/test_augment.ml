open Dsp_core
module Augment = Dsp_augment.Augment

let dsp_augment_tests =
  [
    Helpers.qtest ~count:40 "corollary 2 result is valid and height-optimal"
      (Helpers.instance_arb ~max_width:10 ~max_n:6 ~max_h:5 ()) (fun inst ->
        let r = Augment.dsp_with_width_augmentation inst in
        Result.is_ok (Packing.validate r.Augment.packing)
        && r.Augment.width_used >= inst.Instance.width
        &&
        (* The certified height never exceeds the width-W optimum. *)
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Dsp_bb.optimal_height ~budget inst)
        with
        | Some opt -> r.Augment.height <= opt
        | None -> true);
    Helpers.qtest ~count:40 "corollary 2 width stays within the 2x certificate"
      (Helpers.instance_arb ~max_width:12 ~max_n:10 ()) (fun inst ->
        let r = Augment.dsp_with_width_augmentation inst in
        r.Augment.width_factor <= 2.0 +. 1e-9);
  ]

let pts_augment_tests =
  [
    Helpers.qtest ~count:30 "corollary 3 result is valid and makespan-optimal"
      (Helpers.pts_arb ~max_m:4 ~max_n:6 ~max_p:4 ()) (fun inst ->
        let r = Augment.pts_53 inst in
        Result.is_ok (Pts.Schedule.validate r.Augment.schedule)
        &&
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Pts_exact.optimal_makespan ~budget inst)
        with
        | Some opt -> r.Augment.makespan <= opt
        | None -> true);
    Helpers.qtest ~count:30 "corollary 3 machine factor within 5/3"
      (Helpers.pts_arb ~max_m:6 ~max_n:8 ()) (fun inst ->
        let r = Augment.pts_53 inst in
        r.Augment.machines_used <= max inst.Pts.Inst.machines
                                     (5 * inst.Pts.Inst.machines / 3));
    Helpers.qtest ~count:20 "corollary 4 machine factor within 5/4"
      (Helpers.pts_arb ~max_m:5 ~max_n:7 ~max_p:5 ()) (fun inst ->
        let r = Augment.pts_54 inst in
        Result.is_ok (Pts.Schedule.validate r.Augment.schedule)
        && r.Augment.machines_used
           <= max inst.Pts.Inst.machines (5 * inst.Pts.Inst.machines / 4));
    Helpers.qtest ~count:20 "corollary 4 result is makespan-optimal"
      (Helpers.pts_arb ~max_m:4 ~max_n:6 ~max_p:4 ()) (fun inst ->
        let r = Augment.pts_54 inst in
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Pts_exact.optimal_makespan ~budget inst)
        with
        | Some opt -> r.Augment.makespan <= opt
        | None -> true);
  ]

let suite = dsp_augment_tests @ pts_augment_tests
