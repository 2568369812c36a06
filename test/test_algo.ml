open Dsp_core
module Rat = Dsp_util.Rat

let classify_tests =
  [
    Helpers.qtest "classification covers every item exactly once"
      (Helpers.instance_arb ~max_width:20 ~max_n:15 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let cls = Dsp_algo.Classify.classify inst p in
        Dsp_util.Xutil.sum_by snd (Dsp_algo.Classify.class_sizes cls)
        = Instance.n_items inst);
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

(* The exact rational tests the classification and rounding used
   before they moved to integer cut-offs, kept as the oracle the
   cut-offs must agree with. *)
module Oracle = struct
  module C = Dsp_algo.Classify

  let gt v frac scale = not Rat.(of_int v <= mul frac (of_int scale))
  let ge v frac scale = Rat.(of_int v >= mul frac (of_int scale))
  let le v frac scale = Rat.(of_int v <= mul frac (of_int scale))
  let lt v frac scale = not Rat.(of_int v >= mul frac (of_int scale))

  let category (p : C.params) width (it : Item.t) =
    let w = it.Item.w and h = it.Item.h and tgt = p.C.target in
    let thr = Rat.(add (make 1 4) p.C.eps) in
    if ge h thr tgt && lt w p.C.delta width then `Tall
    else if gt h p.C.delta tgt && ge w p.C.delta width then `Large
    else if gt h p.C.delta tgt && lt h thr tgt && le w p.C.mu width then `Vertical
    else if
      ge h p.C.eps tgt && lt h thr tgt && gt w p.C.mu width && lt w p.C.delta width
    then `Medium_vertical
    else if le h p.C.mu tgt && ge w p.C.delta width then `Horizontal
    else if le h p.C.mu tgt && le w p.C.mu width then `Small
    else `Medium

  let classify (inst : Instance.t) p : C.classes =
    Array.fold_left
      (fun (c : C.classes) it ->
        match category p inst.Instance.width it with
        | `Large -> { c with large = it :: c.large }
        | `Tall -> { c with tall = it :: c.tall }
        | `Vertical -> { c with vertical = it :: c.vertical }
        | `Medium_vertical -> { c with medium_vertical = it :: c.medium_vertical }
        | `Horizontal -> { c with horizontal = it :: c.horizontal }
        | `Small -> { c with small = it :: c.small }
        | `Medium -> { c with medium = it :: c.medium })
      {
        large = [];
        tall = [];
        vertical = [];
        medium_vertical = [];
        horizontal = [];
        small = [];
        medium = [];
      }
      inst.Instance.items

  let medium_area inst p =
    let c = classify inst p in
    Dsp_util.Xutil.sum_by Item.area (c.C.medium @ c.C.medium_vertical)

  let choose_params ?(f = Fun.id) inst ~target ~eps =
    let feps = f eps in
    let budget = Rat.mul feps (Rat.of_int (inst.Instance.width * target)) in
    let max_steps = min 30 (2 * Rat.ceil (Rat.inv feps)) in
    let rec go delta step =
      let mu = Rat.(mul (mul delta delta) feps) in
      let p = { C.eps; delta; mu; target } in
      if step >= max_steps || Rat.(of_int (medium_area inst p) <= budget) then p
      else go mu (step + 1)
    in
    go feps 0

  let round_height (p : C.params) h =
    let tgt = Rat.of_int p.C.target in
    if Rat.(of_int h <= mul p.C.delta tgt) then h
    else
      let rec find_scale level bound =
        let bound = Rat.mul bound p.C.eps in
        if Rat.(of_int h >= bound) || level > 62 then bound
        else find_scale (level + 1) bound
      in
      let grid = max 1 (Rat.floor (Rat.mul (find_scale 1 tgt) p.C.eps)) in
      Dsp_util.Xutil.ceil_div h grid * grid
end

(* A case: strip width, guessed optimum, ε, whether f halves ε, an
   instance for [choose_params], and random picks that place probe
   items at the cut-offs. *)
let cutoff_arb =
  let open QCheck.Gen in
  let eps =
    oneof
      [
        oneofl [ (1, 4); (1, 16); (2, 7); (1, 8); (1, 32); (1, 5) ];
        (let* d = int_range 2 12 in
         let* n = int_range 1 (d - 1) in
         return (n, d));
      ]
  in
  let gen =
    let* width = int_range 1 300 in
    let* target = int_range 1 3000 in
    let* eps = eps in
    let* halve = bool in
    let* n = int_range 1 25 in
    let* dims =
      list_repeat n (pair (int_range 1 width) (int_range 1 (max 1 (target / 2))))
    in
    let* picks = list_repeat 40 (triple nat nat nat) in
    return (width, target, eps, halve, dims, picks)
  in
  let print (width, target, (en, ed), halve, dims, _) =
    Printf.sprintf "W=%d H'=%d eps=%d/%d f=%s dims=[%s]" width target en ed
      (if halve then "eps/2" else "id")
      (String.concat "; " (List.map (fun (w, h) -> Printf.sprintf "%d,%d" w h) dims))
  in
  QCheck.make ~print gen

(* Integers at and next to ⌊r⌋ and ⌈r⌉ for each threshold [r]. *)
let near rs =
  List.concat_map
    (fun r ->
      let f = Rat.floor r and c = Rat.ceil r in
      [ f - 1; f; f + 1; c - 1; c; c + 1 ])
    rs

(* Probe items at and next to every cut-off of [p] (heights near the
   class thresholds and the first four rungs of the rounding ladder,
   widths near δW and μW, one in three random), then [dims]. *)
let probe_instance (p : Dsp_algo.Classify.params) ~width dims picks =
  let module C = Dsp_algo.Classify in
  let scaled scale fr = Rat.mul fr (Rat.of_int scale) in
  let rec pow k = if k = 0 then Rat.one else Rat.mul p.C.eps (pow (k - 1)) in
  let tall = Rat.(add (make 1 4) p.C.eps) in
  let hs =
    near
      (List.map (scaled p.C.target)
         ([ tall; p.C.delta; p.C.eps; p.C.mu ] @ List.init 4 (fun l -> pow (l + 1))))
    |> List.filter (fun h -> h >= 1)
    |> Array.of_list
  in
  let ws =
    near (List.map (scaled width) [ p.C.delta; p.C.mu ])
    |> List.filter (fun w -> w >= 1 && w <= width)
    |> Array.of_list
  in
  let pick (a, b, c) =
    let w = if c mod 3 = 0 then 1 + (a mod width) else ws.(a mod Array.length ws) in
    (w, hs.(b mod Array.length hs))
  in
  Instance.of_dims ~width (List.map pick picks @ dims)

let agrees (p : Dsp_algo.Classify.params) (probe : Instance.t) =
  let heights (inst : Instance.t) =
    Array.map (fun (it : Item.t) -> it.Item.h) inst.Instance.items
  in
  match
    ( Oracle.classify probe p,
      Oracle.medium_area probe p,
      Array.map (Oracle.round_height p) (heights probe) )
  with
  | exception Rat.Overflow ->
      (* A rational test overflows past h·den > max_int; a cut-off
         cannot. *)
      true
  | classes, area, rounded ->
      Dsp_algo.Classify.classify probe p = classes
      && Dsp_algo.Classify.medium_area probe p = area
      && heights (Dsp_algo.Rounding.round_heights probe p).Dsp_algo.Rounding.rounded
         = rounded

let cutoff_tests =
  [
    Helpers.qtest ~count:300 "integer cut-offs agree with the rational tests"
      cutoff_arb (fun (width, target, (en, ed), halve, dims, picks) ->
        let module C = Dsp_algo.Classify in
        let eps = Rat.make en ed in
        let f = if halve then Some (fun e -> Rat.div e (Rat.of_int 2)) else None in
        let base = Instance.of_dims ~width dims in
        match Oracle.choose_params ?f base ~target ~eps with
        | exception Rat.Overflow -> true
        | q ->
            let p = C.choose_params ?f base ~target ~eps in
            (* The pigeonhole's pair, then one off the σ sequence. *)
            Rat.equal p.C.delta q.C.delta
            && Rat.equal p.C.mu q.C.mu
            && List.for_all
                 (fun p -> agrees p (probe_instance p ~width dims picks))
                 [ p; { p with C.delta = Rat.make 1 3; mu = Rat.make 2 29 } ]);
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
                ~budget:(Dsp_util.Budget.create ()) inst
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

let suite =
  classify_tests @ rounding_tests @ cutoff_tests @ config_fill_tests @ algo_tests
