open Dsp_core
module Naive = Dsp_bench.Naive

(* Brute-force references for differential testing. *)

let brute_dsp_opt inst =
  let n = Instance.n_items inst in
  let width = inst.Instance.width in
  let starts = Array.make n 0 in
  let best = ref max_int in
  let rec go k =
    if k = n then begin
      let h = Profile.peak (Profile.of_starts inst starts) in
      if h < !best then best := h
    end
    else
      let it = Instance.item inst k in
      for s = 0 to width - it.Item.w do
        starts.(k) <- s;
        go (k + 1)
      done
  in
  go 0;
  !best

let dsp_bb_tests =
  [
    Helpers.qtest ~count:60 "branch and bound matches brute force"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        QCheck.assume (Instance.n_items inst <= 5);
        Dsp_exact.Dsp_bb.optimal_height inst = brute_dsp_opt inst);
    Helpers.qtest "decision monotone in the height"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        let opt = Dsp_exact.Dsp_bb.optimal_height inst in
        Dsp_exact.Dsp_bb.decide inst ~height:(opt - 1) = None
        &&
        match Dsp_exact.Dsp_bb.decide inst ~height:(opt + 1) with
        | Some pk ->
            Result.is_ok (Packing.validate pk) && Packing.height pk <= opt + 1
        | None -> false);
    Alcotest.test_case "solves the empty instance" `Quick (fun () ->
        let inst = Instance.make ~width:3 [||] in
        Alcotest.check Alcotest.int "zero" 0
          (Dsp_exact.Dsp_bb.optimal_height inst));
    Alcotest.test_case "known optimum" `Quick (fun () ->
        (* Three 2x2 squares in width 4: two side by side + one on
           top -> peak 4. *)
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 2); (2, 2) ] in
        Alcotest.check Alcotest.int "peak 4" 4
          (Dsp_exact.Dsp_bb.optimal_height inst));
  ]

(* The contract Sp_exact's x-phase relies on: with a leaf that never
   stops, [find] visits exactly the canonical start vectors under the
   height — peak <= height; in area-descending order, the first item
   starts at or before (W - w) / 2 and adjacent identical items do not
   decrease.  Brute force over every start vector, pruned only on the
   height. *)
let canonical_vectors inst ~height =
  let n = Instance.n_items inst and width = inst.Instance.width in
  let order = Array.copy inst.Instance.items in
  Array.sort Item.compare_by_area_desc order;
  let loads = Array.make width 0 and starts = Array.make n (-1) in
  let acc = ref [] in
  let canonical () =
    let first = order.(0) in
    let ok = ref (starts.(first.Item.id) <= (width - first.Item.w) / 2) in
    for k = 1 to n - 1 do
      let a = order.(k - 1) and b = order.(k) in
      if
        a.Item.w = b.Item.w && a.Item.h = b.Item.h
        && starts.(a.Item.id) > starts.(b.Item.id)
      then ok := false
    done;
    !ok
  in
  let rec go k =
    if k = n then begin
      if canonical () then acc := Array.copy starts :: !acc
    end
    else begin
      let (it : Item.t) = order.(k) in
      for s = 0 to width - it.w do
        if Naive.window_max loads ~lo:s ~hi:(s + it.w) + it.h <= height then begin
          Naive.add loads ~lo:s ~hi:(s + it.w) it.h;
          starts.(it.id) <- s;
          go (k + 1);
          Naive.add loads ~lo:s ~hi:(s + it.w) (-it.h)
        end
      done
    end
  in
  go 0;
  List.sort compare !acc

let find_leaves inst ~height =
  let acc = ref [] in
  let stopped =
    Dsp_exact.Dsp_bb.find ~node:ignore
      ~leaf:(fun starts ->
        acc := Array.copy starts :: !acc;
        false)
      inst ~height
  in
  if stopped <> None then Alcotest.fail "find stopped on a leaf that never accepts";
  List.sort compare !acc

(* Every multiset of 1-4 item types (w <= W, h <= 3) for W = 1..5. *)
let find_visits_canonical_vectors () =
  let cases = ref 0 and leaves = ref 0 in
  for width = 1 to 5 do
    let types = Array.init (3 * width) (fun t -> ((t / 3) + 1, (t mod 3) + 1)) in
    let rec multisets n from dims =
      if n = 0 then begin
        let inst = Instance.of_dims ~width dims in
        let lb = Instance.lower_bound inst in
        List.iter
          (fun height ->
            incr cases;
            let want = canonical_vectors inst ~height in
            leaves := !leaves + List.length want;
            if find_leaves inst ~height <> want then
              Alcotest.failf "W=%d items %s height %d: find's leaves differ" width
                (String.concat " "
                   (List.map (fun (w, h) -> Printf.sprintf "%dx%d" w h) dims))
                height)
          [ lb; lb + 1 ]
      end
      else
        for t = from to Array.length types - 1 do
          multisets (n - 1) t (types.(t) :: dims)
        done
    in
    for n = 1 to 4 do
      multisets n 0 []
    done
  done;
  Alcotest.(check int) "cases" 13_302 !cases;
  Alcotest.(check bool) "vectors visited" true (!leaves > 100_000)

let find_tests =
  [
    Alcotest.test_case "find visits exactly the canonical start vectors" `Quick
      find_visits_canonical_vectors;
  ]

let sp_exact_tests =
  [
    Helpers.qtest ~count:40 "sp optimum >= dsp optimum"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        Dsp_exact.Sp_exact.optimal_height inst
        >= Dsp_exact.Dsp_bb.optimal_height inst);
    Helpers.qtest ~count:40 "sp witness is a valid rectangle packing"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        Result.is_ok (Rect_packing.validate (Dsp_exact.Sp_exact.solve inst)));
    Helpers.qtest ~count:40 "y_feasible agrees with the witness height"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        let pk = Dsp_exact.Sp_exact.solve inst in
        let h = Rect_packing.height pk in
        let starts =
          Array.init (Instance.n_items inst) (fun i ->
              pk.Rect_packing.positions.(i).Rect_packing.x)
        in
        Dsp_exact.Sp_exact.y_feasible inst ~starts ~height:h <> None);
  ]

let three_partition_tests =
  [
    Alcotest.test_case "solves a hand-built yes instance" `Quick (fun () ->
        (* B = 12; triples (5,4,3) twice, disguised by shuffling. *)
        let numbers = [| 5; 4; 4; 3; 5; 3 |] in
        match Dsp_exact.Three_partition.solve ~numbers ~bound:12 () with
        | None -> Alcotest.fail "should be solvable"
        | Some triples ->
            Alcotest.check Alcotest.int "two triples" 2 (Array.length triples);
            Array.iter
              (fun (a, b, c) ->
                Alcotest.check Alcotest.int "sum" 12
                  (numbers.(a) + numbers.(b) + numbers.(c)))
              triples);
    Alcotest.test_case "rejects a no instance" `Quick (fun () ->
        (* Sum = 2B but every triple mixing 6s and 2s sums to 14 or
           10, never 12. *)
        let numbers = [| 6; 6; 6; 2; 2; 2 |] in
        Alcotest.check Alcotest.bool "unsolvable" false
          (Option.is_some
             (Dsp_exact.Three_partition.solve ~numbers ~bound:12 ())));
    Helpers.qtest ~count:30 "generated yes instances are solvable"
      (QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_range 0 1000)))
      (fun (k, seed) ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Dsp_instance.Hardness.yes_instance rng ~k ~bound:16 in
        Option.is_some
          (Dsp_exact.Three_partition.solve
             ~numbers:tp.Dsp_instance.Hardness.numbers ~bound:16 ()));
  ]

let pts_exact_tests =
  [
    Helpers.qtest ~count:30 "exact schedules are valid and optimal-looking"
      (Helpers.pts_arb ~max_m:4 ~max_n:6 ~max_p:4 ()) (fun inst ->
        match
          Dsp_util.Budget.within ~nodes:400_000 (fun budget ->
              Dsp_exact.Pts_exact.solve ~budget inst)
        with
        | None -> true
        | Some sched ->
            Result.is_ok (Pts.Schedule.validate sched)
            && Pts.Schedule.makespan sched >= Pts.Inst.lower_bound inst
            && Pts.Schedule.makespan sched
               <= Pts.Schedule.makespan
                    (Dsp_pts.List_scheduling.schedule inst));
    Alcotest.test_case "known schedule optimum" `Quick (fun () ->
        (* 2 machines, jobs (2,2), (1,1), (1,1): block 2 then both
           singles in parallel -> makespan 3. *)
        let inst = Pts.Inst.of_dims ~machines:2 [ (2, 2); (1, 1); (1, 1) ] in
        Alcotest.check Alcotest.int "makespan" 3
          (Dsp_exact.Pts_exact.optimal_makespan inst));
  ]

let gap_tests =
  [
    Alcotest.test_case "gap family has the advertised optima" `Slow (fun () ->
        let inst = Dsp_instance.Gap_family.instance ~scale:1 in
        Alcotest.check Alcotest.int "dsp" 6 (Dsp_exact.Dsp_bb.optimal_height inst);
        Alcotest.check Alcotest.int "sp" 7 (Dsp_exact.Sp_exact.optimal_height inst));
    Alcotest.test_case "all witnesses have a strict gap" `Slow (fun () ->
        List.iter
          (fun inst ->
            let dsp = Dsp_exact.Dsp_bb.optimal_height inst
            and sp = Dsp_exact.Sp_exact.optimal_height inst in
            if sp <= dsp then
              Alcotest.failf "expected a gap, got sp=%d dsp=%d" sp dsp)
          Dsp_instance.Gap_family.slicing_wins);
  ]

(* The one exact bisection against a linear scan, for a monotone
   threshold that may lie outside [lo, hi]. *)
let optimum_test =
  let rec floor_log2 n = if n <= 1 then 0 else 1 + floor_log2 (n / 2) in
  Helpers.qtest ~count:500 "Optimum.below matches a linear scan"
    QCheck.(triple (int_range (-50) 50) (int_range 0 200) (int_range (-20) 240))
    (fun (lo, len, t) ->
      let hi = lo + len and calls = ref [] in
      let decide h =
        calls := h :: !calls;
        if h >= lo + t then Some (-h) else None
      in
      let scan =
        List.find_opt (fun h -> h >= lo + t) (List.init (len + 1) (( + ) lo))
      in
      Dsp_exact.Optimum.below ~lo ~hi decide = Option.map (fun h -> -h) scan
      && List.for_all (fun h -> lo <= h && h <= hi) !calls
      && List.length !calls <= floor_log2 (len + 1) + 1)

(* One node cap: a solve capped at [cap] nodes answers the uncapped
   optimum or runs out of budget, never a different value.  The two
   fixed cases are instances on which a capped sub-search read as
   "infeasible" once made Pts_exact answer makespan 17 at a 10-node cap
   (optimum 14) and Rotations answer height 5 at a 5-node cap
   (optimum 4). *)
let caps = [ 1; 3; 5; 10; 30; 100 ]

let check_capped name solve =
  let optimum = solve (Dsp_util.Budget.create ()) in
  List.iter
    (fun cap ->
      match Dsp_util.Budget.within ~nodes:cap solve with
      | Some v when v <> optimum ->
          Alcotest.failf "%s: cap %d answered %d, optimum %d" name cap v optimum
      | Some _ | None -> ())
    caps

let uniform seed ~n ~width =
  Dsp_instance.Generators.uniform (Dsp_util.Rng.create seed) ~n ~width
    ~max_w:(width / 2) ~max_h:6

let capped_tests =
  let seeds = List.init 8 (fun i -> i + 1) in
  (* A variant search's optimum comes with a variant attaining it. *)
  let rotated inst budget =
    let h, o = Dsp_algo.Rotations.optimal_height ~budget inst in
    Alcotest.check Alcotest.int "orientations reproduce the optimum" h
      (Dsp_exact.Dsp_bb.optimal_height (Dsp_algo.Rotations.apply inst o));
    h
  and molded t budget =
    let mk, a = Dsp_pts.Moldable.optimal_makespan ~budget t in
    Alcotest.check Alcotest.int "allotment reproduces the optimum" mk
      (Dsp_exact.Pts_exact.optimal_makespan (Dsp_pts.Moldable.allot t a));
    mk
  in
  [
    Alcotest.test_case "capped Dsp_bb and Sp_exact answer the optimum or expire"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let inst = uniform seed ~n:6 ~width:8 in
            check_capped
              (Printf.sprintf "Dsp_bb seed %d" seed)
              (fun budget -> Dsp_exact.Dsp_bb.optimal_height ~budget inst);
            check_capped
              (Printf.sprintf "Sp_exact seed %d" seed)
              (fun budget -> Dsp_exact.Sp_exact.optimal_height ~budget inst))
          seeds);
    Alcotest.test_case "capped Pts_exact answers the optimum or expires" `Quick
      (fun () ->
        let witness =
          Pts.Inst.of_dims ~machines:4
            [ (4, 3); (6, 1); (5, 3); (2, 4); (4, 1); (2, 4); (1, 2) ]
        in
        Alcotest.check Alcotest.int "witness optimum" 14
          (Dsp_exact.Pts_exact.optimal_makespan witness);
        check_capped "Pts_exact witness" (fun budget ->
            Dsp_exact.Pts_exact.optimal_makespan ~budget witness);
        List.iter
          (fun seed ->
            let inst =
              Dsp_instance.Generators.uniform_pts (Dsp_util.Rng.create seed)
                ~n:6 ~machines:4 ~max_p:6
            in
            check_capped
              (Printf.sprintf "Pts_exact seed %d" seed)
              (fun budget -> Dsp_exact.Pts_exact.optimal_makespan ~budget inst))
          seeds);
    Alcotest.test_case "capped Rotations answers the optimum or expires" `Quick
      (fun () ->
        let witness =
          Instance.of_dims ~width:8 [ (2, 5); (2, 2); (2, 2); (2, 1) ]
        in
        Alcotest.check Alcotest.int "witness optimum" 4
          (fst (Dsp_algo.Rotations.optimal_height witness));
        check_capped "Rotations witness" (rotated witness);
        List.iter
          (fun seed ->
            let inst = uniform seed ~n:4 ~width:8 in
            check_capped (Printf.sprintf "Rotations seed %d" seed) (rotated inst))
          seeds);
    Alcotest.test_case "capped Moldable answers the optimum or expires" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let rng = Dsp_util.Rng.create seed in
            let work = List.init 3 (fun _ -> Dsp_util.Rng.int_in rng 1 9) in
            let t = Dsp_pts.Moldable.make_work_based ~machines:3 ~work in
            check_capped (Printf.sprintf "Moldable seed %d" seed) (molded t))
          seeds);
    Alcotest.test_case "variant searches prune and have no size cap" `Quick
      (fun () ->
        (* m = 4 with 7 jobs has 16,384 allotments, nearly all skipped by
           their bound.  The next two optima beat their heuristics.  On
           the last four the heuristic reaches the area bound, which no
           orientation beats, so no orientation is visited. *)
        let work_based m work =
          molded (Dsp_pts.Moldable.make_work_based ~machines:m ~work)
        in
        List.iter
          (fun (name, optimum, nodes, solve) ->
            Alcotest.(check (option int))
              name (Some optimum)
              (Dsp_util.Budget.within ~nodes solve))
          ([
             ("m = 4, 7 jobs", 16, 25_000, work_based 4 [ 17; 12; 10; 8; 6; 5; 4 ]);
             ("m = 2, 9 jobs", 29, 5_000, work_based 2 [ 11; 7; 3; 5; 9; 3; 3; 8; 8 ]);
             ("13 rotatable items", 16, 20_000, rotated (uniform 15 ~n:13 ~width:10));
           ]
          @ List.map
              (fun (seed, optimum) ->
                ( Printf.sprintf "13 rotatable items at the area bound, seed %d" seed,
                  optimum,
                  0,
                  rotated (uniform seed ~n:13 ~width:10) ))
              [ (4, 16); (8, 15); (12, 12); (14, 13) ]));
  ]

let suite =
  dsp_bb_tests @ find_tests @ sp_exact_tests @ three_partition_tests @ pts_exact_tests
  @ gap_tests @ [ optimum_test ] @ capped_tests
