(* Differential tests for the segment-tree packing kernel: the
   segtree-backed Profile must agree with the flat-array
   Profile.Naive reference on every operation, and the kernel's own
   queries (range_max / first_fit_from and its sentinel form / best_start /
   find_last_above_i / first_above) must agree with direct linear scans
   over a plain load array. *)

open Dsp_core
module Rng = Dsp_util.Rng

(* ---- randomized operation streams against the naive reference ---- *)

(* Drives both implementations with the same interleaved stream of
   add / peak / peak_in / load operations.  Sized to satisfy the
   acceptance bar explicitly: >= 20 random instances, >= 1000
   randomized operations each. *)
let differential_stream () =
  let instances = 24 and ops_per_instance = 1200 in
  for i = 1 to instances do
    let rng = Rng.create (9_000 + i) in
    let width = Rng.int_in rng 1 120 in
    let p = Profile.create width in
    let q = Profile.Naive.create width in
    for op = 1 to ops_per_instance do
      match Rng.int rng 4 with
      | 0 ->
          let start = Rng.int rng width in
          let len = Rng.int rng (width - start + 1) in
          let height = Rng.int_in rng (-4) 8 in
          Profile.add p ~start ~len ~height;
          Profile.Naive.add q ~start ~len ~height
      | 1 ->
          if Profile.peak p <> Profile.Naive.peak q then
            Alcotest.failf "instance %d op %d: peak %d <> naive %d" i op
              (Profile.peak p) (Profile.Naive.peak q)
      | 2 ->
          let start = Rng.int rng width in
          let len = Rng.int rng (width - start + 1) in
          let a = Profile.peak_in p ~start ~len in
          let b = Profile.Naive.peak_in q ~start ~len in
          if a <> b then
            Alcotest.failf "instance %d op %d: peak_in [%d,%d) %d <> naive %d" i
              op start (start + len) a b
      | _ ->
          let x = Rng.int rng width in
          if Profile.load p x <> Profile.Naive.load q x then
            Alcotest.failf "instance %d op %d: load %d differs" i op x
    done;
    if Profile.to_array p <> Profile.Naive.to_array q then
      Alcotest.failf "instance %d: final arrays differ" i
  done

let of_starts_differential () =
  for i = 1 to 20 do
    let rng = Rng.create (17_000 + i) in
    let width = 4 + Rng.int rng 40 in
    let inst =
      Dsp_instance.Generators.uniform rng ~n:(5 + Rng.int rng 30) ~width
        ~max_w:(min 6 width) ~max_h:9
    in
    let starts =
      Array.map
        (fun (it : Item.t) -> Rng.int rng (inst.Instance.width - it.Item.w + 1))
        inst.Instance.items
    in
    let p = Profile.of_starts inst starts in
    let q = Profile.Naive.of_starts inst starts in
    if Profile.to_array p <> Profile.Naive.to_array q then
      Alcotest.failf "of_starts instance %d: arrays differ" i
  done

(* ---- kernel queries vs linear scans ---- *)

(* Random nonneg load arrays like the placement algorithms produce,
   plus occasional negative adds to stress the general case. *)
let loads_arb =
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "width=%d ops=%s" w
        (String.concat ";"
           (List.map (fun (s, l, h) -> Printf.sprintf "(%d,%d,%d)" s l h) ops)))
    QCheck.Gen.(
      let* width = int_range 1 50 in
      let* n = int_range 0 25 in
      let* ops =
        list_repeat n
          (let* s = int_range 0 (width - 1) in
           let* l = int_range 0 (width - s) in
           let* h = int_range (-3) 9 in
           return (s, l, h))
      in
      return (width, ops))

(* The segtree-backed profile and the naive reference after [ops]. *)
let profiles width ops =
  let p = Profile.create width and q = Profile.Naive.create width in
  List.iter
    (fun (s, l, h) ->
      Profile.add p ~start:s ~len:l ~height:h;
      Profile.Naive.add q ~start:s ~len:l ~height:h)
    ops;
  (p, q)

let scan_first_fit a ~from ~len ~height ~limit =
  let width = Array.length a in
  let rec go s =
    if s + len > width then None
    else if Helpers.window_max a s len + height <= limit then Some s
    else go (s + 1)
  in
  if len < 1 || len > width then None else go (max 0 from)

(* Leftmost start minimizing the window maximum, with that maximum. *)
let scan_best_start a ~len =
  let width = Array.length a in
  if len < 1 || len > width then None
  else begin
    let best = ref (-1) and best_peak = ref max_int in
    for s = 0 to width - len do
      let m = Helpers.window_max a s len in
      if m < !best_peak then begin
        best_peak := m;
        best := s
      end
    done;
    Some (!best, !best_peak)
  end

(* Rightmost column of [lo, hi) strictly above [thr], or -1. *)
let scan_last_above a ~lo ~hi thr =
  let r = ref (-1) in
  for x = lo to hi - 1 do
    if a.(x) > thr then r := x
  done;
  !r

let query_arb =
  QCheck.make
    ~print:(fun ((w, ops), (from, len, height, limit)) ->
      Printf.sprintf "width=%d |ops|=%d from=%d len=%d h=%d limit=%d" w
        (List.length ops) from len height limit)
    QCheck.Gen.(
      let* (width, ops) = QCheck.gen loads_arb in
      let* from = int_range 0 width in
      let* len = int_range 1 (width + 1) in
      let* height = int_range 0 8 in
      let* limit = int_range 0 30 in
      return ((width, ops), (from, len, height, limit)))

(* ---- flat kernel vs linear scans ---- *)

(* One randomized stream drives the flat kernel and a plain load
   array; every query on the kernel's surface, including the sentinel
   variants the hot loops use, must match a linear scan of the array.
   Covers negative loads and thresholds, and empty ranges. *)
let flat_vs_scans_stream () =
  let instances = 24 and ops_per_instance = 800 in
  for i = 1 to instances do
    let rng = Rng.create (31_000 + i) in
    let width = Rng.int_in rng 1 150 in
    let t = Segtree.create width in
    let a = Array.make width 0 in
    for op = 1 to ops_per_instance do
      match Rng.int rng 6 with
      | 0 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let h = Rng.int_in rng (-5) 9 in
          Segtree.range_add t ~lo ~hi h;
          Helpers.add_loads a ~lo ~hi h
      | 1 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let x = Segtree.range_max t ~lo ~hi in
          let y = if lo >= hi then 0 else Helpers.window_max a lo (hi - lo) in
          if x <> y then
            Alcotest.failf "instance %d op %d: range_max [%d,%d) flat %d <> scan %d"
              i op lo hi x y
      | 2 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let thr = Rng.int_in rng (-10) 20 in
          if Segtree.find_last_above_i t ~lo ~hi thr <> scan_last_above a ~lo ~hi thr
          then Alcotest.failf "instance %d op %d: find_last_above_i differs" i op;
          (* The whole-strip leftmost form, on the same threshold. *)
          let first = ref (-1) in
          for x = width - 1 downto 0 do
            if a.(x) > thr then first := x
          done;
          if Segtree.first_above t thr <> !first then
            Alcotest.failf "instance %d op %d: first_above differs" i op
      | 3 ->
          let from = Rng.int rng (width + 1) in
          let len = 1 + Rng.int rng width in
          let height = Rng.int rng 8 in
          let limit = Rng.int_in rng (-5) 25 in
          let x = Segtree.first_fit_from t ~from ~len ~height ~limit in
          if x <> scan_first_fit a ~from ~len ~height ~limit then
            Alcotest.failf "instance %d op %d: first_fit_from differs" i op;
          if Segtree.first_fit_from_i t ~from ~len ~height ~limit
             <> Option.value x ~default:(-1)
          then Alcotest.failf "instance %d op %d: _i sentinel differs" i op
      | 4 ->
          let len = 1 + Rng.int rng (width + 1) in
          if Segtree.best_start t ~len <> scan_best_start a ~len then
            Alcotest.failf "instance %d op %d: best_start differs" i op
      | _ ->
          if Segtree.max_all t <> Helpers.window_max a 0 width then
            Alcotest.failf "instance %d op %d: max_all differs" i op
    done;
    if Segtree.to_array t <> a then
      Alcotest.failf "instance %d: final arrays differ" i
  done;
  (* The leaves past a width that is not a power of two hold 0: with
     every column under a negative threshold, none may answer. *)
  let t = Segtree.create 5 in
  Segtree.range_add t ~lo:0 ~hi:5 (-3);
  Alcotest.(check int) "first_above ignores the padding" (-1)
    (Segtree.first_above t (-2))

(* ---- add/remove inverses across kernels ---- *)

(* Range adds commute, so removing a set of placements in any order
   must return every kernel to its pre-placement state.  Drives the
   flat kernel, a plain load array, the segtree Profile, and the naive
   reference with the same stream; with every placement applied, the
   flat kernel must match the array. *)
let add_remove_inverse () =
  for i = 1 to 20 do
    let rng = Rng.create (51_000 + i) in
    let width = Rng.int_in rng 1 80 in
    let t = Segtree.create width and a = Array.make width 0 in
    let p = Profile.create width and q = Profile.Naive.create width in
    let n = Rng.int_in rng 1 40 in
    let ops =
      Array.init n (fun _ ->
          let s = Rng.int rng width in
          let l = Rng.int rng (width - s + 1) in
          let h = Rng.int_in rng 0 9 in
          (s, l, h))
    in
    let apply sign (s, l, h) =
      Segtree.range_add t ~lo:s ~hi:(s + l) (sign * h);
      Helpers.add_loads a ~lo:s ~hi:(s + l) (sign * h);
      Profile.add p ~start:s ~len:l ~height:(sign * h);
      Profile.Naive.add q ~start:s ~len:l ~height:(sign * h)
    in
    Array.iter (apply 1) ops;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: flat matches the placed loads" i)
      (Array.to_list a)
      (Array.to_list (Segtree.to_array t));
    Rng.shuffle rng ops;
    Array.iter (apply (-1)) ops;
    let zeros = Array.to_list (Array.make width 0) in
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: flat cancels" i)
      zeros
      (Array.to_list (Segtree.to_array t));
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: profile cancels" i)
      zeros
      (Array.to_list (Profile.to_array p));
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: naive cancels" i)
      zeros
      (Array.to_list (Profile.Naive.to_array q));
    Alcotest.(check int)
      (Printf.sprintf "instance %d: peak back to zero" i)
      0 (Profile.peak p)
  done

(* Item-level inverse: add_item / remove_item on a non-empty base
   state restores the exact base profile, removals in shuffled
   order. *)
let item_add_remove_inverse () =
  for i = 1 to 20 do
    let rng = Rng.create (53_000 + i) in
    let width = Rng.int_in rng 2 60 in
    let p = Profile.create width in
    for _ = 1 to Rng.int rng 10 do
      let s = Rng.int rng width in
      let l = Rng.int rng (width - s + 1) in
      Profile.add p ~start:s ~len:l ~height:(Rng.int rng 6)
    done;
    let base = Array.copy (Profile.to_array p) in
    let items =
      Array.init
        (Rng.int_in rng 1 25)
        (fun id ->
          let w = Rng.int_in rng 1 width in
          let it = Item.make ~id ~w ~h:(Rng.int_in rng 1 9) in
          (it, Rng.int rng (width - w + 1)))
    in
    Array.iter (fun (it, s) -> Profile.add_item p it ~start:s) items;
    Rng.shuffle rng items;
    Array.iter (fun (it, s) -> Profile.remove_item p it ~start:s) items;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: items cancel over base" i)
      (Array.to_list base)
      (Array.to_list (Profile.to_array p))
  done

(* ---- int-boundary and overflow-guard cases ---- *)

(* The kernel's O(1) root guard: a positive range_add that would push
   the running maximum past max_int raises Xutil.Overflow and leaves
   further behaviour to the caller.  A plain load array receives the
   same accepted adds as the reference state. *)
let overflow_guard_cases () =
  let huge = max_int - 10 in
  let raises f =
    match f () with
    | () -> false
    | exception Dsp_util.Xutil.Overflow -> true
  in
  let t = Segtree.create 8 in
  let a = Array.init 8 (fun x -> if x >= 2 && x < 6 then huge else 0) in
  Segtree.range_add t ~lo:2 ~hi:6 huge;
  Alcotest.(check int) "flat carries the near-max value" huge (Segtree.get t 3);
  Alcotest.(check bool) "flat guard trips" true
    (raises (fun () -> Segtree.range_add t ~lo:0 ~hi:8 100));
  (* A trip must not corrupt the structure: the guard fires before any
     cell is touched. *)
  Alcotest.(check int) "flat intact after trip" huge (Segtree.get t 3);
  Alcotest.(check (list int))
    "flat still matches the loads after trip" (Array.to_list a)
    (Array.to_list (Segtree.to_array t));
  (* Negative adds cannot raise the maximum, so they pass the guard
     even at the boundary. *)
  Segtree.range_add t ~lo:0 ~hi:8 (-5);
  Alcotest.(check int) "negative add applies" (huge - 5) (Segtree.get t 3);
  (* Saturating threshold: limit = max_int with a positive height must
     not wrap into rejecting everything. *)
  Alcotest.(check (option int))
    "max_int budget admits start 0" (Some 0)
    (Segtree.first_fit_from t ~from:0 ~len:8 ~height:3 ~limit:max_int);
  Alcotest.(check int)
    "min_int threshold finds the last column" 7
    (Segtree.find_last_above_i t ~lo:0 ~hi:8 min_int)

(* ---- copy interleaved with best_start ---- *)

(* [copy] carries the difference array over and gives the fork its own
   run scratch.  Interleave best_start, copies, and post-copy updates
   on both sides of the fork to pin that neither side sees the
   other. *)
let copy_best_start_interleaving () =
  let w = 97 in
  let t = Segtree.create w in
  let reference = Array.make w 0 in
  let add t lo hi v = Segtree.range_add t ~lo ~hi v in
  add t 10 40 5;
  add t 30 90 2;
  (* fill the run scratch before the fork *)
  ignore (Segtree.best_start t ~len:12);
  add t 0 20 7;
  let c = Segtree.copy t in
  Array.iteri
    (fun i _ ->
      reference.(i) <-
        (if i >= 10 && i < 40 then 5 else 0)
        + (if i >= 30 && i < 90 then 2 else 0)
        + if i < 20 then 7 else 0)
    reference;
  Alcotest.(check (list int))
    "copy flattens to the source profile" (Array.to_list reference)
    (Array.to_list (Segtree.to_array c));
  (* diverge both sides after the fork; neither may see the other *)
  add t 50 60 11;
  add c 80 97 3;
  let expect_t = Array.mapi (fun i v -> if i >= 50 && i < 60 then v + 11 else v) reference in
  let expect_c = Array.mapi (fun i v -> if i >= 80 then v + 3 else v) reference in
  Alcotest.(check (list int))
    "source sees only its own update" (Array.to_list expect_t)
    (Array.to_list (Segtree.to_array t));
  Alcotest.(check (list int))
    "copy sees only its own update" (Array.to_list expect_c)
    (Array.to_list (Segtree.to_array c));
  Alcotest.(check (option (pair int int)))
    "best_start agrees with a linear scan after the fork"
    (scan_best_start expect_c ~len:9)
    (Segtree.best_start c ~len:9)

(* ---- runs that merge and split ---- *)

(* best_start reads the profile's runs from the difference array's
   bitmap of nonzero entries, 32 columns to a word, and to_array sums
   the differences.  Tile a span with abutting pieces of one height,
   which merge into one run, then remove a piece, which splits it
   again, and re-add the piece, which merges it back over the stale
   bits the removal left — on widths around the word boundaries.  Then edit the end columns 0 and
   n-1, step the profile at every column in turn (each bit of each
   word), and reset and update afresh.  After every step, best_start
   for every length and to_array must match scans of a plain array. *)
let runs_merge_and_split () =
  List.iter
    (fun width ->
      let rng = Rng.create (71_000 + width) in
      let t = Segtree.create width and a = Array.make width 0 in
      let add lo hi h =
        Segtree.range_add t ~lo ~hi h;
        Helpers.add_loads a ~lo ~hi h
      in
      let check ctx =
        if Segtree.to_array t <> a then
          Alcotest.failf "width %d, %s: to_array differs" width ctx;
        for len = 1 to width do
          if Segtree.best_start t ~len <> scan_best_start a ~len then
            Alcotest.failf "width %d, %s: best_start ~len:%d differs" width ctx len
        done
      in
      check "empty";
      for round = 1 to 30 do
        let lo = Rng.int rng width in
        let hi = lo + 1 + Rng.int rng (width - lo) in
        let h = Rng.int_in rng 1 4 in
        let pieces = ref [] and x = ref lo in
        while !x < hi do
          let y = min hi (!x + 1 + Rng.int rng 4) in
          add !x y h;
          pieces := (!x, y) :: !pieces;
          x := y
        done;
        check (Printf.sprintf "round %d merged" round);
        let p, q = List.nth !pieces (Rng.int rng (List.length !pieces)) in
        add p q (-h);
        check (Printf.sprintf "round %d split" round);
        add p q h;
        check (Printf.sprintf "round %d re-merged" round);
        if Rng.int rng 2 = 0 then begin
          add p q (-h);
          check (Printf.sprintf "round %d split kept" round)
        end
      done;
      add 0 1 2;
      check "column 0 raised";
      add (width - 1) width 3;
      check "column n-1 raised";
      add 0 width (-1);
      check "whole strip lowered";
      add 0 1 (-2);
      add (width - 1) width (-3);
      check "ends restored";
      for x = 1 to width - 1 do
        Segtree.reset t;
        if Segtree.best_start t ~len:1 <> Some (0, 0) then
          Alcotest.failf "width %d: best_start after reset" width;
        Segtree.range_add t ~lo:0 ~hi:x 1;
        if Segtree.best_start t ~len:1 <> Some (x, 0) then
          Alcotest.failf "width %d: step at column %d missed" width x
      done;
      Segtree.reset t;
      Array.fill a 0 width 0;
      check "reset";
      add (width / 2) width 2;
      add 0 (width - (width / 3)) 1;
      check "fresh updates after reset")
    [ 1; 7; 9; 31; 32; 33; 63; 64; 65; 96; 97 ]

let suite =
  [
    Alcotest.test_case "profile ops match naive (24 instances x 1200 ops)" `Quick
      differential_stream;
    Alcotest.test_case "flat matches linear scans (24 instances x 800 ops)"
      `Quick flat_vs_scans_stream;
    Alcotest.test_case "add/remove inverses across kernels (20 instances)"
      `Quick add_remove_inverse;
    Alcotest.test_case "item add/remove inverse over a base profile" `Quick
      item_add_remove_inverse;
    Alcotest.test_case "overflow guards and int-boundary thresholds" `Quick
      overflow_guard_cases;
    Alcotest.test_case "copy interleaved with best_start" `Quick
      copy_best_start_interleaving;
    Alcotest.test_case "runs that merge and split (widths 1-97)" `Quick
      runs_merge_and_split;
    Alcotest.test_case "of_starts matches naive (20 instances)" `Quick
      of_starts_differential;
    Helpers.qtest ~count:300 "first_fit_from matches linear scan" query_arb
      (fun ((width, ops), (from, len, height, limit)) ->
        let t, a = Helpers.build width ops in
        Segtree.first_fit_from t ~from ~len ~height ~limit
        = scan_first_fit a ~from ~len ~height ~limit);
    Helpers.qtest ~count:300 "profile first_fit_start matches naive scan"
      query_arb
      (fun ((width, ops), (_, len, height, budget)) ->
        (* Restrict to nonnegative loads: Profile.peak_in clamps at 0,
           which only coincides with the raw window max when loads are
           nonnegative (as in every placement state). *)
        let nonneg = List.map (fun (s, l, h) -> (s, l, abs h)) ops in
        let p, q = profiles width nonneg in
        let reference =
          let rec go s =
            if len < 1 || s + len > width then None
            else if Profile.Naive.peak_in q ~start:s ~len + height <= budget then
              Some s
            else go (s + 1)
          in
          go 0
        in
        Profile.first_fit_start p ~len ~height ~budget = reference);
    Helpers.qtest ~count:300 "profile peak_span is the outermost peaks"
      loads_arb
      (fun (width, ops) ->
        let p, q = profiles width ops in
        (* Naive.peak clamps at 0, so a zero peak means no column
           carries positive load and the reference stays None. *)
        let pk = Profile.Naive.peak q and span = ref None in
        Array.iteri
          (fun x v ->
            if pk > 0 && v = pk then
              span := Some (match !span with None -> (x, x) | Some (f, _) -> (f, x)))
          (Profile.Naive.to_array q);
        Profile.peak_span p = !span);
    Helpers.qtest ~count:300 "best_start matches argmin of window maxima"
      query_arb
      (fun ((width, ops), (_, len, _, _)) ->
        let t, a = Helpers.build width ops in
        Segtree.best_start t ~len = scan_best_start a ~len);
    Helpers.qtest ~count:300 "find_last_above matches linear scan" query_arb
      (fun ((width, ops), (from, len, _, limit)) ->
        let t, a = Helpers.build width ops in
        let lo = min from (width - 1) and hi = min width (from + len) in
        lo > hi
        || Segtree.find_last_above_i t ~lo ~hi limit
           = scan_last_above a ~lo ~hi limit);
    Helpers.qtest ~count:200 "segtree to_array matches accumulated ops" loads_arb
      (fun (width, ops) ->
        let t, a = Helpers.build width ops in
        Segtree.to_array t = a);
    Helpers.qtest ~count:200 "segtree copy is independent" loads_arb
      (fun (width, ops) ->
        let t, a = Helpers.build width ops in
        let c = Segtree.copy t in
        Segtree.range_add t ~lo:0 ~hi:width 5;
        Segtree.to_array c = a);
  ]
