(* kernel: ablation of the segment-tree packing kernel against the
   flat-array reference.

   naive — Profile.Naive, O(W * w) window scans;
   flat  — the default Segtree, the iterative zero-allocation
           Bigarray kernel.

   Best-fit decreasing and budgeted first fit compare naive against
   the production path (Budget_fit on the flat kernel).  The "storm"
   rows then drive the flat kernel directly through a placement-churn
   loop (first-fit probe, best-start placement, window query,
   unplace) — the BFD / branch-and-bound hot path — serially, and
   concurrently on min(4, recommended) domains with one tree per
   domain, mirroring the racing-chain / parallel-B&B execution layer.
   The same loop run once over Profile.Naive checks the storm's
   answers (see [storm_naive]).  Every timing carries a dsp-bench/4
   [gc] sub-record (for parallel rows: the measuring domain only), and
   the flat kernel's steady-state allocation is measured directly
   (words per op over a long mixed-op run).  The CI perf gate
   (bench/gate.ml) reads the [*_seconds] timings, [flat_alloc_zero]
   and every [*agree] flag; naive and kernel place identically, so
   peaks and checksums must agree exactly.

   DSP_BENCH_REPS=k repeats each timing and keeps the fastest run. *)

open Dsp_core
module Rng = Dsp_util.Rng

(* The placement-churn storm on the flat kernel.  The checksum folds
   every query result so the compiler cannot drop work, and doubles as
   the agreement check against [storm_naive]. *)
let storm_flat t (items : (int * int) array) starts ~limit ~rounds =
  let acc = ref 0 in
  let n = Array.length items in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      let iw, ih = items.(i) in
      (* first-fit probe (B&B feasibility check), then the BFD
         placement: best_start picks the min-peak window. *)
      let ff = Segtree.first_fit_from_i t ~from:0 ~len:iw ~height:ih ~limit in
      let s, pk =
        match Segtree.best_start t ~len:iw with
        | Some (s, pk) -> (s, pk)
        | None -> (0, 0)
      in
      Segtree.range_add t ~lo:s ~hi:(s + iw) ih;
      acc := !acc + ff + s + pk + Segtree.range_max t ~lo:s ~hi:(s + iw);
      starts.(i) <- s
    done;
    acc := !acc + Segtree.max_all t;
    for i = n - 1 downto 0 do
      let iw, ih = items.(i) in
      Segtree.range_add t ~lo:starts.(i) ~hi:(starts.(i) + iw) (-ih)
    done
  done;
  !acc

(* The naive placement scans over a strip of width [w]: the first
   start (s+1 stepping) whose window peak plus [height] stays within
   [limit], or -1; and the leftmost start minimizing the window peak,
   with that peak. *)
let naive_first_fit p w ~len ~height ~limit =
  let rec go s =
    if s > w - len then -1
    else if Profile.Naive.peak_in p ~start:s ~len + height <= limit then s
    else go (s + 1)
  in
  go 0

let naive_best_start p w ~len =
  let best = ref 0 and best_peak = ref max_int in
  for s = 0 to w - len do
    let pk = Profile.Naive.peak_in p ~start:s ~len in
    if pk < !best_peak then begin
      best_peak := pk;
      best := s
    end
  done;
  (!best, !best_peak)

(* One round of the same storm over Profile.Naive.  Loads stay
   nonnegative, so the naive peaks (clamped at 0) equal the kernel's
   raw window maxima.  Every flat round starts and ends on an empty
   strip, so the flat checksum over [rounds] rounds must be exactly
   [rounds] times this one. *)
let storm_naive w (items : (int * int) array) ~limit =
  let p = Profile.Naive.create w in
  let acc = ref 0 in
  Array.iter
    (fun (iw, ih) ->
      let ff = naive_first_fit p w ~len:iw ~height:ih ~limit in
      let s, pk = naive_best_start p w ~len:iw in
      Profile.Naive.add p ~start:s ~len:iw ~height:ih;
      acc := !acc + ff + s + pk + Profile.Naive.peak_in p ~start:s ~len:iw)
    items;
  !acc + Profile.Naive.peak p

(* Run [f] on [domains] domains at once (the main domain is one of
   them) and fold the checksums.  Each thunk builds its own tree —
   domains share nothing but the read-only item array — so this is
   the racing-chain shape: independent solvers, shared GC. *)
let on_domains ~domains f =
  let others = Array.init (domains - 1) (fun _ -> Domain.spawn f) in
  let r0 = f () in
  Array.fold_left (fun acc d -> acc + Domain.join d) r0 others

(* Steady-state allocation probe: after warm-up, a long run of mixed
   kernel ops (update, query, both placement searches) must not move
   the minor-heap counter.  Parameters are precomputed so the loop
   itself is allocation-free; the budget threshold is the words-per-op
   the CI gate enforces (< 0.01 — a handful of boxed floats from the
   Gc counter reads themselves, amortized over 100k ops). *)
let alloc_probe ~experiment w =
  let t = Segtree.create w in
  let rng = Rng.create (Common.seed_for 4242) in
  let m = 256 in
  let los = Array.init m (fun _ -> Rng.int rng w) in
  let lens = Array.init m (fun i -> 1 + Rng.int rng (w - los.(i))) in
  let hts = Array.init m (fun _ -> 1 + Rng.int rng 40) in
  for i = 0 to m - 1 do
    (* background load, and one full warm-up pass of every op *)
    Segtree.range_add t ~lo:los.(i) ~hi:(los.(i) + lens.(i)) hts.(i);
    ignore (Segtree.range_max t ~lo:los.(i) ~hi:(los.(i) + lens.(i)));
    ignore (Segtree.first_fit_from_i t ~from:0 ~len:lens.(i) ~height:hts.(i) ~limit:5000);
    ignore (Segtree.find_last_above_i t ~lo:los.(i) ~hi:(los.(i) + lens.(i)) 20)
  done;
  let ops = 100_000 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    let j = i land (m - 1) in
    let lo = los.(j) and len = lens.(j) and h = hts.(j) in
    Segtree.range_add t ~lo ~hi:(lo + len) h;
    sink := !sink + Segtree.range_max t ~lo ~hi:(lo + len);
    sink := !sink + Segtree.first_fit_from_i t ~from:0 ~len ~height:h ~limit:5000;
    sink := !sink + Segtree.find_last_above_i t ~lo ~hi:(lo + len) 20;
    Segtree.range_add t ~lo ~hi:(lo + len) (-h)
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 4 kernel calls per iteration is the denominator the gate uses. *)
  let per_op = dw /. float_of_int (4 * ops) in
  Printf.printf
    "alloc probe (W=%d): %.0f minor words over %d ops = %.6f words/op%s\n" w dw
    (4 * ops) per_op
    (if per_op < 0.01 then " (zero steady-state allocation)" else " !!");
  ignore !sink;
  Bench_json.record ~experiment "flat_alloc_words_per_op"
    (Bench_json.Float per_op);
  Bench_json.record ~experiment "flat_alloc_zero"
    (Bench_json.Int (if per_op < 0.01 then 1 else 0))

let kernel_at ~experiment widths () =
  Common.section "kernel"
    "segment-tree packing kernel: naive vs flat (same placements)";
  Printf.printf "%-8s %6s | %11s %11s %8s | %11s %11s %8s | %11s %11s | %6s\n"
    "W" "n" "bfd-naive" "bfd-kernel" "speedup" "ff-naive" "ff-kernel" "speedup"
    "storm-flat" "par-storm" "peak";
  List.iter
    (fun w ->
      let n = max 40 (w / 16) in
      let rng = Rng.create (Common.seed_for (555 + w)) in
      let inst =
        Dsp_instance.Generators.uniform rng ~n ~width:w ~max_w:(max 2 (w / 10))
          ~max_h:50
      in
      let order =
        Array.to_list inst.Instance.items |> List.sort Item.compare_by_height_desc
      in
      (* Best-fit decreasing, naive reference: full window scan per start. *)
      let bfd_naive () =
        let p = Profile.Naive.create w in
        List.iter
          (fun (it : Item.t) ->
            let s, _ = naive_best_start p w ~len:it.Item.w in
            Profile.Naive.add_item p it ~start:s)
          order;
        Profile.Naive.peak p
      in
      let bfd_kernel () =
        let st = Dsp_algo.Budget_fit.create inst in
        List.iter
          (fun it -> ignore (Dsp_algo.Budget_fit.best_fit st it ~budget:max_int))
          order;
        Dsp_algo.Budget_fit.peak st
      in
      let kernel_peak, bfd_kernel_s, bfd_kernel_gc = Common.time_reps bfd_kernel in
      let naive_peak, bfd_naive_s, bfd_naive_gc = Common.time_reps bfd_naive in
      (* First fit under a finite budget (the greedy peak), naive s+1
         stepping vs kernel skip-ahead; same budget, same order. *)
      let budget = kernel_peak in
      let ff_naive () =
        let p = Profile.Naive.create w in
        let placed = ref 0 in
        List.iter
          (fun (it : Item.t) ->
            let s =
              naive_first_fit p w ~len:it.Item.w ~height:it.Item.h
                ~limit:budget
            in
            if s >= 0 then begin
              Profile.Naive.add_item p it ~start:s;
              incr placed
            end)
          order;
        !placed
      in
      let ff_kernel () =
        let st = Dsp_algo.Budget_fit.create inst in
        let placed = ref 0 in
        List.iter
          (fun it -> if Dsp_algo.Budget_fit.first_fit st it ~budget then incr placed)
          order;
        !placed
      in
      let ff_kernel_placed, ff_kernel_s, ff_kernel_gc = Common.time_reps ff_kernel in
      let ff_naive_placed, ff_naive_s, ff_naive_gc = Common.time_reps ff_naive in
      (* The flat kernel on the placement-churn storm.  The per-item
         best_start makes a round O(n * W), so rounds scale inversely
         with that (capped for tiny smoke widths). *)
      let items =
        Array.of_list
          (List.map (fun (it : Item.t) -> (it.Item.w, it.Item.h)) order)
      in
      let n_items = Array.length items in
      let starts = Array.make n_items 0 in
      let rounds = min 256 (max 4 (8_000_000 / max 1 (n_items * w))) in
      let flat_tree = Segtree.create w in
      let flat_sum, flat_s, flat_gc =
        Common.time_reps (fun () ->
            storm_flat flat_tree items starts ~limit:budget ~rounds)
      in
      let naive_sum = storm_naive w items ~limit:budget in
      (* Same storm, one tree per domain.  Deterministic per domain, so
         the checksum is exactly [domains * serial checksum]. *)
      let domains = min 4 (Domain.recommended_domain_count ()) in
      let par_flat_sum, par_flat_s, par_flat_gc =
        Common.time_reps (fun () ->
            on_domains ~domains (fun () ->
                let t = Segtree.create w in
                let st = Array.make n_items 0 in
                storm_flat t items st ~limit:budget ~rounds))
      in
      let bfd_speedup = bfd_naive_s /. Float.max 1e-9 bfd_kernel_s in
      let ff_speedup = ff_naive_s /. Float.max 1e-9 ff_kernel_s in
      Printf.printf
        "%-8d %6d | %10.4fs %10.4fs %7.1fx | %10.4fs %10.4fs %7.1fx | %10.4fs \
         %10.4fs | %6d\n"
        w n bfd_naive_s bfd_kernel_s bfd_speedup ff_naive_s ff_kernel_s
        ff_speedup flat_s par_flat_s kernel_peak;
      Printf.printf "  storm: %d rounds; parallel storm on %d domains\n" rounds
        domains;
      if naive_peak <> kernel_peak then
        Printf.printf "  !! peak mismatch: naive=%d kernel=%d\n" naive_peak
          kernel_peak;
      if ff_naive_placed <> ff_kernel_placed then
        Printf.printf "  !! first-fit placement mismatch: naive=%d kernel=%d\n"
          ff_naive_placed ff_kernel_placed;
      if flat_sum <> rounds * naive_sum then
        Printf.printf
          "  !! storm checksum mismatch: flat=%d naive=%d x %d rounds\n"
          flat_sum naive_sum rounds;
      if par_flat_sum <> domains * flat_sum then
        Printf.printf
          "  !! parallel storm checksum mismatch: flat=%d (serial %d on %d \
           domains)\n"
          par_flat_sum flat_sum domains;
      let key fmt = Printf.sprintf "W%d.%s" w fmt in
      let rec_f k v = Bench_json.record ~experiment (key k) (Bench_json.Float v) in
      let rec_i k v = Bench_json.record ~experiment (key k) (Bench_json.Int v) in
      let rec_gc k gc = Common.record_gc ~experiment (key k) gc in
      rec_i "n" n;
      rec_f "bfd_naive_seconds" bfd_naive_s;
      rec_gc "bfd_naive_gc" bfd_naive_gc;
      rec_f "bfd_kernel_seconds" bfd_kernel_s;
      rec_gc "bfd_kernel_gc" bfd_kernel_gc;
      rec_f "bfd_speedup" bfd_speedup;
      rec_f "ff_naive_seconds" ff_naive_s;
      rec_gc "ff_naive_gc" ff_naive_gc;
      rec_f "ff_kernel_seconds" ff_kernel_s;
      rec_gc "ff_kernel_gc" ff_kernel_gc;
      rec_f "ff_speedup" ff_speedup;
      rec_f "storm_flat_seconds" flat_s;
      rec_gc "storm_flat_gc" flat_gc;
      rec_i "storm_domains" domains;
      rec_f "par_storm_flat_seconds" par_flat_s;
      rec_gc "par_storm_flat_gc" par_flat_gc;
      rec_i "storm_agree" (if flat_sum = rounds * naive_sum then 1 else 0);
      rec_i "par_storm_agree"
        (if par_flat_sum = domains * flat_sum then 1 else 0);
      rec_i "peak" kernel_peak;
      rec_i "peaks_agree" (if naive_peak = kernel_peak then 1 else 0))
    widths;
  alloc_probe ~experiment
    (List.fold_left max 1 widths)

let kernel () = kernel_at ~experiment:"kernel" [ 1000; 5000 ] ()
let kernel_smoke () = kernel_at ~experiment:"kernel-smoke" [ 200 ] ()
let experiments = [ ("kernel", kernel); ("kernel-smoke", kernel_smoke) ]
