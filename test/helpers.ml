(* Shared generators and assertions for the test suites. *)

open Dsp_core

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* [build width ops] applies each (start, len, height) op to a fresh
   segment tree and, through the kernel's linear reference
   {!Dsp_bench.Naive}, to a plain load array. *)
let build width ops =
  let t = Segtree.create width in
  let a = Array.make width 0 in
  List.iter
    (fun (s, l, h) ->
      Segtree.range_add t ~lo:s ~hi:(s + l) h;
      Dsp_bench.Naive.add a ~lo:s ~hi:(s + l) h)
    ops;
  (t, a)

(* Runs [f] [calls] times, each from an empty minor heap, and fails if
   the calls ran more minor collections than the words they allocated
   fill, plus two.  A collection the runtime forces on every call (an
   [Array.make] of more than 256 words seeded with a minor-heap block)
   counts once or more per call.  The collections that pace a long
   run, a full minor heap or a full remembered set (minor_heap_size/8
   old-to-young pointers), cannot fall inside one call that starts
   from an empty heap and stores a few hundred pointers. *)
let check_no_forced_minor ?(calls = 200) name f =
  let collections = ref 0 and words = ref 0. in
  for _ = 1 to calls do
    Gc.minor ();
    let c0 = (Gc.quick_stat ()).Gc.minor_collections and w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    collections := !collections + (Gc.quick_stat ()).Gc.minor_collections - c0;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  let due = !words /. float_of_int (Gc.get ()).Gc.minor_heap_size in
  if float_of_int !collections > due +. 2. then
    Alcotest.failf "%s: %d minor collections in %d calls, %.1f due from %.0f words"
      name !collections calls due !words

(* QCheck generator for a small DSP instance: width in [2, max_width],
   items with dims bounded by the width / max_h. *)
let instance_gen ?(max_width = 16) ?(max_n = 10) ?(max_h = 8) () =
  let open QCheck.Gen in
  let* width = int_range 2 max_width in
  let* n = int_range 1 max_n in
  let* dims =
    list_repeat n (pair (int_range 1 width) (int_range 1 max_h))
  in
  return (Instance.of_dims ~width dims)

let instance_arb ?max_width ?max_n ?max_h () =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp i)
    (instance_gen ?max_width ?max_n ?max_h ())

(* Small instances where the exact solver is fast. *)
let tiny_instance_arb () = instance_arb ~max_width:8 ~max_n:6 ~max_h:5 ()

let pts_gen ?(max_m = 6) ?(max_n = 10) ?(max_p = 8) () =
  let open QCheck.Gen in
  let* machines = int_range 1 max_m in
  let* n = int_range 1 max_n in
  let* dims = list_repeat n (pair (int_range 1 max_p) (int_range 1 machines)) in
  return (Pts.Inst.of_dims ~machines dims)

let pts_arb ?max_m ?max_n ?max_p () =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Pts.Inst.pp i)
    (pts_gen ?max_m ?max_n ?max_p ())

(* A random valid schedule: place jobs with the list scheduler after a
   random shuffle of priorities. *)
let schedule_of_pts seed inst =
  let _ = seed in
  Dsp_pts.List_scheduling.schedule ~order:Dsp_pts.List_scheduling.Input inst

let check_packing_valid name pk =
  match Packing.validate pk with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid packing: %s" name e

let check_schedule_valid name sched =
  match Pts.Schedule.validate sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" name e
