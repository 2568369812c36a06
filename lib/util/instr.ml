(* Counters are domain-safe without hot-path synchronization: each
   counter owns a slot index, and every domain keeps its own slot
   array in domain-local storage.  A bump touches only the calling
   domain's cell (one DLS load, one bounds check, one unboxed add);
   [value]/[snapshot] aggregate by summing the slot across every
   domain's array.  The arrays of exited domains stay registered (the
   global list keeps them alive), so totals never lose work done by a
   pool worker that has since terminated.

   Aggregates read concurrently with running workers are racy-but-
   monotone approximations; they are exact once the workers have been
   joined (the join is the synchronization point).  Everything the
   engine does — snapshot before a solve, snapshot after the solve and
   any pool joins — reads at quiescence. *)

(* The canonical counter-site vocabulary.  Every counter the library
   tree creates must take its name from this table — `dsp_lint` rule
   R4 enforces both directions (no literal outside the table, no dead
   table entry), and [Fault.parse_spec] rejects injection specs naming
   sites that are not listed here.  Tests may still mint ad-hoc
   "test.*" counters through [counter]; only string literals inside
   lib/ bin/ bench/ are policed. *)
module Sites = struct
  (* Segment-tree kernel entry points (lib/core/segtree.ml). *)
  let segtree_range_add = "segtree.range_add"
  let segtree_range_max = "segtree.range_max"
  let segtree_first_fit = "segtree.first_fit"
  let segtree_find_last_above = "segtree.find_last_above"
  let segtree_first_above = "segtree.first_above"
  let segtree_best_start = "segtree.best_start"

  (* Placement probes of the budgeted fitters (lib/dsp/budget_fit.ml). *)
  let budget_fit_first_fit_probes = "budget_fit.first_fit_probes"
  let budget_fit_best_fit_probes = "budget_fit.best_fit_probes"

  (* Search nodes: DSP branch-and-bound, classical strip packing,
     and the 3-Partition reduction (lib/exact). *)
  let bb_nodes = "bb.nodes"
  let sp_bb_nodes = "sp_bb.nodes"
  let three_partition_nodes = "three_partition.nodes"

  (* Work-stealing scheduler of the parallel B&B (lib/exact/dsp_bb.ml):
     successful steals and failed steal attempts (empty or contended
     victims).  Their ratio is the load-balance signal the parallel
     bench experiment records. *)
  let bb_steals = "bb.steals"
  let bb_steal_fails = "bb.steal_fails"

  (* Tableau pivots, both simplex phases (lib/lp/simplex.ml). *)
  let simplex_pivots = "simplex.pivots"

  (* The (5/4+eps) algorithm: binary-search guesses on H' and
     per-target packing attempts (lib/dsp/approx54.ml). *)
  let approx54_guesses = "approx54.guesses"
  let approx54_attempts = "approx54.attempts"

  (* Incremental session events and bounded-migration work
     (lib/engine/session.ml). *)
  let session_arrivals = "session.arrivals"
  let session_departures = "session.departures"
  let session_migrations = "session.migrations"
  let session_migration_trials = "session.migration_trials"

  (* Entries walked by the migration repair scan, one add per scan:
     the scan's cost in live entries, flat at a fixed live set. *)
  let session_scan_entries = "session.scan_entries"

  (* Write-ahead-log IO (lib/serve/wal.ml).  These double as the
     IO-layer fault points: a Raise at [wal_fsyncs] models a failed
     fsync, Corrupt at [wal_appends] is corrupt-on-write, Short at
     [wal_appends] is a crash mid-append. *)
  let wal_appends = "wal.appends"
  let wal_fsyncs = "wal.fsyncs"
  let wal_records_recovered = "wal.records_recovered"
  let wal_compactions = "wal.compactions"

  (* Service daemon request handling (lib/serve/server.ml). *)
  let serve_requests = "serve.requests"
  let serve_errors = "serve.errors"
  let serve_shed = "serve.shed"
  let serve_solves = "serve.solves"

  let all =
    [
      segtree_range_add;
      segtree_range_max;
      segtree_first_fit;
      segtree_find_last_above;
      segtree_first_above;
      segtree_best_start;
      budget_fit_first_fit_probes;
      budget_fit_best_fit_probes;
      bb_nodes;
      bb_steals;
      bb_steal_fails;
      sp_bb_nodes;
      three_partition_nodes;
      simplex_pivots;
      approx54_guesses;
      approx54_attempts;
      session_arrivals;
      session_departures;
      session_migrations;
      session_migration_trials;
      session_scan_entries;
      wal_appends;
      wal_fsyncs;
      wal_records_recovered;
      wal_compactions;
      serve_requests;
      serve_errors;
      serve_shed;
      serve_solves;
    ]

  let mem name = List.mem name all
end

type counter = { cname : string; key : int }

let mutex = Mutex.create ()

(* Registries are tiny (tens of entries, one array per domain) and
   every access below locks [mutex], so the bare containers are safe
   under domain sharing. *)
let by_name : (string, counter) Hashtbl.t = Hashtbl.create 32 (* lint: local *)
let registered : counter list ref = ref [] (* lint: local *)
let next_key = ref 0 (* lint: local *)
let domain_cells : int array ref list ref = ref [] (* lint: local *)

let counter name =
  Mutex.lock mutex;
  let c =
    match Hashtbl.find_opt by_name name with
    | Some c -> c
    | None ->
        let c = { cname = name; key = !next_key } in
        incr next_key;
        Hashtbl.add by_name name c;
        registered := c :: !registered;
        c
  in
  Mutex.unlock mutex;
  c

(* This domain's slot array, grown (by replacement, old values
   blitted) when a counter created later than the array is bumped. *)
let slots : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let box = ref (Array.make 64 0) in
      Mutex.lock mutex;
      domain_cells := box :: !domain_cells;
      Mutex.unlock mutex;
      box)

let cells key =
  let box = Domain.DLS.get slots in
  let a = !box in
  if key < Array.length a then a
  else begin
    (* one-time growth when a counter key outgrows the slot array;
       after warm-up every bump takes the `key < length` fast path *)
    (* lint: ok R7 — warm-up-only growth, not a steady-state alloc *)
    let b = Array.make (max (key + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    box := b;
    b
  end

(* Per-hit hook: the fault-injection harness (Fault) registers itself
   here, turning every counted site into a fault point.  Disarmed (the
   overwhelmingly common case) the cost is one load and branch.  The
   hook is installed before workers start and removed after they are
   joined; the atomic makes the handoff well-defined either way. *)
let on_hit : (string -> unit) option Atomic.t = Atomic.make None
let set_on_hit f = Atomic.set on_hit f

let hit c = match Atomic.get on_hit with None -> () | Some f -> f c.cname

let bump c =
  let a = cells c.key in
  a.(c.key) <- a.(c.key) + 1;
  hit c

let add c n =
  if n < 0 then invalid_arg "Instr.add: counters are monotone";
  let a = cells c.key in
  a.(c.key) <- a.(c.key) + n;
  hit c

let sum_slot cells key =
  List.fold_left
    (fun acc box ->
      let a = !box in
      acc + if key < Array.length a then a.(key) else 0)
    0 cells

type snapshot = (string * int) list

let snapshot () =
  Mutex.lock mutex;
  let counters = !registered and cells = !domain_cells in
  Mutex.unlock mutex;
  List.map (fun c -> (c.cname, sum_slot cells c.key)) counters
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let delta ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v > v0 then Some (name, v - v0) else None)
    after
