open Dsp_core

(* Global node counter (Dsp_util.Instr): a solve's node count is the
   "bb.nodes" delta of its report.  The node cap is the caller's
   budget, checked by [expand] at every node. *)
let c_nodes = Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_nodes

(* Greedy best-fit by descending height: place each item at the start
   column minimizing the resulting window peak.  Upper bound for the
   binary search, and the incumbent seed of the parallel search. *)
let greedy_packing (inst : Instance.t) =
  let profile = Profile.create inst.Instance.width in
  let starts = Array.make (Instance.n_items inst) (-1) in
  let order =
    Array.to_list inst.Instance.items |> List.sort Item.compare_by_height_desc
  in
  List.iter
    (fun (it : Item.t) ->
      match Profile.best_start profile ~len:it.w with
      | Some (s, _) ->
          Profile.add_item profile it ~start:s;
          starts.(it.id) <- s
      | None -> invalid_arg "Dsp_bb.greedy_packing: item wider than strip")
    order;
  Packing.make inst starts

(* ----- the search ---------------------------------------------------- *)

let place loads starts (it : Item.t) s =
  Segtree.range_add loads ~lo:s ~hi:(s + it.w) it.h;
  starts.(it.id) <- s

let unplace loads starts (it : Item.t) s =
  Segtree.range_add loads ~lo:s ~hi:(s + it.w) (-it.h);
  starts.(it.id) <- -1

(* The one expansion routine, shared by [find] and the stealing
   worker: depth-first from the prefix [order.(0..k-1)] already placed
   in [loads]/[starts], over the canonical start vectors of [order]
   (the items in area-descending order).  The caller supplies
   - [visit k], its node accounting: it runs first at every node, may
     raise to abort, and answers whether to expand the node;
   - [bound ()], the peak limit, re-read before each candidate start;
   - [leaf starts], its action on a complete vector, answering [true]
     to stop the search (the vector then stays placed);
   - [hand_off k s], offered each child "order.(k) at s" at depth
     k + 1 <= [shallow], which may take it away (as a stealable unit)
     by answering [true]; otherwise the child is placed, searched
     inline and unplaced.
   Start enumeration jumps straight to the next feasible start with
   the kernel's first-fit descent, so infeasible gaps cost O(log W)
   and every feasible start is still visited in increasing order. *)
let expand ~budget ~visit ~bound ~leaf ~shallow ~hand_off order loads starts k
    =
  let n = Array.length order and width = Segtree.size loads in
  let rec go k =
    let open_ = visit k in
    Dsp_util.Budget.check_opt budget;
    if not open_ then false
    else if k = n then leaf starts
    else begin
      let (it : Item.t) = order.(k) in
      (* Mirror symmetry: the first item starts in the left half. *)
      let max_start = if k = 0 then (width - it.w) / 2 else width - it.w in
      (* Identical items in non-decreasing start order. *)
      let min_start =
        if k > 0 && order.(k - 1).Item.w = it.w && order.(k - 1).Item.h = it.h
        then starts.(order.(k - 1).Item.id)
        else 0
      in
      let rec try_start s =
        let s =
          Segtree.first_fit_from_i loads ~from:s ~len:it.w ~height:it.h
            ~limit:(bound ())
        in
        if s < 0 || s > max_start then false
        else if k < shallow && hand_off k s then try_start (s + 1)
        else begin
          place loads starts it s;
          if go (k + 1) then true
          else begin
            unplace loads starts it s;
            try_start (s + 1)
          end
        end
      in
      try_start min_start
    end
  in
  go k

let by_area_desc (inst : Instance.t) =
  let order = Array.copy inst.Instance.items in
  Array.sort Item.compare_by_area_desc order;
  order

(* The root's area check is the whole area prune (see dsp_bb.mli). *)
let find ?budget ~node ~leaf (inst : Instance.t) ~height =
  let width = inst.Instance.width in
  if
    Instance.total_area inst > height * width
    || Instance.max_height inst > height
  then None
  else begin
    let starts = Array.make (Instance.n_items inst) (-1) in
    if
      expand ~budget
        ~visit:(fun _ ->
          node ();
          true)
        ~bound:(fun () -> height)
        ~leaf ~shallow:0
        ~hand_off:(fun _ _ -> false)
        (by_area_desc inst) (Segtree.create width) starts 0
    then Some starts
    else None
  end

let count_node () = Dsp_util.Instr.bump c_nodes

let decide ?budget inst ~height =
  Option.map (Packing.make inst)
    (find ?budget ~node:count_node ~leaf:(fun _ -> true) inst ~height)

let solve ?budget inst =
  if Instance.n_items inst = 0 then Packing.make inst [||]
  else
    (* Bisect on the peak up to the greedy packing's, inclusive: the
       search is complete, so that height is decided feasible. *)
    Option.get
      (Optimum.below ~lo:(Instance.lower_bound inst)
         ~hi:(Packing.height (greedy_packing inst))
         (fun height -> decide ?budget inst ~height))

let optimal_height ?budget inst = Packing.height (solve ?budget inst)

(* ----- parallel search -------------------------------------------- *)

(* The parallel solver runs the serial search's expansion routine
   ([expand]) but swaps the binary search on the height for
   incumbent-driven minimization: the greedy packing seeds a shared
   atomic incumbent and every worker enumerates completions that beat
   the *current* incumbent ([limit = incumbent - 1], re-read at every
   node), publishing improvements through one mutex-guarded cell.
   Pruning against the global best means one worker's lucky find
   immediately tightens everyone else's search; on adversarial
   instances this makes the portfolio superlinear, on easy ones it
   degenerates to the serial node count.

   Scheduling: work-stealing over per-domain {!Dsp_util.Wsdeque}s of
   search-frontier units.  A unit is the flat int record
   [depth; start of order.(0); ...; start of order.(depth-1)] — a
   prefix of placements identifying one subtree.  The root's children
   (the routine's own root enumeration, mirror rule included) are
   dealt round-robin as depth-1 seed units; from there each worker
   pops its own deque LIFO (depth-first, cache-warm) and runs
   [expand] on it, whose hand-off pushes children at depth <=
   [split_depth] back as new units, while deeper ones are expanded
   inline with plain recursion.  An idle worker steals FIFO from a
   random victim, taking the victim's {e shallowest} — largest —
   subtree, which is what re-balances a skewed tree whose root has a
   single subtree.  A full deque never blocks: the child is expanded
   inline instead.

   Termination detection: [pending] counts units that exist (queued in
   any deque or being expanded), incremented {e before} each push and
   decremented only after the unit's expansion completes, so
   [pending = 0] proves no unit is queued, running, or still able to
   spawn children.  Idle workers spin (with budget polls and a short
   sleep backoff, so spinning domains don't starve the busy ones on
   few-core machines) until work appears, [pending] hits zero, or
   [stop] is set.

   Shared state and its discipline:
   - [incumbent : int Atomic.t] — read lock-free in the hot loop,
     written only under [best_m] (monotone decreasing);
   - [total_nodes : int Atomic.t] — the caller budget's node cap
     ({!Dsp_util.Budget.node_cap}) is counted here, across all
     workers, so k workers cannot multiply the budget by k; once it is
     spent the solve raises [Expired Nodes] after the join;
   - [stop : bool Atomic.t] — set on proven optimality (incumbent hit
     the lower bound), node exhaustion, or a worker dying; every
     worker polls it per node and unwinds with [Stop_search];
   - the deques' own top/bottom indices are Atomics inside
     {!Dsp_util.Wsdeque}; unit payloads are published by its SC
     ordering, never read unvalidated;
   - per-domain tallies ([dom_nodes], [dom_steals], ...) are written
     each by its owning worker only and read after the join;
   - wall-clock deadline and external cancellation ride each worker's
     [Budget.child] of the caller's budget. *)

exception Stop_search

type par_stats = {
  domains : int;
  nodes_per_domain : int array;
  steals : int;
  steal_fails : int;
  units : int;
}

let c_steals = Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_steals

let c_steal_fails =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_steal_fails

let no_stats ~domains =
  {
    domains;
    nodes_per_domain = Array.make (max domains 0) 0;
    steals = 0;
    steal_fails = 0;
    units = 0;
  }

let sum = Array.fold_left ( + ) 0

let resolve_jobs ~pool ~jobs =
  match pool with
  | Some p -> Dsp_util.Pool.size p
  | None -> (
      match jobs with
      | Some j when j >= 1 -> j
      | Some _ -> invalid_arg "Dsp_bb.solve_par: jobs must be >= 1"
      | None -> Dsp_util.Pool.default_jobs ())

let solve_par ?budget ?jobs ?pool ?stats (inst : Instance.t) =
  let put_stats v = match stats with Some r -> r := Some v | None -> () in
  let width = inst.Instance.width in
  let n = Instance.n_items inst in
  if n = 0 then begin
    put_stats (no_stats ~domains:0);
    Packing.make inst [||]
  end
  else begin
    let lb = Instance.lower_bound inst in
    let seed = greedy_packing inst in
    if Packing.height seed <= lb then begin
      put_stats (no_stats ~domains:0);
      seed
    end
    else begin
      let jobs = resolve_jobs ~pool ~jobs in
      let order = by_area_desc inst in
      let incumbent = Atomic.make (Packing.height seed) in
      let bound () = Atomic.get incumbent - 1 in
      let best_m = Mutex.create () in
      let best = ref seed in
      let stop = Atomic.make false in
      let exhausted = Atomic.make false in
      let node_cap =
        Option.value ~default:max_int
          (Option.bind budget Dsp_util.Budget.node_cap)
      in
      let total_nodes = Atomic.make 0 in
      let record peak starts =
        Mutex.lock best_m;
        if peak < Atomic.get incumbent then begin
          Atomic.set incumbent peak;
          best := Packing.make inst (Array.copy starts);
          (* The lower bound is tight: nothing can beat it, stop the
             whole portfolio. *)
          if peak <= lb then Atomic.set stop true
        end;
        Mutex.unlock best_m
      in
      (* The root's children — the first item's starts, confined to
         the left half by the routine's mirror rule — become the
         depth-1 seed units.  Every one fits: the strip is empty and
         the item is no taller than [lb < incumbent]. *)
      let roots = ref [] in
      ignore
        (expand ~budget:None
           ~visit:(fun _ -> true)
           ~bound
           ~leaf:(fun _ -> false)
           ~shallow:1
           ~hand_off:(fun _ s ->
             roots := s :: !roots;
             true)
           order (Segtree.create width) (Array.make n (-1)) 0);
      let roots = List.rev !roots in
      (* Frontier units are [depth; starts...]: n + 1 ints. *)
      let rw = n + 1 in
      (* Shallow nodes become stealable units; leaves and deeper
         subtrees are expanded by plain recursion.  Depth 3 gives up
         to (roots * branching^2) units — ample balance granularity
         without paying replay cost in the deep tree. *)
      let split_depth = min (n - 1) 3 in
      (* Room for a deque's share of the roots, and headroom. *)
      let slots = max 256 (((List.length roots - 1) / jobs) + 8) in
      let deques =
        Array.init jobs (fun _ -> Dsp_util.Wsdeque.create ~slots ~record_width:rw)
      in
      let pending = Atomic.make 0 in
      let dom_nodes = Array.make jobs 0 in
      let dom_steals = Array.make jobs 0 in
      let dom_steal_fails = Array.make jobs 0 in
      let dom_units = Array.make jobs 0 in
      (* Seed the deques before any worker starts (the pool's task
         handoff is the synchronization point): the root units dealt
         round-robin — stealing repairs whatever imbalance the deal
         hides. *)
      let seed_buf = Array.make rw 0 in
      List.iteri
        (fun i s ->
          seed_buf.(0) <- 1;
          seed_buf.(1) <- s;
          Atomic.incr pending;
          if not (Dsp_util.Wsdeque.push deques.(i mod jobs) seed_buf) then
            (* Unreachable: [slots] is sized to hold every seed. *)
            invalid_arg "Dsp_bb.solve_par: seed overflow")
        roots;
      let work wid () =
        let wbudget = Option.map Dsp_util.Budget.child budget in
        let loads = Segtree.create width in
        let starts = Array.make n (-1) in
        (* [cur] is the prefix of the unit being expanded, which
           [loads] returns to after each inline child; [unit_buf]
           receives popped/stolen units; [child_buf] stages pushes.
           All fixed-size, reused for the whole solve. *)
        let cur = Array.make rw 0 in
        let unit_buf = Array.make rw 0 in
        let child_buf = Array.make rw 0 in
        let rng = Dsp_util.Rng.create (0x57ea1 + wid) in
        let my_dq = deques.(wid) in
        (* Node accounting against the shared cap and stop flag, then
           the moving-incumbent prune: the profile may have been legal
           when its items were placed and still be cut here after some
           worker improved.  A leaf is always visited; [record]
           rejects a peak that does not beat the incumbent. *)
        let visit k =
          Dsp_util.Instr.bump c_nodes;
          dom_nodes.(wid) <- dom_nodes.(wid) + 1;
          if Atomic.fetch_and_add total_nodes 1 >= node_cap then begin
            Atomic.set exhausted true;
            Atomic.set stop true
          end;
          if Atomic.get stop then raise Stop_search;
          k = n || Segtree.max_all loads <= bound ()
        in
        let leaf starts =
          record (Segtree.max_all loads) starts;
          false
        in
        (* Offer the child [prefix of depth k; s] as a stealable unit.
           The prefix comes from [starts], which holds the whole
           current path; [cur] holds only the popped unit's prefix and
           is stale below an inline expansion.  [pending] is raised
           before the push so it never under-reports live work; a full
           deque refuses and the caller keeps the subtree. *)
        let push_child k s =
          child_buf.(0) <- k + 1;
          for j = 0 to k - 1 do
            child_buf.(1 + j) <- starts.(order.(j).Item.id)
          done;
          child_buf.(1 + k) <- s;
          Atomic.incr pending;
          if Dsp_util.Wsdeque.push my_dq child_buf then true
          else begin
            ignore (Atomic.fetch_and_add pending (-1));
            false
          end
        in
        (* Swap the placed prefix from [cur] to the unit in
           [unit_buf]: unplace the old prefix, replay the new one.
           Prefixes are shallow (depth <= split_depth), so the replay
           is a handful of O(log W) range-adds. *)
        let load_unit () =
          for j = cur.(0) - 1 downto 0 do
            unplace loads starts order.(j) cur.(1 + j)
          done;
          let k = unit_buf.(0) in
          for j = 0 to k - 1 do
            place loads starts order.(j) unit_buf.(1 + j)
          done;
          Array.blit unit_buf 0 cur 0 (k + 1);
          k
        in
        let execute () =
          dom_units.(wid) <- dom_units.(wid) + 1;
          ignore
            (expand ~budget:wbudget ~visit ~bound ~leaf ~shallow:split_depth
               ~hand_off:push_child order loads starts (load_unit ()))
        in
        (* Steal FIFO from random victims: the oldest unit in a deque
           is the shallowest subtree the victim owns — the biggest
           chunk of work available. *)
        let steal_round () =
          (* Bounded retry (2*(jobs-1) tries), not search recursion;
             the idle loop around it polls the budget.  lint: ok R3 *)
          let rec attempt tries =
            if tries = 0 || jobs = 1 then false
            else begin
              let r = Dsp_util.Rng.int rng (jobs - 1) in
              let v = if r >= wid then r + 1 else r in
              if Dsp_util.Wsdeque.steal deques.(v) unit_buf then true
              else attempt (tries - 1)
            end
          in
          attempt (2 * (jobs - 1))
        in
        let finish_unit () =
          execute ();
          (* Only reached on normal completion; every exceptional exit
             sets [stop], after which [pending] is irrelevant. *)
          ignore (Atomic.fetch_and_add pending (-1))
        in
        let rec loop idle =
          if Atomic.get stop then ()
          else if Dsp_util.Wsdeque.pop my_dq unit_buf then begin
            finish_unit ();
            loop 0
          end
          else if steal_round () then begin
            dom_steals.(wid) <- dom_steals.(wid) + 1;
            Dsp_util.Instr.bump c_steals;
            finish_unit ();
            loop 0
          end
          else if Atomic.get pending = 0 then ()
          else begin
            dom_steal_fails.(wid) <- dom_steal_fails.(wid) + 1;
            Dsp_util.Instr.bump c_steal_fails;
            (* Nothing to run right now, but some unit is in flight
               and may spawn children.  Poll the budget so deadlines
               and cancellation reach idle workers too, then back off:
               busy-spinning here would starve the very workers we
               are waiting on when domains outnumber cores. *)
            Dsp_util.Budget.poll_opt wbudget;
            Domain.cpu_relax ();
            if idle >= 16 then Unix.sleepf 0.0002;
            loop (min (idle + 1) 16)
          end
        in
        match loop 0 with
        | () -> ()
        | exception Stop_search -> ()
        | exception e ->
            (* A real failure (deadline, cancellation, injected fault):
               bring the siblings down too, then let the pool carry the
               exception back to the caller. *)
            Atomic.set stop true;
            raise e
      in
      let tasks = List.init jobs (fun wid -> work wid) in
      let results =
        match pool with
        | Some p -> Dsp_util.Pool.run_all p tasks
        | None ->
            Dsp_util.Pool.with_pool ~jobs (fun p -> Dsp_util.Pool.run_all p tasks)
      in
      List.iter (function Ok () -> () | Error e -> raise e) results;
      put_stats
        {
          domains = jobs;
          nodes_per_domain = dom_nodes;
          steals = sum dom_steals;
          steal_fails = sum dom_steal_fails;
          units = sum dom_units;
        };
      if Atomic.get exhausted then
        raise (Dsp_util.Budget.Expired Dsp_util.Budget.Nodes);
      !best
    end
  end

let optimal_height_par ?budget ?jobs ?pool inst =
  Packing.height (solve_par ?budget ?jobs ?pool inst)
