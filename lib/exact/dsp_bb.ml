open Dsp_core

type outcome = Feasible of Packing.t | Infeasible | Node_budget_exhausted

exception Out_of_nodes

(* Global node counter (Dsp_util.Instr): consumers that used to ask
   [solve_with_stats] for the node count now read the "bb.nodes"
   counter delta from a solve's report instead.  The local [nodes] ref
   below survives only to enforce the per-call budget. *)
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
      | None -> invalid_arg "Dsp_bb.greedy_height: item wider than strip")
    order;
  Packing.make inst starts

let greedy_height inst = Packing.height (greedy_packing inst)

let decide_internal ~nodes ~node_limit ~budget (inst : Instance.t) ~height =
  let width = inst.Instance.width in
  let n = Instance.n_items inst in
  if Instance.total_area inst > height * width then Infeasible
  else if Instance.max_height inst > height then Infeasible
  else begin
    let order = Array.copy inst.Instance.items in
    Array.sort Item.compare_by_area_desc order;
    (* Load profile on the segment-tree kernel: place/unplace are
       O(log W) range adds (incremental undo on backtrack), and start
       enumeration skips infeasible columns via the kernel's
       first-fit descent instead of stepping one column at a time. *)
    let loads = Segtree.create width in
    let starts = Array.make n (-1) in
    (* remaining.(k) = total area of items order.(k..). *)
    let remaining = Array.make (n + 1) 0 in
    for k = n - 1 downto 0 do
      remaining.(k) <- remaining.(k + 1) + Item.area order.(k)
    done;
    let free_capacity = ref (height * width) in
    let place (it : Item.t) s =
      Segtree.range_add loads ~lo:s ~hi:(s + it.w) it.h;
      free_capacity := !free_capacity - Item.area it;
      starts.(it.id) <- s
    in
    let unplace (it : Item.t) s =
      Segtree.range_add loads ~lo:s ~hi:(s + it.w) (-it.h);
      free_capacity := !free_capacity + Item.area it;
      starts.(it.id) <- -1
    in
    let rec go k =
      incr nodes;
      Dsp_util.Instr.bump c_nodes;
      if !nodes > node_limit then raise Out_of_nodes;
      (* Cooperative cancellation: the native node limit above keeps
         its first-class error, the budget adds the wall-clock
         deadline (and a node cap for engine-driven solves). *)
      Dsp_util.Budget.check_opt budget;
      if k = n then true
      else begin
        let it = order.(k) in
        if remaining.(k) > !free_capacity then false
        else begin
          let max_start =
            (* Mirror symmetry: confine the first item to the left
               half of the strip. *)
            if k = 0 then (width - it.w) / 2 else width - it.w
          in
          let min_start =
            (* Identical items in non-decreasing start order. *)
            if k > 0 && order.(k - 1).Item.w = it.w && order.(k - 1).Item.h = it.h
            then starts.(order.(k - 1).Item.id)
            else 0
          in
          (* Jump straight to the next feasible start at or after [s];
             the enumeration still visits every feasible start in
             increasing order, so the search tree (and node count) is
             unchanged — only the infeasible gaps between candidates
             are skipped in O(log W). *)
          let rec try_start s =
            let s' =
              Segtree.first_fit_from_i loads ~from:s ~len:it.w ~height:it.h
                ~limit:height
            in
            if s' < 0 || s' > max_start then false
            else begin
              place it s';
              if go (k + 1) then true
              else begin
                unplace it s';
                try_start (s' + 1)
              end
            end
          in
          try_start (max 0 min_start)
        end
      end
    in
    match go 0 with
    | true -> Feasible (Packing.make inst starts)
    | false -> Infeasible
    | exception Out_of_nodes -> Node_budget_exhausted
  end

let default_node_limit = 20_000_000

let decide ?(node_limit = default_node_limit) ?budget inst ~height =
  let nodes = ref 0 in
  decide_internal ~nodes ~node_limit ~budget inst ~height

let solve ?(node_limit = default_node_limit) ?budget inst =
  let lo = Instance.lower_bound inst and hi = greedy_height inst in
  let nodes = ref 0 in
  let best = ref None in
  (* Binary search on the peak: decision is monotone in [height]. *)
  let rec search lo hi =
    if lo > hi then true
    else
      let mid = lo + ((hi - lo) / 2) in
      match decide_internal ~nodes ~node_limit ~budget inst ~height:mid with
      | Feasible pk ->
          best := Some pk;
          search lo (mid - 1)
      | Infeasible -> search (mid + 1) hi
      | Node_budget_exhausted -> false
  in
  if Instance.n_items inst = 0 then Some (Packing.make inst [||])
  else if search lo hi then !best
  else None

let optimal_height ?node_limit ?budget inst =
  Option.map (fun pk -> Packing.height pk) (solve ?node_limit ?budget inst)

(* ----- parallel search -------------------------------------------- *)

(* The parallel solver keeps the serial search's move generator and
   symmetry reductions but swaps the binary search on the height for
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
   prefix of placements identifying one subtree.  The root start
   columns (confined to the left half by mirror symmetry) are dealt
   round-robin as depth-1 seed units; from there each worker pops its
   own deque LIFO (depth-first, cache-warm) and runs one expansion
   routine at every depth: children at depth <= [split_depth] are
   pushed back as new units, deeper ones are expanded inline with
   plain recursion.  An idle worker steals FIFO from a random victim,
   taking the victim's {e shallowest} — largest — subtree, which is
   what re-balances a skewed tree whose root has a single subtree.  A
   full deque never blocks: the child is expanded inline instead.

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
   - [total_nodes : int Atomic.t] — the node cap is global, so k
     workers cannot multiply the budget by k;
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

let solve_par ?(node_limit = default_node_limit) ?budget ?jobs ?pool ?stats
    (inst : Instance.t) =
  let put_stats v = match stats with Some r -> r := Some v | None -> () in
  let width = inst.Instance.width in
  let n = Instance.n_items inst in
  if n = 0 then begin
    put_stats (no_stats ~domains:0);
    Some (Packing.make inst [||])
  end
  else begin
    let lb = Instance.lower_bound inst in
    let seed = greedy_packing inst in
    if Packing.height seed <= lb then begin
      put_stats (no_stats ~domains:0);
      Some seed
    end
    else begin
      let jobs = resolve_jobs ~pool ~jobs in
      let order = Array.copy inst.Instance.items in
      Array.sort Item.compare_by_area_desc order;
      (* remaining.(k) = total area of items order.(k..); read-only. *)
      let remaining = Array.make (n + 1) 0 in
      for k = n - 1 downto 0 do
        remaining.(k) <- remaining.(k + 1) + Item.area order.(k)
      done;
      let incumbent = Atomic.make (Packing.height seed) in
      let best_m = Mutex.create () in
      let best = ref seed in
      let stop = Atomic.make false in
      let exhausted = Atomic.make false in
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
      let it0 = order.(0) in
      let max0 = (width - it0.w) / 2 in
      (* Frontier units are [depth; starts...]: n + 1 ints. *)
      let rw = n + 1 in
      (* Shallow nodes become stealable units; deeper subtrees are
         expanded by plain recursion.  Depth 3 gives up to
         (roots * branching^2) units — ample balance granularity
         without paying replay cost in the deep tree. *)
      let split_depth = min n 3 in
      let slots = max 256 ((max0 / jobs) + 8) in
      let deques =
        Array.init jobs (fun _ -> Dsp_util.Wsdeque.create ~slots ~record_width:rw)
      in
      let pending = Atomic.make 0 in
      let dom_nodes = Array.make jobs 0 in
      let dom_steals = Array.make jobs 0 in
      let dom_steal_fails = Array.make jobs 0 in
      let dom_units = Array.make jobs 0 in
      (* Seed the deques before any worker starts (the pool's task
         handoff is the synchronization point): the root start columns
         as depth-1 units, dealt round-robin — stealing repairs
         whatever imbalance the deal hides. *)
      let seed_buf = Array.make rw 0 in
      for s = 0 to max0 do
        seed_buf.(0) <- 1;
        seed_buf.(1) <- s;
        Atomic.incr pending;
        if not (Dsp_util.Wsdeque.push deques.(s mod jobs) seed_buf) then
          (* Unreachable: [slots] is sized to hold every seed. *)
          invalid_arg "Dsp_bb.solve_par: seed overflow"
      done;
      let work wid () =
        let wbudget = Option.map Dsp_util.Budget.child budget in
        let loads = Segtree.create width in
        let starts = Array.make n (-1) in
        let used = ref 0 in
        (* [cur] is the prefix of the unit being expanded, which
           [loads] returns to after each inline child; [unit_buf]
           receives popped/stolen units; [child_buf] stages pushes.
           All fixed-size, reused for the whole solve. *)
        let cur = Array.make rw 0 in
        let unit_buf = Array.make rw 0 in
        let child_buf = Array.make rw 0 in
        let rng = Dsp_util.Rng.create (0x57ea1 + wid) in
        let my_dq = deques.(wid) in
        let place (it : Item.t) s =
          Segtree.range_add loads ~lo:s ~hi:(s + it.w) it.h;
          used := !used + Item.area it;
          starts.(it.id) <- s
        in
        let unplace (it : Item.t) s =
          Segtree.range_add loads ~lo:s ~hi:(s + it.w) (-it.h);
          used := !used - Item.area it;
          starts.(it.id) <- -1
        in
        let node () =
          Dsp_util.Instr.bump c_nodes;
          dom_nodes.(wid) <- dom_nodes.(wid) + 1;
          if 1 + Atomic.fetch_and_add total_nodes 1 > node_limit then begin
            Atomic.set exhausted true;
            Atomic.set stop true
          end;
          if Atomic.get stop then raise Stop_search;
          Dsp_util.Budget.check_opt wbudget
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
        (* The one expansion routine, at every depth: visit the node,
           prune, then enumerate the next item's feasible starts.  A
           child at depth <= [split_depth] (and < n) is pushed as a
           unit when the deque has room; every other child recurses
           inline. *)
        let rec go k =
          node ();
          let limit = Atomic.get incumbent - 1 in
          if k = n then record (Segtree.max_all loads) starts
          else begin
            let it = order.(k) in
            (* Both prunes are against the *current* incumbent: the
               profile may have been legal when its items were placed
               and still be cut here after another worker improved. *)
            if
              remaining.(k) > (limit * width) - !used
              || Segtree.max_all loads > limit
            then ()
            else begin
              let min_start =
                (* Identical items in non-decreasing start order (for
                   k = 1 this chains off the root placement). *)
                if order.(k - 1).Item.w = it.w && order.(k - 1).Item.h = it.h
                then starts.(order.(k - 1).Item.id)
                else 0
              in
              let rec try_start s =
                let limit = Atomic.get incumbent - 1 in
                let s' =
                  Segtree.first_fit_from_i loads ~from:s ~len:it.w ~height:it.h
                    ~limit
                in
                if s' < 0 || s' > width - it.w then ()
                else begin
                  if not (k + 1 <= split_depth && k + 1 < n && push_child k s')
                  then begin
                    place it s';
                    go (k + 1);
                    unplace it s'
                  end;
                  try_start (s' + 1)
                end
              in
              try_start (max 0 min_start)
            end
          end
        in
        (* Swap the placed prefix from [cur] to the unit in
           [unit_buf]: unplace the old prefix, replay the new one.
           Prefixes are shallow (depth <= split_depth), so the replay
           is a handful of O(log W) range-adds. *)
        let load_unit () =
          for j = cur.(0) - 1 downto 0 do
            unplace order.(j) cur.(1 + j)
          done;
          let k = unit_buf.(0) in
          for j = 0 to k - 1 do
            place order.(j) unit_buf.(1 + j)
          done;
          Array.blit unit_buf 0 cur 0 (k + 1);
          k
        in
        let execute () =
          dom_units.(wid) <- dom_units.(wid) + 1;
          go (load_unit ())
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
      if Atomic.get exhausted then None else Some !best
    end
  end

let optimal_height_par ?node_limit ?budget ?jobs ?pool inst =
  Option.map
    (fun pk -> Packing.height pk)
    (solve_par ?node_limit ?budget ?jobs ?pool inst)
