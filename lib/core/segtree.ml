(* The packing kernel: a lazy range-add / range-max segment tree,
   flat and implicit-layout, on a single [Bigarray] in [c_layout]:
   nodes are 1-based (root 1, children 2v / 2v+1, leaves at
   [size, 2*size)), and node [v]'s two cells live interleaved at
   offsets [2v] (subtree max, inclusive of the node's own pending add)
   and [2v+1] (pending add for the whole subtree).  All traversals are
   iterative: bottom-up leaf-interval climbs for updates (boundary
   root paths rebuilt in one merged climb above their common
   ancestor), top-down boundary-path descents for queries, and a
   dirty-tracked flatten for [best_start] / [to_array] — updates log
   which subtrees took a pending add and which column span they cover,
   so a flatten pushes lazies down just those subtrees and re-reads
   just that span, instead of sweeping all O(n) nodes per call.
   Local [ref] cursors compile to mutable stack variables
   (Simplif.eliminate_ref), so the steady-state ops — [range_add],
   [range_max], [first_fit_from_i], [find_last_above_i] — allocate
   nothing: no closures, no tuples, no exceptions, no boxed returns.
   The [kernel] bench experiment measures this invariant
   (words-per-op) and scripts/perf_gate.sh gates on it.

   Element kind: the cells are an untagged native-[int] Bigarray
   ([Bigarray.int], 63-bit payload), not boxed [int64]: without
   flambda every [int64] Bigarray read allocates its box, which would
   reintroduce per-op GC pressure — the exact cost this kernel
   removes.  The public interface is native [int] throughout.
   Overflow discipline: a positive [range_add] proves
   [root max + value] representable via [Xutil.checked_add] (so
   accumulated maxima never wrap), and comparison thresholds are built
   with the saturating [Xutil.sat_sub].  dsp_lint rule R1 audits this
   file; the remaining raw [+]/[-] sites are index arithmetic or
   accumulations covered by the root guard, each carrying its waiver
   and justification. *)

module A1 = Bigarray.Array1

(* Kernel op counters (Dsp_util.Instr): one handle per entry point,
   bumped per public call, so the engine's per-solve reports show how
   hard each algorithm leans on the kernel. *)
let c_range_add = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_range_add
let c_range_max = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_range_max
let c_first_fit = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_first_fit
let c_last_above = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_find_last_above
let c_best_start = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_best_start

type t = {
  n : int; (* columns *)
  size : int; (* smallest power of two >= n *)
  cells : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
      (* 4*size interleaved node cells; see the header comment *)
  flat : int array; (* per-column flatten buffer (best_start) *)
  deque : int array; (* monotone deque (best_start) *)
  dirty : int array; (* nodes given a pending add since the last flatten *)
  mutable dirty_n : int; (* entries in [dirty]; -1 = overflowed, full sweep *)
  mutable dirty_lo : int; (* column span touched since the last flatten: *)
  mutable dirty_hi : int; (* [dirty_lo, dirty_hi), empty when lo >= hi *)
  pstack : int array; (* push-down DFS scratch (max one path per level) *)
  mutable jrn : int array; (* checkpoint journal: (lo, hi, value) triples *)
  mutable jrn_n : int; (* used cells in [jrn] (always a multiple of 3) *)
  mutable jrn_depth : int; (* outstanding checkpoints; 0 = journal off *)
}

(* Node cell accessors.  Indices are [2v] / [2v+1] for v in
   [1, 2*size), always within the 4*size buffer; the unsafe accessors
   keep a bounds check out of every hot-loop load. *)
let tget t v = A1.unsafe_get t.cells (2 * v)
let lget t v = A1.unsafe_get t.cells ((2 * v) + 1)
let tset t v x = A1.unsafe_set t.cells (2 * v) x
let lset t v x = A1.unsafe_set t.cells ((2 * v) + 1) x

let create n =
  if n < 1 then invalid_arg "Segtree.create: size must be >= 1";
  let size = ref 1 in
  while !size < n do
    size := !size * 2
  done;
  let cells = A1.create Bigarray.int Bigarray.c_layout (4 * !size) in
  A1.fill cells 0;
  {
    n;
    size = !size;
    cells;
    flat = Array.make n 0; (* all-zero: consistent with the empty tree *)
    deque = Array.make n 0;
    dirty = Array.make 256 0;
    dirty_n = 0;
    dirty_lo = n;
    dirty_hi = 0;
    pstack = Array.make 128 0;
    jrn = [||]; (* grown on first journaled update *)
    jrn_n = 0;
    jrn_depth = 0;
  }

let size t = t.n

let copy t =
  let cells = A1.create Bigarray.int Bigarray.c_layout (A1.dim t.cells) in
  A1.blit t.cells cells;
  (* [flat] and the dirty state carry over: entries outside the dirty
     span are valid flatten results for the copied tree too.  The
     checkpoint journal carries over as well, so a copy taken inside a
     checkpointed region can itself be rolled back. *)
  {
    t with
    cells;
    flat = Array.copy t.flat;
    deque = Array.make t.n 0;
    dirty = Array.copy t.dirty;
    pstack = Array.make 128 0;
    jrn = Array.copy t.jrn;
  }

(* Add [value] to node [v]'s whole subtree: both the subtree max and
   the pending-add cell move together (the max cell is inclusive of
   the node's own lazy). *)
let apply_add t v value =
  tset t v (tget t v + value); (* lint: ok R1 — root guard *)
  lset t v (lget t v + value) (* lint: ok R1 — same root guard *)

(* Remember that node [v] holds a pending add, so the next flatten can
   push down just the touched subtrees instead of sweeping every
   node.  Leaves carry no pushable lazy; on overflow the list degrades
   to a full-sweep marker, never to wrong answers. *)
let mark_dirty t v =
  if v < t.size && t.dirty_n >= 0 then
    if t.dirty_n < Array.length t.dirty then begin
      t.dirty.(t.dirty_n) <- v;
      t.dirty_n <- t.dirty_n + 1
    end
    else t.dirty_n <- -1

(* Recompute one node's max from its (already correct) children,
   re-applying the node's own lazy. *)
let pull t v =
  let l = tget t (2 * v) and r = tget t ((2 * v) + 1) in
  tset t v ((if l >= r then l else r) + lget t v) (* lint: ok R1 — root guard *)

(* The range_add workhorse, shared with checkpoint rollback (which
   replays journal entries negated).  Callers have validated the range
   and run the O(1) overflow guard; rollback re-applies only values
   whose effect was previously on the tree, so its intermediate states
   are exactly the earlier (guarded) states in reverse. *)
let apply_range t lo hi value =
  if lo < hi then begin
    (* Bottom-up over the leaf interval [lo+size, hi+size): apply to
       the O(log n) maximal covered nodes, then rebuild the two
       boundary root paths — merged into one climb above their lowest
       common ancestor, so shared ancestors are pulled once, not
       twice. *)
    let l = ref (lo + t.size) in (* lint: ok R1 — leaf index < 2*size *)
    let r = ref (hi + t.size) in (* lint: ok R1 — leaf index <= 2*size *)
    let l0 = !l and r0 = !r - 1 in
    while !l < !r do
      if !l land 1 = 1 then begin
        apply_add t !l value;
        mark_dirty t !l;
        l := !l + 1
      end;
      if !r land 1 = 1 then begin
        r := !r - 1;
        apply_add t !r value;
        mark_dirty t !r
      end;
      l := !l lsr 1;
      r := !r lsr 1
    done;
    if lo < t.dirty_lo then t.dirty_lo <- lo;
    if hi > t.dirty_hi then t.dirty_hi <- hi;
    let x = ref (l0 lsr 1) and y = ref (r0 lsr 1) in
    while !x <> !y do
      pull t !x;
      pull t !y;
      x := !x lsr 1;
      y := !y lsr 1
    done;
    while !x >= 1 do
      pull t !x;
      x := !x lsr 1
    done
  end

(* Append one (lo, hi, value) triple to the checkpoint journal,
   doubling the backing array as needed.  Only called while a
   checkpoint is outstanding, so steady-state range_adds pay a single
   depth test. *)
let journal_push t lo hi value =
  let n = t.jrn_n in
  if n + 3 > Array.length t.jrn then begin
    let cap = Array.length t.jrn in
    (* amortized journal doubling, only reachable while a checkpoint
       is outstanding; steady-state range_adds never enter this branch *)
    (* lint: ok R7 — bounded, amortized, off the steady-state path *)
    let grown = Array.make (if cap = 0 then 96 else 2 * cap) 0 in
    Array.blit t.jrn 0 grown 0 n;
    t.jrn <- grown
  end;
  t.jrn.(n) <- lo;
  t.jrn.(n + 1) <- hi;
  t.jrn.(n + 2) <- value;
  t.jrn_n <- n + 3

let range_add t ~lo ~hi value =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Segtree.range_add: bad range";
  Dsp_util.Instr.bump c_range_add;
  if lo < hi then begin
    (* O(1) accumulation overflow guard: a positive add can only push
       an int past [max_int] through the running maximum, and the root
       cell carries exactly that maximum.  (Negative adds cannot raise
       the max; underflow of untracked minima is out of scope.) *)
    if value > 0 then ignore (Dsp_util.Xutil.checked_add (tget t 1) value);
    if t.jrn_depth > 0 then journal_push t lo hi value;
    apply_range t lo hi value
  end

let checkpoint t =
  t.jrn_depth <- t.jrn_depth + 1;
  t.jrn_n

let rollback t mark =
  if t.jrn_depth <= 0 then invalid_arg "Segtree.rollback: no outstanding checkpoint";
  if mark < 0 || mark > t.jrn_n || mark mod 3 <> 0 then
    invalid_arg "Segtree.rollback: bad mark";
  (* Undo newest-first: range adds commute, but replaying in reverse
     keeps every intermediate state equal to an earlier live state, so
     the root-max overflow argument carries over unchanged. *)
  let i = ref (t.jrn_n - 3) in
  while !i >= mark do
    apply_range t t.jrn.(!i) t.jrn.(!i + 1) (0 - t.jrn.(!i + 2));
    i := !i - 3
  done;
  t.jrn_n <- mark;
  t.jrn_depth <- t.jrn_depth - 1

let commit t mark =
  if t.jrn_depth <= 0 then invalid_arg "Segtree.commit: no outstanding checkpoint";
  if mark < 0 || mark > t.jrn_n then invalid_arg "Segtree.commit: bad mark";
  t.jrn_depth <- t.jrn_depth - 1;
  if t.jrn_depth = 0 then t.jrn_n <- 0

let reset t =
  A1.fill t.cells 0;
  Array.fill t.flat 0 t.n 0;
  t.dirty_n <- 0;
  t.dirty_lo <- t.n;
  t.dirty_hi <- 0;
  t.jrn_n <- 0;
  t.jrn_depth <- 0

(* range_max via two iterative boundary descents: walk down from the
   root to the node where [lo, hi) splits, then resolve the suffix
   query on the left child and the prefix query on the right child,
   folding in covered siblings as they peel off.  Every step moves one
   level down, so the whole query is O(log n) with zero allocation. *)
let range_max t ~lo ~hi =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Segtree.range_max: bad range";
  Dsp_util.Instr.bump c_range_max;
  if lo >= hi then 0
  else begin
    let v = ref 1 and nlo = ref 0 and nhi = ref t.size and acc = ref 0 in
    let res = ref min_int and descending = ref true in
    while !descending do
      if lo <= !nlo && !nhi <= hi then begin
        res := !acc + tget t !v; (* lint: ok R1 — root guard *)
        descending := false
      end
      else begin
        let mid = (!nlo + !nhi) / 2 in (* lint: ok R1 — node bounds <= size *)
        acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
        if hi <= mid then begin
          v := 2 * !v;
          nhi := mid
        end
        else if lo >= mid then begin
          v := (2 * !v) + 1;
          nlo := mid
        end
        else begin
          descending := false;
          (* Split: suffix [lo, mid) on the left child... *)
          let u = ref (2 * !v) and ulo = ref !nlo and au = ref !acc in
          let uhi = ref mid in
          let walking = ref true in
          while !walking do
            if lo <= !ulo then begin
              let m = !au + tget t !u in (* lint: ok R1 — root guard *)
              if m > !res then res := m;
              walking := false
            end
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if lo < m then begin
                (* right child fully covered by the suffix *)
                let c = !au + tget t ((2 * !u) + 1) in (* lint: ok R1 — root guard *)
                if c > !res then res := c;
                u := 2 * !u;
                uhi := m
              end
              else begin
                u := (2 * !u) + 1;
                ulo := m
              end
            end
          done;
          (* ... and prefix [mid, hi) on the right child. *)
          let u = ref ((2 * !v) + 1) and uhi = ref !nhi and au = ref !acc in
          let ulo = ref mid in
          let walking = ref true in
          while !walking do
            if hi >= !uhi then begin
              let m = !au + tget t !u in (* lint: ok R1 — root guard *)
              if m > !res then res := m;
              walking := false
            end
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if hi > m then begin
                (* left child fully covered by the prefix *)
                let c = !au + tget t (2 * !u) in (* lint: ok R1 — root guard *)
                if c > !res then res := c;
                u := (2 * !u) + 1;
                ulo := m
              end
              else begin
                u := 2 * !u;
                uhi := m
              end
            end
          done
        end
      end
    done;
    !res
  end

let max_all t = range_max t ~lo:0 ~hi:t.n
let get t i = range_max t ~lo:i ~hi:(i + 1)

(* Rightmost leaf of [v0]'s subtree strictly above [thr]; requires the
   adjusted subtree max ([acc0] = lazies strictly above [v0]) to
   exceed [thr], which guarantees a qualifying child at every step. *)
let descend_above t v0 acc0 thr =
  let v = ref v0 and acc = ref acc0 in
  while !v < t.size do
    acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
    if !acc + tget t ((2 * !v) + 1) > thr (* lint: ok R1 — root guard *)
    then v := (2 * !v) + 1
    else v := 2 * !v
  done;
  !v - t.size (* lint: ok R1 — leaf index < 2*size *)

(* Core of find_last_above, shared with the first-fit skip-ahead (no
   counter bump, no bounds check): rightmost column of [lo, hi) whose
   value is strictly above [thr], or -1.  Right part before left:
   descend to the split node pruning subtrees whose adjusted max is
   <= thr, search the right (prefix) part remembering the deepest
   fully-covered left sibling that could still answer — deeper
   fallbacks lie strictly right of shallower ones, so one register
   suffices — then fall back to the left (suffix) part. *)
let last_above t lo hi thr =
  if lo >= hi then -1
  else begin
    let v = ref 1 and nlo = ref 0 and nhi = ref t.size and acc = ref 0 in
    let res = ref (-2) in
    while !res = -2 do
      if !acc + tget t !v <= thr then res := -1 (* lint: ok R1 — root guard *)
      else if lo <= !nlo && !nhi <= hi then res := descend_above t !v !acc thr
      else begin
        let mid = (!nlo + !nhi) / 2 in (* lint: ok R1 — node bounds <= size *)
        acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
        if hi <= mid then begin
          v := 2 * !v;
          nhi := mid
        end
        else if lo >= mid then begin
          v := (2 * !v) + 1;
          nlo := mid
        end
        else begin
          (* Split node: right part first. *)
          let u = ref ((2 * !v) + 1) and ulo = ref mid and uhi = ref !nhi in
          let au = ref !acc in
          let fb = ref (-1) and fb_acc = ref 0 in
          let r = ref (-2) in
          while !r = -2 do
            if hi >= !uhi then
              if !au + tget t !u > thr (* lint: ok R1 — root guard *)
              then r := descend_above t !u !au thr
              else r := -1
            else if !au + tget t !u <= thr then r := -1 (* lint: ok R1 — root guard *)
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if hi > m then begin
                (* Left child fully covered: the deepest such sibling
                   whose max clears the threshold is the fallback. *)
                if !au + tget t (2 * !u) > thr then begin (* lint: ok R1 — root guard *)
                  fb := 2 * !u;
                  fb_acc := !au
                end;
                u := (2 * !u) + 1;
                ulo := m
              end
              else begin
                u := 2 * !u;
                uhi := m
              end
            end
          done;
          if !r < 0 && !fb >= 0 then r := descend_above t !fb !fb_acc thr;
          if !r >= 0 then res := !r
          else begin
            (* Left part: suffix [lo, mid) on the left child. *)
            let u = ref (2 * !v) and ulo = ref !nlo and uhi = ref mid in
            let au = ref !acc in
            let r = ref (-2) in
            while !r = -2 do
              if lo <= !ulo then
                if !au + tget t !u > thr (* lint: ok R1 — root guard *)
                then r := descend_above t !u !au thr
                else r := -1
              else if !au + tget t !u <= thr then r := -1 (* lint: ok R1 — root guard *)
              else begin
                let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
                au := !au + lget t !u; (* lint: ok R1 — root guard *)
                if lo < m then begin
                  (* Right child fully covered by the suffix: if it
                     clears the threshold the answer is inside it. *)
                  if !au + tget t ((2 * !u) + 1) > thr (* lint: ok R1 — root guard *)
                  then r := descend_above t ((2 * !u) + 1) !au thr
                  else begin
                    u := 2 * !u;
                    uhi := m
                  end
                end
                else begin
                  u := (2 * !u) + 1;
                  ulo := m
                end
              end
            done;
            res := !r
          end
        end
      end
    done;
    !res
  end

let find_last_above_i t ~lo ~hi threshold =
  if lo < 0 || hi > t.n || lo > hi then
    invalid_arg "Segtree.find_last_above: bad range";
  Dsp_util.Instr.bump c_last_above;
  last_above t lo hi threshold

let find_last_above t ~lo ~hi threshold =
  let r = find_last_above_i t ~lo ~hi threshold in
  if r < 0 then None else Some r

(* Skip-ahead first fit: test the window at [s]; on violation, jump
   past the *last* violating column instead of stepping to [s + 1].
   Every violating column is skipped once across the whole scan, so a
   full placement costs O((k + 1) log n) for k violating columns,
   instead of O(n * len).  The [_i] form returns -1 for "no fit" so
   the branch-and-bound hot loop never allocates an option. *)
let first_fit_from_i t ~from ~len ~height ~limit =
  Dsp_util.Instr.bump c_first_fit;
  if len < 1 || len > t.n then -1
  else begin
    let thr = Dsp_util.Xutil.sat_sub limit height in
    let s = ref (if from > 0 then from else 0) in
    let res = ref (-2) in
    while !res = -2 do
      if !s + len > t.n then res := -1 (* lint: ok R1 — s, len <= n *)
      else begin
        let j = last_above t !s (!s + len) thr in (* lint: ok R1 — s + len <= n *)
        if j < 0 then res := !s else s := j + 1
      end
    done;
    !res
  end

let first_fit_from t ~from ~len ~height ~limit =
  let r = first_fit_from_i t ~from ~len ~height ~limit in
  if r < 0 then None else Some r

(* O(n) flatten into the preallocated buffer, by destructive lazy
   push-down: moving every pending add one level toward the leaves
   preserves the represented profile exactly (the parent's tree cell
   already included its lazy; the children absorb it into both their
   cells), after which the leaf cells hold final values and the whole
   pass is two sequential sweeps.  Processing nodes in increasing
   index order pushes ancestors before descendants, and a node whose
   lazy is already 0 costs one read — so back-to-back flattens (the
   best-fit placement loop) touch only the O(log n) lazies the
   interleaved updates re-introduced.  Leaf lazy cells are never read
   by any query, so the leaf level needs no lazy bookkeeping. *)
let push_down_sweep t =
  let a = t.cells and half = t.size / 2 in
  for v = 1 to half - 1 do
    let lz = A1.unsafe_get a ((2 * v) + 1) in
    if lz <> 0 then begin
      let l = 4 * v and r = (4 * v) + 2 in
      A1.unsafe_set a l (A1.unsafe_get a l + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a (l + 1) (A1.unsafe_get a (l + 1) + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a r (A1.unsafe_get a r + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a (r + 1) (A1.unsafe_get a (r + 1) + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a ((2 * v) + 1) 0
    end
  done;
  (* Deepest internal level: children are leaves, whose lazy cells no
     query reads, so only the tree cells absorb the push.  (max 1
     guards the size = 1 tree, which has no internal nodes.) *)
  for v = max 1 half to t.size - 1 do
    let lz = A1.unsafe_get a ((2 * v) + 1) in
    if lz <> 0 then begin
      let l = 4 * v and r = (4 * v) + 2 in
      A1.unsafe_set a l (A1.unsafe_get a l + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a r (A1.unsafe_get a r + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a ((2 * v) + 1) 0
    end
  done

(* Push node [v0]'s pending add all the way to its leaves, iteratively
   on the preallocated scratch stack.  The cascade stops wherever a
   lazy cancels to zero, so the work is O(nodes holding or receiving
   a pending add), not O(subtree): deferring one sibling per level
   bounds the stack by the tree height (pstack is sized well past
   62-bit depth). *)
let push_subtree t v0 =
  let a = t.cells and stack = t.pstack and half = t.size / 2 in
  stack.(0) <- v0;
  let top = ref 1 in
  while !top > 0 do
    top := !top - 1;
    let u = stack.(!top) in
    let lz = A1.unsafe_get a ((2 * u) + 1) in
    if lz <> 0 then begin
      A1.unsafe_set a ((2 * u) + 1) 0;
      let l = 4 * u and r = (4 * u) + 2 in
      A1.unsafe_set a l (A1.unsafe_get a l + lz); (* lint: ok R1 — root guard *)
      A1.unsafe_set a r (A1.unsafe_get a r + lz); (* lint: ok R1 — root guard *)
      if u < half then begin
        (* internal children: lazies absorb the push and cascade *)
        A1.unsafe_set a (l + 1) (A1.unsafe_get a (l + 1) + lz); (* lint: ok R1 — root guard *)
        A1.unsafe_set a (r + 1) (A1.unsafe_get a (r + 1) + lz); (* lint: ok R1 — root guard *)
        stack.(!top) <- 2 * u;
        stack.(!top + 1) <- (2 * u) + 1;
        top := !top + 2
      end
    end
  done

(* Resolve every pending add down to the leaf cells.  The common case
   walks just the subtrees dirtied since the last flatten (a few
   range_adds between best-fit placements); an overflowed dirty list
   degrades to the full sweep. *)
let push_down t =
  if t.dirty_n < 0 then push_down_sweep t
  else
    for k = 0 to t.dirty_n - 1 do
      push_subtree t t.dirty.(k)
    done;
  t.dirty_n <- 0

(* After [push_down], column [i]'s final value sits in its leaf cell. *)
let leaf_get t i = A1.unsafe_get t.cells (2 * (t.size + i))

(* Refresh [t.flat]: columns outside the dirty span kept their values
   from the previous flatten, so only the touched span is re-read. *)
let flatten_into t =
  push_down t;
  for i = t.dirty_lo to t.dirty_hi - 1 do
    t.flat.(i) <- leaf_get t i
  done;
  t.dirty_lo <- t.n;
  t.dirty_hi <- 0

let to_array t =
  flatten_into t;
  Array.sub t.flat 0 t.n

(* Sliding-window maximum (monotonic deque) over the preallocated
   flatten: all window peaks in O(n) with no per-call buffers.  The
   deque compares against the [t.flat] copy rather than the leaf
   cells directly: a Bigarray element read is two dependent loads
   (header, then data), so one sequential copy pass plus plain-array
   comparisons beats re-reading leaves inside the loop (measured). *)
let best_start t ~len =
  Dsp_util.Instr.bump c_best_start;
  if len < 1 || len > t.n then None
  else begin
    flatten_into t;
    let loads = t.flat and dq = t.deque in
    let n = t.n in
    let head = ref 0 and tail = ref 0 in
    let best_s = ref 0 and best_peak = ref max_int in
    for x = 0 to n - 1 do
      while !tail > !head && loads.(dq.(!tail - 1)) <= loads.(x) do
        tail := !tail - 1
      done;
      dq.(!tail) <- x;
      tail := !tail + 1;
      let s = x + 1 - len in (* lint: ok R1 — window index < n *)
      if s >= 0 then begin
        while dq.(!head) < s do
          head := !head + 1
        done;
        let wmax = loads.(dq.(!head)) in
        if wmax < !best_peak then begin
          best_peak := wmax;
          best_s := s
        end
      end
    done;
    Some (!best_s, !best_peak)
  end
