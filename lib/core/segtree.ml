(* The packing kernel: a lazy range-add / range-max segment tree,
   flat and implicit-layout, on a single [Bigarray] in [c_layout]:
   nodes are 1-based (root 1, children 2v / 2v+1, leaves at
   [size, 2*size)), and node [v]'s two cells live interleaved at
   offsets [2v] (subtree max, inclusive of the node's own pending add)
   and [2v+1] (pending add for the whole subtree).  All traversals are
   iterative: bottom-up leaf-interval climbs for updates (boundary
   root paths rebuilt in one merged climb above their common
   ancestor), and top-down boundary-path descents for queries, which
   fold the pending adds in on the way down — no query needs the
   leaves materialized.  Beside the tree sits a difference array
   ([diff.(x) = load x - load (x-1)]) and a bitmap marking its
   nonzero entries, one bit per column; an update writes both at its
   two ends.  The profile is a step function with far fewer runs than
   columns, so [best_start] finds the runs from the bitmap's set bits,
   in O(n/32 + runs), and [to_array] is the prefix sums of [diff].
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
let c_first_above = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_first_above
let c_best_start = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_best_start

type t = {
  n : int; (* columns *)
  size : int; (* smallest power of two >= n *)
  cells : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
      (* 4*size interleaved node cells; see the header comment *)
  diff : int array; (* diff.(x) = load x - load (x-1), load (-1) = 0 *)
  nonzero : int array;
      (* run index: bit (x land 31) of nonzero.(x lsr 5) is set wherever
         diff.(x) <> 0; a set bit over a zero difference is stale, and
         scan_runs clears it *)
  mutable runs : int array; (* best_start scratch, grown on demand *)
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
    diff = Array.make n 0;
    nonzero = Array.make ((n + 31) lsr 5) 0;
    runs = [||]; (* grown on first best_start *)
  }

let size t = t.n

let copy t =
  let cells = A1.create Bigarray.int Bigarray.c_layout (A1.dim t.cells) in
  A1.blit t.cells cells;
  (* The scratch does not carry over: a fork may run on another
     domain. *)
  {
    t with
    cells;
    diff = Array.copy t.diff;
    nonzero = Array.copy t.nonzero;
    runs = [||];
  }

(* Add [value] to node [v]'s whole subtree: both the subtree max and
   the pending-add cell move together (the max cell is inclusive of
   the node's own lazy). *)
let apply_add t v value =
  tset t v (tget t v + value); (* lint: ok R1 — root guard *)
  lset t v (lget t v + value) (* lint: ok R1 — same root guard *)

(* Recompute one node's max from its (already correct) children,
   re-applying the node's own lazy. *)
let pull t v =
  let l = tget t (2 * v) and r = tget t ((2 * v) + 1) in
  tset t v ((if l >= r then l else r) + lget t v) (* lint: ok R1 — root guard *)

(* Set column [x]'s bit in the run index. *)
let mark t x =
  let w = x lsr 5 in
  t.nonzero.(w) <- t.nonzero.(w) lor (1 lsl (x land 31))

let range_add t ~lo ~hi value =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Segtree.range_add: bad range";
  Dsp_util.Instr.bump c_range_add;
  if lo < hi then begin
    (* O(1) accumulation overflow guard: a positive add can only push
       an int past [max_int] through the running maximum, and the root
       cell carries exactly that maximum.  (Negative adds cannot raise
       the max; underflow of untracked minima is out of scope.) *)
    if value > 0 then ignore (Dsp_util.Xutil.checked_add (tget t 1) value);
    (* Keep [diff] and its run index in step with the tree.  Each
       entry is a difference of two guarded loads; it may wrap, but it
       is only ever summed back into loads, and the wrapped sum is the
       exact load. *)
    t.diff.(lo) <- t.diff.(lo) + value; (* lint: ok R1 — difference of guarded loads *)
    mark t lo;
    if hi < t.n then begin
      t.diff.(hi) <- t.diff.(hi) - value; (* lint: ok R1 — same *)
      mark t hi
    end;
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
        l := !l + 1
      end;
      if !r land 1 = 1 then begin
        r := !r - 1;
        apply_add t !r value
      end;
      l := !l lsr 1;
      r := !r lsr 1
    done;
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

(* Leftmost column of the whole strip strictly above [thr], or -1: the
   mirror of [descend_above], one root-to-leaf pass preferring the left
   child.  Padding leaves past [n] hold 0 and lie right of every
   column, so one answers only when no column does; that is reported
   as -1 too. *)
let first_above t thr =
  Dsp_util.Instr.bump c_first_above;
  if tget t 1 <= thr then -1
  else begin
    let v = ref 1 and acc = ref 0 in
    while !v < t.size do
      acc := Dsp_util.Xutil.checked_add !acc (lget t !v);
      if Dsp_util.Xutil.checked_add !acc (tget t (2 * !v)) > thr
      then v := 2 * !v
      else v := (2 * !v) + 1
    done;
    let x = Dsp_util.Xutil.checked_add !v (-t.size) in
    if x < t.n then x else -1
  end

(* Core of find_last_above_i, shared with the first-fit skip-ahead (no
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
    invalid_arg "Segtree.find_last_above_i: bad range";
  Dsp_util.Instr.bump c_last_above;
  last_above t lo hi threshold

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

let to_array t =
  let a = Array.make t.n 0 and load = ref 0 in
  for x = 0 to t.n - 1 do
    load := !load + t.diff.(x); (* lint: ok R1 — prefix sum of differences: the guarded load *)
    a.(x) <- !load
  done;
  a

(* Grow [t.runs] to at least [need] cells, keeping its first [keep];
   doubling, so a session's scans stop allocating once it has seen
   its largest run count. *)
let ensure_runs t need keep =
  if Array.length t.runs < need then begin
    let grown = Array.make (max need (2 * Array.length t.runs)) 0 in
    Array.blit t.runs 0 grown 0 keep;
    t.runs <- grown
  end

(* Exponent of [b], a power of two below 2^32: the de Bruijn
   multiply gives each such power a distinct top 5 of 32 bits, and the
   table maps that pattern back to the exponent. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let bit_index b =
  (* lint: ok R1 — b <= 2^31 and the constant < 2^27: no 63-bit overflow *)
  let k = ((b * 0x077CB531) land 0xFFFFFFFF) lsr 27 in
  Char.code (String.unsafe_get debruijn k)

(* Read the profile's maximal constant runs from the run index, as
   (start, value) pairs in [t.runs.(2j)], [t.runs.(2j+1)]; returns the
   run count.  Run 0 starts at column 0; every later run starts at a
   nonzero difference, so only set bits are visited, lowest first in
   each nonzero word, and a sparse profile costs one load per 32
   columns plus its runs.  A set bit over a zero difference is stale
   (the boundary cancelled out) and is cleared here. *)
let scan_runs t =
  let d = t.diff and nz = t.nonzero in
  let m = ref 1 and load = ref d.(0) in
  ensure_runs t 64 0;
  t.runs.(0) <- 0;
  t.runs.(1) <- !load;
  for w = 0 to Array.length nz - 1 do
    let word = nz.(w) in
    if word <> 0 then begin
      (* column 0 starts run 0 whatever its bit says *)
      let rest = ref (if w = 0 then word land lnot 1 else word) in
      let stale = ref 0 in
      while !rest <> 0 do
        let b = !rest land (0 - !rest) in
        rest := !rest lxor b;
        let x = (w lsl 5) lor bit_index b in
        let dv = d.(x) in
        if dv = 0 then stale := !stale lor b
        else begin
          load := !load + dv; (* lint: ok R1 — prefix sum of differences: the guarded load *)
          ensure_runs t ((2 * !m) + 2) (2 * !m);
          t.runs.(2 * !m) <- x;
          t.runs.((2 * !m) + 1) <- !load;
          m := !m + 1
        end
      done;
      if !stale <> 0 then nz.(w) <- word lxor !stale
    end
  done;
  !m

(* Sliding-window maximum (monotone deque) over the runs, not the
   columns.  Only run starts are candidates: if [s > 0] lies inside a
   run, the window at [s - 1] gains a column equal to [load s] and
   loses one, so its max is no larger — the leftmost optimum starts at
   a run start (column 0 is run 0's).  Run [e] enters the window of
   candidate [s] once it starts before [s + len]; the deque holds run
   indices with decreasing values, in [runs] past the 2m pair cells.
   The strict [<] keeps the leftmost best window. *)
let best_start t ~len =
  Dsp_util.Instr.bump c_best_start;
  if len < 1 || len > t.n then None
  else begin
    let m = scan_runs t in
    ensure_runs t (3 * m) (2 * m);
    let r = t.runs in
    let head = ref (2 * m) and tail = ref (2 * m) and e = ref 0 in
    let best_s = ref 0 and best_peak = ref max_int in
    let j = ref 0 in
    while !j < m && r.(2 * !j) + len <= t.n do (* lint: ok R1 — start, len <= n *)
      let s = r.(2 * !j) in
      let stop = s + len in (* lint: ok R1 — s + len <= n *)
      while !e < m && r.(2 * !e) < stop do
        let v = r.((2 * !e) + 1) in
        while !tail > !head && r.((2 * r.(!tail - 1)) + 1) <= v do
          tail := !tail - 1
        done;
        r.(!tail) <- !e;
        tail := !tail + 1;
        e := !e + 1
      done;
      while r.(!head) < !j do
        head := !head + 1
      done;
      let wmax = r.((2 * r.(!head)) + 1) in
      if wmax < !best_peak then begin
        best_peak := wmax;
        best_s := s
      end;
      j := !j + 1
    done;
    Some (!best_s, !best_peak)
  end
