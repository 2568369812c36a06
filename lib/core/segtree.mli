(** Lazy segment tree with range-add updates and range-max queries —
    the packing kernel behind {!Profile} and the placement loops.

    The incremental DSP algorithms (first-fit placement, branch and
    bound) repeatedly ask "what is the peak load in this window?",
    "add h to this window", and "where is the leftmost window whose
    peak stays under a budget?".  All three are O(log width) here
    versus O(width) on a flat load array; {!first_fit_from} further
    skips past the column that caused a violation instead of advancing
    one start at a time.  The kernel experiment
    ([bench/main.exe -- kernel]) measures it against the flat-array
    {!Profile.Naive} and writes the result to [BENCH.json].

    The kernel is flat and implicit-layout, over a single native-[int]
    [Bigarray]: iterative traversals with no scratch, so the
    steady-state operations ({!range_add}, {!range_max},
    {!find_last_above_i}, {!first_above}, {!first_fit_from_i})
    allocate nothing.
    Beside the tree sits a difference array (load of each column minus
    the load of the one before) and a bitmap of its nonzero entries,
    one bit per column, written at both ends of every update: the
    profile is a step function with far fewer runs than columns, so
    {!best_start} finds the runs from the bitmap's set bits and
    {!to_array} sums the differences. *)

type t

val create : int -> t
(** [create n] is the all-zero tree over columns [0, n). *)

val size : t -> int

val copy : t -> t
(** Independent snapshot (for backtracking searches that fork). *)

val range_add : t -> lo:int -> hi:int -> int -> unit
(** Add a value to all columns in [lo, hi) — [hi] exclusive. *)

val reset : t -> unit
(** Zero every column in place, reusing the allocated storage.
    O(size), allocation-free — cheaper than [create] for session
    reuse. *)

val range_max : t -> lo:int -> hi:int -> int
(** Maximum over [lo, hi); 0 when the range is empty. *)

val max_all : t -> int
val get : t -> int -> int

val to_array : t -> int array
(** Per-column values: the prefix sums of the difference array, one
    O(n) pass, not n point queries. *)

val find_last_above_i : t -> lo:int -> hi:int -> int -> int
(** [find_last_above_i t ~lo ~hi threshold] is the rightmost column in
    [lo, hi) whose value is strictly greater than [threshold], or [-1]
    if the whole window is at most [threshold].  O(log n) tree
    descent, allocation-free. *)

val first_above : t -> int -> int
(** [first_above t threshold] is the leftmost column of the whole
    tree whose value is strictly greater than [threshold], or [-1].
    One O(log n) root-to-leaf descent, allocation-free. *)

val first_fit_from : t -> from:int -> len:int -> height:int -> limit:int -> int option
(** [first_fit_from t ~from ~len ~height ~limit] is the smallest start
    [s >= from] such that [range_max t s (s+len) + height <= limit],
    or [None].  Skip-ahead descent: a failed window jumps directly
    past its last violating column, so a whole scan is
    O((violations + 1) log n) amortized rather than O(n * len). *)

val first_fit_from_i : t -> from:int -> len:int -> height:int -> limit:int -> int
(** {!first_fit_from} with a [-1] sentinel instead of [None] — the
    allocation-free form for hot loops (an option result boxes). *)

val best_start : t -> len:int -> (int * int) option
(** [best_start t ~len] is [(s, peak)] where [s] is the leftmost start
    minimizing the window peak [range_max t s (s+len)] and [peak] that
    minimum; [None] when no window of length [len] fits.
    O(n/32 + runs): one pass over the bitmap of nonzero differences
    visits its nonzero words and, in each, its set bits, which are the
    profile's run starts; a sliding-window maximum over the runs then
    tries only run starts as candidates.  Allocates its [Some] result,
    and grows its run scratch when the profile has more runs than ever
    before. *)
