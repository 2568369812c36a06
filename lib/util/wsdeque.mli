(** Bounded Chase–Lev work-stealing deque of fixed-width int records.

    One owner domain pushes and pops at the bottom (LIFO); any other
    domain steals from the top (FIFO), so thieves take the {e oldest} —
    in a branch-and-bound frontier, the shallowest and therefore
    largest — records first.  Records are [record_width] consecutive
    ints in one flat backing array: the deque itself never allocates
    after {!create} (PR 6's zero-allocation discipline), and the only
    shared mutable state is the pair of [Atomic] indices, which is what
    keeps the structure domain-safe under dsp_lint rule R2.

    The deque is {e bounded by design} — there is no resize.  A full
    deque refuses the push and the caller keeps the record (the B&B
    worker expands the subtree inline instead).  This keeps the hot
    path allocation-free and makes slot reuse safe: a slot can only be
    overwritten once [top] has advanced past it, so a thief that read
    a torn record always loses its compare-and-set and discards the
    read.

    Memory-model note: record payloads live in a plain [int array]
    written by the owner and read by thieves.  Every publication is
    ordered by a sequentially consistent [Atomic] operation on
    [bottom]/[top] (push publishes with the [bottom] store, a steal
    validates its read with the [top] CAS), so the only racy reads are
    ones the CAS then rejects. *)

type t

val create : slots:int -> record_width:int -> t
(** [create ~slots ~record_width] is an empty deque with room for at
    least [slots] records of exactly [record_width] ints each.
    [slots] is rounded up to a power of two (minimum 2).
    @raise Invalid_argument if [slots < 1] or [record_width < 1]. *)

(* lint: ok R10 kept until an A/B with the serial search decides the stealing search's fate *)
val capacity : t -> int
(** Number of record slots (the rounded-up power of two). *)

(* lint: ok R10 kept until an A/B with the serial search decides the stealing search's fate *)
val record_width : t -> int

val push : t -> int array -> bool
(** Owner only.  Copy [record_width] ints from the buffer into the
    bottom of the deque.  Returns [false] (and copies nothing) when
    the deque is full.
    @raise Invalid_argument if the buffer is shorter than
    [record_width]. *)

val pop : t -> int array -> bool
(** Owner only.  Move the newest record (LIFO) into the buffer;
    [false] when the deque is empty (a concurrent thief may win the
    last record, which also answers [false]). *)

val steal : t -> int array -> bool
(** Any domain.  Move the oldest record (FIFO) into the buffer;
    [false] when the deque is empty or another thief (or the owner,
    on the last record) won the race.  Callers treat [false] as "try
    another victim", not as emptiness. *)

(* lint: ok R10 kept until an A/B with the serial search decides the stealing search's fate *)
val size : t -> int
(** Racy snapshot of the current occupancy — exact only at
    quiescence; useful for "is it worth stealing here" heuristics and
    tests. *)
