(** Unified solve budgets: a deadline, a node cap, and a cooperative
    cancellation flag in one value, enforced by cancellation
    checkpoints.  The deadline is on the monotonic clock
    ({!Xutil.now}), so a step of the wall clock neither stretches it
    nor fires it early.

    The paper's exact solvers and the (5/4+ε) binary search are
    pseudo-polynomial or exponential; on the 3-Partition hardness
    families a solve can run effectively forever.  A [Budget.t] is
    created once per solve (by {!Dsp_engine.Runner.run_one}, or by
    {!within} for a bare node cap) and threaded into every hot loop,
    which calls {!check} (search loops whose iterations are "nodes")
    or {!poll} (loops with no node semantics, e.g. simplex pivots).
    Both raise {!Expired} when the budget runs out; the engine
    boundary converts the exception into a typed outcome.

    Multicore: budgets are single-domain values (the checkpoint state
    is unsynchronized); what crosses domains is the shared [cancel]
    flag, a [bool Atomic.t] that every checkpoint polls.  A racing
    runner or a parallel search hands the same atomic to many worker
    budgets ({!child}) and flips it once to stop them all at their
    next checkpoint.

    Cost model: a checkpoint is an increment, a compare, and (when a
    cancel flag is attached) one atomic load; the clock is only read
    every 64 checkpoints, so checkpoints are cheap enough for
    branch-and-bound inner loops. *)

type reason = Deadline | Nodes | Cancelled

exception Expired of reason
(** Raised by {!check}/{!poll} at the first checkpoint past the
    budget.  Escapes the solver wholesale (cooperative cancellation);
    catch it only at the engine boundary. *)

type t

val create : ?timeout_ms:int -> ?nodes:int -> ?cancel:bool Atomic.t -> unit -> t
(** A budget starting now.  [timeout_ms] is a deadline relative to
    creation; [nodes] caps the number of {!check} checkpoints (search
    nodes); [cancel] is a shared flag that, once set (from any
    domain), makes every checkpoint raise [Expired Cancelled].
    Omitted components are unlimited. *)

val unlimited : unit -> t
(** A budget that never expires (checkpoints still count ticks). *)

val child : ?cancel:bool Atomic.t -> t -> t
(** A worker-side copy for fanning a solve out across domains: same
    absolute deadline, fresh checkpoint state (budgets themselves must
    not be shared between domains), and the parent's cancel flag
    unless [cancel] overrides it.  The node cap is dropped — parallel
    searches account nodes in one shared [Atomic.t], not k independent
    caps. *)

val check : t -> unit
(** Node-counting checkpoint: one tick; raises [Expired Nodes] when
    the tick count exceeds the node cap, [Expired Cancelled] when the
    shared cancel flag is set, and [Expired Deadline] when a (batched)
    clock read lands past the deadline.  Call it once per search
    node. *)

val poll : t -> unit
(** Deadline/cancellation-only checkpoint for loops whose iterations
    are not search nodes (simplex pivots, placement passes): never
    consumes the node cap, still raises [Expired Deadline] and
    [Expired Cancelled].  Clock reads are batched exactly as in
    {!check}. *)

val check_opt : t option -> unit
(** {!check} when a budget is present, no-op otherwise — for solver
    internals that take [?budget]. *)

val poll_opt : t option -> unit
(** {!poll} when a budget is present, no-op otherwise. *)

val within : nodes:int -> (t -> 'a) -> 'a option
(** [within ~nodes f] runs [f] under a fresh budget capped at [nodes]
    {!check} checkpoints: [Some] its answer, or [None] when the cap
    runs out.  For callers that skip what a cap cannot finish (the
    exact optima of the experiments and tests); the budget has no
    deadline and no cancel flag. *)

val node_cap : t -> int option
(** The node cap, for a parallel search that counts its workers' nodes
    against it in one shared counter (see {!child}). *)

val ticks : t -> int
(** Checkpoints counted so far by {!check}. *)

val elapsed : t -> float
(** Seconds since creation. *)

val remaining_ms : t -> float option
(** Milliseconds until the deadline ([None] when unlimited); clamped
    at 0. *)
