(** A fixed-size domain pool with futures — the repo's multicore
    substrate, built from scratch on [Domain] + [Mutex]/[Condition] +
    [Atomic] (no domainslib, matching the no-external-deps ethos).

    One pool = [jobs] worker domains pulling packed tasks off a shared
    FIFO.  {!submit} returns a {!future}; {!await} blocks the caller
    until the task ran and re-raises whatever it raised (with its
    backtrace).  Workers catch every task exception into the future,
    so a crashing task — including an injected
    {!Dsp_util.Fault.Injected} — can never kill a worker or wedge the
    queue: the pool stays usable and {!shutdown} always joins.

    Cancellation is cooperative and rides on {!Budget}: give racing
    tasks budgets created with the same [cancel : bool Atomic.t]
    ({!Budget.create}/{!Budget.child}), and flip the flag once —
    every checkpoint in every worker raises
    [Budget.Expired Cancelled] at its next poll.  The pool itself
    never kills a domain preemptively.

    Do not {!await} from inside a pool task of the same pool: with
    every worker blocked on a queued task the wait can deadlock.
    Nested parallelism gets its own (short-lived) pool. *)

type t

val create : jobs:int -> t
(** Spawn [jobs] worker domains (>= 1).  Domains are an OS-level
    resource; prefer one pool per run over one per solve, and
    {!shutdown} when done. *)

val size : t -> int
(** Worker count the pool was created with. *)

type 'a future

val submit : ?on_done:(unit -> unit) -> t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  @raise Invalid_argument after {!shutdown}.

    [on_done] is a completion hook.  It runs on the worker domain once
    the task's outcome is stored in the future and the future's lock
    is released, so a {!poll} it prompts already sees [Some].  It runs
    outside every pool lock.  It must neither raise nor block: it
    delays the worker's next task, and an exception it raises is
    dropped (so the worker survives) along with whatever the hook had
    left to do.  The serve daemon's hook writes one byte to a wake
    pipe. *)

val await : 'a future -> 'a
(** Block until the task completed; re-raises the task's exception
    (original backtrace preserved) if it failed. *)

val await_result : 'a future -> ('a, exn) result
(** Non-raising {!await}. *)

val poll : 'a future -> ('a, exn) result option
(** Non-blocking completion probe: [None] while the task is still
    pending or queued, [Some] once it finished.  The serve daemon's
    event loop drains completed solves with this whenever a task's
    [on_done] hook wakes it — it must never block on one client's
    future while another client waits. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one task per element, await in order.  Re-raises the first
    (in list order) failing task's exception. *)

val run_all : t -> (unit -> 'a) list -> ('a, exn) result list
(** Submit every thunk, await all, return per-task outcomes in order —
    no exception escapes, so one poisoned task cannot hide the
    others' results. *)

val shutdown : t -> unit
(** Stop accepting tasks, drain the queue, join every worker.
    Idempotent.  Already-queued tasks still run. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exceptions). *)

val default_jobs : unit -> int
(** The parallelism degree everything defaults to: an explicit
    {!set_default_jobs} (the CLI's [--jobs]) if any, else the
    [DSP_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for this process (>= 1). *)
