(** Fault-tolerant solver execution: typed outcomes, declarative
    fallback chains, and parallel racing over the {!Registry}.

    {!run_one} is the one way to run a solver: every caller — CLI,
    daemon, benchmarks, tests — goes through it, and it alone builds
    a {!Report.t}.  It classifies every way a solve can go wrong —
    deadline, node budget, cooperative cancellation, escaped exception
    (including {!Dsp_util.Fault.Injected} faults), invalid result —
    into a typed {!failure} that still carries the partial
    {!Dsp_util.Instr} deltas and elapsed time, so crashed solves
    remain observable.  {!solve}
    runs a fallback chain (e.g. [exact-bb -> approx54 -> bfd-height])
    sequentially, giving each stage a slice of the remaining deadline;
    {!race} runs the same chain concurrently on a domain pool under
    one shared wall-clock deadline — the first stage to produce a
    {e validated} report wins and the losers are cancelled
    cooperatively.  Both are total: the final heuristic safety net
    cannot time out or fail validation without raising, so a validated
    report always comes back, annotated with the full failure
    provenance of the stages that fell through. *)

open Dsp_core

type failure_kind =
  | Timeout  (** cooperative deadline cancellation fired *)
  | Budget_exhausted of string
      (** the node cap ran out ({!Dsp_util.Budget.Expired} [Nodes]);
          the detail reads ["budget node cap N"] *)
  | Solver_error of string  (** an exception escaped the solver *)
  | Invalid_result of string  (** {!Report.make} rejected the packing *)
  | Cancelled
      (** the shared cancel flag was flipped — a racing sibling won *)

type failure = {
  solver : string;
  kind : failure_kind;
  seconds : float;  (** elapsed up to the failure *)
  counters : (string * int) list;
      (** partial {!Dsp_util.Instr} deltas — work done before dying *)
}

type outcome = (Report.t, failure) result

val kind_name : failure_kind -> string
(** ["timeout"] / ["budget"] / ["error"] / ["invalid"] /
    ["cancelled"]. *)

val pp_failure : Format.formatter -> failure -> unit

val run_one :
  ?timeout_ms:int ->
  ?node_budget:int ->
  ?cancel:bool Atomic.t ->
  Solver.t ->
  Instance.t ->
  outcome
(** One budgeted solve with the full outcome taxonomy: it creates
    the budget (node cap [node_budget], default
    {!Solver.default_node_budget}; deadline [timeout_ms], default
    none), times the solve, attributes the {!Dsp_util.Instr} counter
    deltas and validates the packing.  Never raises for
    solver-induced reasons: {!Dsp_util.Budget.Expired} and arbitrary
    solver exceptions all map to [Error].  A pending {!Dsp_util.Fault}
    corruption is applied to the returned packing before validation,
    which then rejects it ([Invalid_result]) — proving the validation
    boundary holds.  The optional [cancel] flag threads into the
    solve's budget: flipping it (from any domain) surfaces as a
    [Cancelled] failure at the next checkpoint — this is how {!race}
    reels in its losers. *)

type resolution = {
  report : Report.t;
  winner : string;  (** solver that produced [report] *)
  failures : failure list;  (** stages that fell through, in order *)
  safety_net : bool;
      (** [report] came from the implicit final heuristic, not the
          chain *)
}

val solve :
  ?timeout_ms:int ->
  ?node_budget:int ->
  ?chain:Solver.t list ->
  Instance.t ->
  resolution
(** Run the fallback chain (default {!default_chain}) sequentially
    under one overall deadline.  Stage [i] of [k] (from 0) gets an
    equal slice [remaining/(k - i)] of whatever deadline remains, so
    an early finisher donates its unused time downstream — a policy
    that is only correct because the stages run one after another;
    the concurrent path is {!race}.  If every stage fails, a
    last-resort un-budgeted ["bfd-height"] solve (polynomial,
    checkpoint-free — it cannot time out) makes the function total.
    @raise Invalid_argument on an empty [chain]. *)

val race :
  ?timeout_ms:int ->
  ?node_budget:int ->
  ?chain:Solver.t list ->
  pool:Dsp_util.Pool.t ->
  Instance.t ->
  resolution
(** Run the chain concurrently on [pool] under a {e single} shared
    wall-clock deadline — every racer gets whatever truly remains of
    [timeout_ms] when a worker picks it up, never a per-stage slice.
    The first solver to return a {e validated} report wins
    ([resolution.winner]); the rest are cancelled cooperatively
    through the shared budget flag and show up in
    [resolution.failures] as [Cancelled] (or whatever genuinely
    failed first).  Pool workers absorb all task exceptions, so a
    poisoned stage cannot hang or crash the race.  If no stage
    validates, the same safety net as {!solve} applies.  The winner is
    timing-dependent by nature (the answer is always a validated
    report, but which stage produced it is not deterministic), and a
    raced report's counter deltas measure the whole portfolio's
    concurrent work, not just the winner's.
    @raise Invalid_argument on an empty [chain]. *)

val default_chain : unit -> Solver.t list
(** [exact-bb -> approx54 -> bfd-height]: exact within the budget,
    else the (5/4+ε) approximation, else the greedy baseline. *)

val parse_chain : string -> (Solver.t list, string) result
(** Comma-separated registry names, e.g.
    ["exact-bb,approx54,bfd-height"].  Unknown names are an [Error]
    listing the registry. *)

val chain_to_string : Solver.t list -> string
