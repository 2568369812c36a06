(** Validated solve reports.

    A [Report.t] is the one result type every solver pipeline —
    CLI, benchmarks, tests — produces and consumes, and
    {!Dsp_engine.Runner.run_one} is the one place that builds it.
    Construction re-validates the packing
    ({!Dsp_core.Packing.validate}) and checks it answers the instance
    that was actually posed, so an invalid packing escaping any
    algorithm becomes a typed failure at the engine boundary instead
    of silently scoring. *)

open Dsp_core

type t = private {
  solver : string;  (** registry name of the producing solver *)
  packing : Packing.t;
  peak : int;  (** profile peak of [packing] — the DSP objective *)
  lower_bound : int;  (** {!Dsp_core.Instance.lower_bound} of the instance *)
  ratio : float;  (** [peak / max 1 lower_bound]; 1.0 for empty instances *)
  seconds : float;  (** wall-clock of the solve *)
  counters : (string * int) list;
      (** {!Dsp_util.Instr} counter deltas attributed to this solve,
          sorted by name (e.g. ["segtree.range_add"], ["bb.nodes"],
          ["simplex.pivots"], ["approx54.guesses"]). *)
}

val make :
  solver:string ->
  instance:Instance.t ->
  packing:Packing.t ->
  seconds:float ->
  counters:(string * int) list ->
  (t, string) result
(** Validates before constructing: the packing must (1) belong to
    [instance] — same width and item multiset, so a solver cannot
    drop, duplicate, or resize items — and (2) pass
    {!Dsp_core.Packing.validate}.  The [Error] carries a descriptive
    message naming the solver and the violated invariant. *)

val counter : t -> string -> int
(** Value of one counter delta; 0 when absent. *)

