(** The central solver registry — the single source of truth for
    "which algorithms exist".

    The CLI ([dsp list]/[solve]/[compare]), the benchmark harness, and
    the registry-wide test suite all enumerate this table; adding a
    solver to it is the only step needed for it to appear everywhere.
    The table is a fixed list (baselines, [approx53]/[approx54], the
    exact branch and bound and its parallel variant, and the
    PTS-duality solver) with unique names, the registry key.

    This registry subsumes the per-consumer algorithm tables that the
    CLI, [Baselines.all], and the bench harness used to keep. *)

val all : unit -> Solver.t list
(** Every solver, in display order. *)

val find : string -> Solver.t option
val find_exn : string -> Solver.t
val names : unit -> string list

val heuristics : unit -> Solver.t list
(** Solvers that always terminate quickly: everything not tagged
    [Exponential].  The replacement for the deprecated
    [Dsp_algo.Baselines.all] plus the approximation algorithms. *)
