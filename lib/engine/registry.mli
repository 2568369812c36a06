(** The central solver registry — the single source of truth for
    "which algorithms exist".

    The CLI ([dsp list]/[solve]/[compare]), the benchmark harness, and
    the registry-wide test suite all enumerate this table; registering
    a solver here is the only step needed for it to appear everywhere.
    The built-in solvers (baselines, [approx53]/[approx54], the exact
    branch and bound, and the PTS-duality solver) are registered at
    module initialisation.

    This registry subsumes the per-consumer algorithm tables that the
    CLI, [Baselines.all], and the bench harness used to keep. *)

exception Duplicate of string

val register : Solver.t -> unit
(** @raise Duplicate if a solver with the same name is already
    registered — names are the registry key. *)

val all : unit -> Solver.t list
(** Every registered solver, in registration order. *)

val find : string -> Solver.t option
val find_exn : string -> Solver.t
val names : unit -> string list

val heuristics : unit -> Solver.t list
(** Solvers that always terminate quickly: everything not tagged
    [Exponential].  The replacement for the deprecated
    [Dsp_algo.Baselines.all] plus the approximation algorithms. *)
