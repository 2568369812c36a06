(** Solver descriptions.

    A solver is a named, tagged packing algorithm.  Its [solve] field
    is the raw algorithm; {!Dsp_engine.Runner.run_one} is the one way
    to execute it: it creates the budget, snapshots the
    {!Dsp_util.Instr} counters, validates the packing and builds the
    {!Report.t}, or classifies the failure. *)

open Dsp_core

type family =
  | Baseline  (** greedy / classical heuristics (BFD, first fit, Steinberg) *)
  | Approx  (** the paper's structured approximation algorithms *)
  | Exact  (** complete search for the true optimum *)
  | Pts  (** solvers routed through the PTS duality of Theorem 1 *)

type complexity = Poly | Pseudo_poly | Exponential

type t = {
  name : string;
  family : family;
  complexity : complexity;
  doc : string;  (** one-line description for [dsp list] *)
  solve : budget:Dsp_util.Budget.t -> Instance.t -> Packing.t;
      (** [budget] carries the wall-clock deadline and node cap.
          Exponential solvers thread it into their hot loops, whose
          checkpoints raise {!Dsp_util.Budget.Expired} when it runs
          out (the parallel search counts all its workers' nodes
          against {!Dsp_util.Budget.node_cap} and raises
          [Expired Nodes] the same way).  Polynomial solvers may
          ignore it (they terminate fast regardless). *)
}

val family_name : family -> string
val complexity_name : complexity -> string

val default_node_budget : int
(** Node cap {!Dsp_engine.Runner.run_one} applies when the caller
    gives none (2,000,000 — small enough to return promptly on small
    instances, large enough to solve them). *)
