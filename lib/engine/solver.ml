open Dsp_core

type family = Baseline | Approx | Exact | Pts
type complexity = Poly | Pseudo_poly | Exponential

type t = {
  name : string;
  family : family;
  complexity : complexity;
  doc : string;
  solve : budget:Dsp_util.Budget.t -> Instance.t -> Packing.t;
}

let family_name = function
  | Baseline -> "baseline"
  | Approx -> "approx"
  | Exact -> "exact"
  | Pts -> "pts"

let complexity_name = function
  | Poly -> "poly"
  | Pseudo_poly -> "pseudo-poly"
  | Exponential -> "exponential"

let default_node_budget = 2_000_000
