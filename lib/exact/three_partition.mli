(** Exact solver for 3-Partition.

    Decides whether [3k] numbers can be split into [k] triples each
    summing to [bound].  Backtracking over the lexicographically first
    unused element with triple-completion search and duplicate
    pruning; exponential in the worst case (the problem is strongly
    NP-complete — that blow-up is itself measured by experiment E4)
    but fast for the experiment sizes (k ≤ 8). *)

val solve :
  ?budget:Dsp_util.Budget.t ->
  numbers:int array ->
  bound:int ->
  unit ->
  (int * int * int) array option
(** Triples of indices into [numbers], or [None] if no partition
    exists.  The optional [budget] is checked at every node:
    {!Dsp_util.Budget.Expired} escapes to the caller.
    @raise Invalid_argument if the array length is not a multiple of 3
    or the sum is not [k * bound]. *)

val count_nodes :
  ?budget:Dsp_util.Budget.t -> numbers:int array -> bound:int -> unit -> bool * int
(** Decision result together with the number of search nodes visited,
    for the hardness-cost experiment. *)
