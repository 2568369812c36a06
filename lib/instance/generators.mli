(** Random workload generators.

    All generators are deterministic functions of the supplied
    {!Dsp_util.Rng.t}, so every experiment is reproducible from its
    seed. *)

open Dsp_core

val uniform :
  Dsp_util.Rng.t ->
  n:int ->
  width:int ->
  max_w:int ->
  max_h:int ->
  Instance.t
(** [n] items with widths uniform in [1, max_w] and heights uniform in
    [1, max_h]. *)

val correlated :
  Dsp_util.Rng.t -> n:int -> width:int -> max_w:int -> max_h:int -> Instance.t
(** Widths and heights positively correlated (tall items tend to be
    wide), which produces harder packing instances than {!uniform}. *)

val tall_and_flat :
  Dsp_util.Rng.t -> n:int -> width:int -> max_h:int -> Instance.t
(** A mix of narrow/tall and wide/flat items, exercising the item
    classification of the (5/4+ε) algorithm. *)

val perfect_fit : Dsp_util.Rng.t -> width:int -> height:int -> cuts:int -> Instance.t
(** Recursively slices the [width x height] rectangle with [cuts]
    guillotine cuts into items; by construction the instance has a
    perfect (zero-waste) classical packing of height [height], hence
    OPT_SP = OPT_DSP = [height].  Ideal for ratio experiments because
    OPT is known without search. *)

val uniform_pts :
  Dsp_util.Rng.t -> n:int -> machines:int -> max_p:int -> Pts.Inst.t
(** Random PTS instance: processing times in [1, max_p], machine
    requirements in [1, machines]. *)
