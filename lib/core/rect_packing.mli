(** Classical (unsliced) Strip Packing solutions.

    Unlike DSP packings, classical strip packings place each item as a
    solid axis-aligned rectangle: every item has an x and a y
    coordinate and no two rectangles may overlap.  These are used by
    the Steinberg substrate, the SP baselines, and the integrality-gap
    experiment E1/E12.

    A classical packing induces a valid DSP packing of the same height
    by forgetting the y coordinates (slicing can only help), see
    {!to_dsp}. *)

type pos = { x : int; y : int }

type t = private { instance : Instance.t; positions : pos array }

val make : Instance.t -> pos array -> t
(** @raise Invalid_argument on overlap or overhang. *)

val instance : t -> Instance.t
val position : t -> int -> pos
val height : t -> int

val validate : t -> (unit, string) result

val to_dsp : t -> Packing.t
(** Forget y coordinates; the DSP height is at most {!height}. *)

val pp : Format.formatter -> t -> unit
