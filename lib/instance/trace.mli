(** Arrival/departure traces for online (incremental) DSP.

    A trace is the input of an incremental solve session
    ([Dsp_engine.Session]): a strip width and an ordered stream of
    events — items arriving (to be placed immediately, without
    knowledge of the future) and items departing (freeing their
    demand).  Departures name the 0-based position of the arrival they
    cancel, counted over the [Arrive] events of the trace, so a trace
    is self-contained and replayable without any session state.

    Serialization is line oriented, in the style of {!Io} ([#] starts
    a comment):
    {v
    trace <width>
    + <w> <h>      an item of width w and height h arrives
    - <k>          the k-th arrival (0-based) departs
    v}
    Parsing mirrors {!Io}'s hardened parsing: typed errors carrying
    the 1-based line number of the offending line in the original
    text, dimension and capacity checks against the header width, and
    stream-consistency checks (departures must name an arrival that
    exists and is still live). *)

open Dsp_core

type event =
  | Arrive of { w : int; h : int }
  | Depart of { arrival : int }
      (** 0-based index into the trace's [Arrive] events *)

type t = { width : int; events : event list }

type error_kind =
  | Empty_input  (** no non-comment lines at all *)
  | Bad_header of string  (** first line is not [trace <width>] *)
  | Bad_cap of int  (** header width below 1 *)
  | Bad_event of string  (** a line that is neither [+ w h] nor [- k] *)
  | Bad_number of string  (** a token that is not an integer *)
  | Bad_dimension of int * int  (** a non-positive arrival width or height *)
  | Too_wide of int * int  (** [(w, width)]: arrival wider than the strip *)
  | Unknown_arrival of int  (** departure of an arrival not yet seen *)
  | Departed_twice of int  (** departure of an already-departed arrival *)

type error = { line : int; kind : error_kind }

val error_to_string : error -> string
(** Human-readable rendering, prefixed with ["line N: "] when
    [line > 0]. *)

(* lint: ok R10 the stream invariants the trace fuzz tests hold of_string to *)
val validate : t -> (unit, error) result
(** Check the stream invariants of an in-memory trace (dimensions,
    capacity, departure references).  Errors carry [line = 0];
    generated traces satisfy this by construction. *)

val to_string : t -> string
val of_string : string -> (t, error) result

val n_arrivals : t -> int
val n_departures : t -> int

val live_instance : t -> Instance.t * int list
(** The instance of the arrivals still live after the whole trace,
    paired with their original arrival indices (in arrival order) —
    the offline yardstick for traces with departures.  Item ids are
    re-numbered densely. *)

(** {2 Generators}

    All generators draw exclusively from the given {!Dsp_util.Rng.t},
    so traces replay bit-identically from a seed. *)

val of_instance : ?shuffle:Dsp_util.Rng.t -> Instance.t -> t
(** Arrivals-only trace of the instance's items, in item order, or in
    a uniformly random order when [shuffle] is given. *)

val gap_arrivals : Dsp_util.Rng.t -> scale:int -> t
(** The {!Gap_family} witness instance at the given height scale,
    arriving in a uniformly random order (arrivals only) — the
    adversarial family where greedy online placement pays for not
    knowing the future. *)

val smartgrid : Dsp_util.Rng.t -> households:int -> departures:bool -> t
(** A replayed smart-grid day ({!Dsp_smartgrid.Smartgrid}): appliance
    runs arrive in the order their owners press the button.  With
    [departures = true] each run also switches off a few multiples of
    its duration later (when that falls within the day), so the live
    demand set churns; departures at a slot precede that slot's
    arrivals. *)

val churn : Dsp_util.Rng.t -> width:int -> n:int -> t
(** [n] uniform random arrivals (width up to a third of the strip);
    after each, with probability ~1/3, a uniformly chosen live item
    departs.  Exercises the full event vocabulary for tests and
    smoke runs. *)
