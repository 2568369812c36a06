(** Smart-grid workload model (the paper's §1 motivation).

    The paper has no dataset — smart grids are its application story —
    so this module provides the synthetic substrate for experiment
    E10: a day of [slots_per_day] 15-minute slots, households drawing
    appliances from a catalogue with realistic duration/power mixes,
    a naive schedule (every appliance starts when its owner presses
    the button), and the DSP view of the same demands where a
    scheduler may shift each run anywhere in the day.

    Power is in units of 100 W, durations in slots; an appliance run
    of duration [d] and power [p] is exactly a DSP item of width [d]
    and height [p]. *)

open Dsp_core

val slots_per_day : int
(** 96 (15-minute slots). *)

type appliance = {
  name : string;
  duration : int;  (** slots *)
  power : int;  (** units of 100 W *)
  daily_probability : float;  (** chance a household runs it on a day *)
  preferred_slot : int;  (** centre of the naive arrival distribution *)
}

type run = { appliance : appliance; arrival : int }
(** One requested appliance run and the slot its owner started it. *)

val simulate_day : Dsp_util.Rng.t -> households:int -> run list
(** Draw a day of demands: each household rolls every catalogue entry
    independently; arrivals are normal-ish around the appliance's
    preferred slot. *)

val to_instance : run list -> Instance.t
(** Forget arrivals: the DSP instance of the day. *)

val naive_packing : run list -> Packing.t
(** Every run starts at its arrival slot (clamped to fit the day). *)

type report = {
  runs : int;
  naive_peak : int;
  scheduled_peak : int;
  lower_bound : int;
  reduction_percent : float;
  naive_cost : int;
  scheduled_cost : int;
}

val evaluate : run list -> scheduler:(Instance.t -> Packing.t) -> report
(** Compare the naive schedule with the given DSP scheduler.  Cost is
    the quadratic congestion proxy Σₜ load(t)² — convex, so peak
    shaving lowers it. *)
