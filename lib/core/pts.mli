(** Parallel Task Scheduling (PTS).

    Jobs require a number of machines for a processing time; a schedule
    assigns each job a start (σ) and a concrete machine set (ρ).  The
    makespan is the latest finishing time.  Theorem 1 of the paper
    shows PTS and DSP are duals: jobs correspond to items with
    [w = p] and [h = q], machines to strip height, makespan to strip
    width. *)

module Job : sig
  type t = { id : int; p : int; q : int }
  (** [p >= 1] processing time, [q >= 1] required machines. *)

  val make : id:int -> p:int -> q:int -> t
  val work : t -> int
  (** [p * q]. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Inst : sig
  type t = private { machines : int; jobs : Job.t array }

  val make : machines:int -> Job.t array -> t
  (** Re-ids jobs to array positions.
      @raise Invalid_argument if a job needs more machines than
      available. *)

  val of_dims : machines:int -> (int * int) list -> t
  (** [(p, q)] pairs. *)

  val n_jobs : t -> int
  val job : t -> int -> Job.t

  val work_lower_bound : t -> int
  (** ⌈total work / machines⌉. *)

  val max_time : t -> int

  val lower_bound : t -> int
  (** max of work bound, longest job, and the stacking bound for jobs
      with [2q > m]. *)

  val pp : Format.formatter -> t -> unit
end

module Schedule : sig
  type t = private {
    inst : Inst.t;
    sigma : int array; (* start time per job *)
    rho : int list array; (* machine set per job, machines in 0..m-1 *)
  }

  val make : Inst.t -> sigma:int array -> rho:int list array -> t
  (** @raise Invalid_argument if any validity condition fails (see
      {!error}). *)

  val error : Inst.t -> sigma:int array -> rho:int list array -> string option
  (** [None] iff: each job gets exactly [q] distinct machines in
      range, starts are non-negative, and no machine runs two
      overlapping jobs. *)

  val makespan : t -> int
  val validate : t -> (unit, string) result

  val render : t -> string
  (** ASCII Gantt chart, one text row per machine. *)

  val pp : Format.formatter -> t -> unit
end
