type action = Raise | Stall of float | Corrupt | Short
type plan = { site : string; action : action; after : int }

exception Injected of string

(* Hit and fired state is atomic so a plan stays one-shot when the
   instrumented site is being hammered from several pool workers at
   once: fetch_and_add hands every hit a unique ordinal, so exactly
   one worker observes ordinal = after, and the compare_and_set on
   [fired] is belt-and-braces on top. *)
type state = { plan : plan; hits : int Atomic.t; fired : bool Atomic.t }

let current : state option Atomic.t = Atomic.make None
let pending_corruption = Atomic.make false

(* IO-layer twin of [pending_corruption]: a fired Short plan asks the
   next WAL append to write only a prefix of its record and then die,
   modelling a crash mid-write (torn tail). *)
let pending_short = Atomic.make false

let fire (p : plan) =
  match p.action with
  | Raise -> raise (Injected (Printf.sprintf "injected fault at %s (hit %d)" p.site p.after))
  | Stall s -> Unix.sleepf s
  | Corrupt -> Atomic.set pending_corruption true
  | Short -> Atomic.set pending_short true

let on_hit name =
  match Atomic.get current with
  | None -> ()
  | Some st ->
      if (not (Atomic.get st.fired)) && String.equal name st.plan.site then begin
        let ordinal = 1 + Atomic.fetch_and_add st.hits 1 in
        if ordinal = st.plan.after && Atomic.compare_and_set st.fired false true
        then fire st.plan
      end

let arm plan =
  if plan.after < 1 then invalid_arg "Fault.arm: after must be >= 1";
  Atomic.set current
    (Some { plan; hits = Atomic.make 0; fired = Atomic.make false });
  Atomic.set pending_corruption false;
  Atomic.set pending_short false;
  Instr.set_on_hit (Some on_hit)

let disarm () =
  Atomic.set current None;
  Atomic.set pending_corruption false;
  Atomic.set pending_short false;
  Instr.set_on_hit None

let fired () =
  match Atomic.get current with Some st -> Atomic.get st.fired | None -> false

let take_corruption () = Atomic.exchange pending_corruption false
let take_short_write () = Atomic.exchange pending_short false

let default_stall_ms = 200

let parse_action s =
  if s = "raise" then Ok Raise
  else if s = "corrupt" then Ok Corrupt
  else if s = "short" then Ok Short
  else if s = "stall" then Ok (Stall (float_of_int default_stall_ms /. 1000.))
  else if String.length s > 5 && String.sub s 0 5 = "stall" then
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some ms when ms >= 0 -> Ok (Stall (float_of_int ms /. 1000.))
    | _ -> Error (Printf.sprintf "bad stall duration in %S" s)
  else
    Error
      (Printf.sprintf "unknown fault action %S (raise|stall[MS]|corrupt|short)" s)

(* Site names in user-facing specs are validated against the
   canonical [Instr.Sites] table: a typo'd site would otherwise arm a
   plan that can never fire and read as "the fault was absorbed".
   [arm] stays open-vocabulary so tests can instrument ad-hoc
   "test.*" counters. *)
let parse_site site =
  if Instr.Sites.mem site then Ok site
  else
    Error
      (Printf.sprintf "unknown instrumentation site %S (known: %s)" site
         (String.concat ", " Instr.Sites.all))

let parse_spec spec =
  match String.split_on_char ':' spec with
  | ([ site; action ] | [ site; action; _ ]) when site = "" || action = "" ->
      Error (Printf.sprintf "bad fault spec %S (want SITE:ACTION[:AFTER])" spec)
  | [ site; action ] -> (
      match (parse_site site, parse_action action) with
      | Ok site, Ok action -> Ok { site; action; after = 1 }
      | Error e, _ | _, Error e -> Error e)
  | [ site; action; after ] -> (
      match (parse_site site, parse_action action, int_of_string_opt after) with
      | Ok site, Ok action, Some after when after >= 1 -> Ok { site; action; after }
      | Ok _, Ok _, _ -> Error (Printf.sprintf "bad fault trigger count %S" after)
      | (Error e, _, _ | _, Error e, _) -> Error e)
  | _ -> Error (Printf.sprintf "bad fault spec %S (want SITE:ACTION[:AFTER])" spec)

let action_to_string = function
  | Raise -> "raise"
  | Corrupt -> "corrupt"
  | Short -> "short"
  | Stall s -> Printf.sprintf "stall%d" (int_of_float (Float.round (s *. 1000.)))

let spec_to_string p =
  Printf.sprintf "%s:%s:%d" p.site (action_to_string p.action) p.after
