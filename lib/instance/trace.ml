open Dsp_core

type event = Arrive of { w : int; h : int } | Depart of { arrival : int }
type t = { width : int; events : event list }

type error_kind =
  | Empty_input
  | Bad_header of string
  | Bad_cap of int
  | Bad_event of string
  | Bad_number of string
  | Bad_dimension of int * int
  | Too_wide of int * int
  | Unknown_arrival of int
  | Departed_twice of int

type error = { line : int; kind : error_kind }

let error_to_string { line; kind } =
  let at = if line > 0 then Printf.sprintf "line %d: " line else "" in
  let body =
    match kind with
    | Empty_input -> "empty input"
    | Bad_header h -> Printf.sprintf "bad header %S (want \"trace <width>\")" h
    | Bad_cap c -> Printf.sprintf "width must be >= 1, got %d" c
    | Bad_event l ->
        Printf.sprintf "expected \"+ <w> <h>\" or \"- <arrival>\", got %S" l
    | Bad_number tok -> Printf.sprintf "not an integer: %S" tok
    | Bad_dimension (w, h) ->
        Printf.sprintf "dimensions must be >= 1, got %d x %d" w h
    | Too_wide (v, cap) ->
        Printf.sprintf "demand %d exceeds the capacity %d of the header" v cap
    | Unknown_arrival k ->
        Printf.sprintf "departure of arrival %d, which has not arrived" k
    | Departed_twice k ->
        Printf.sprintf "departure of arrival %d, which already departed" k
  in
  at ^ body

let err ~line kind = Error { line; kind }

(* One pass over the events checking what the parser checks, with the
   given per-event source lines for attribution (line 0 for in-memory
   traces). *)
let check_events ~width events lines =
  let departed = Hashtbl.create 16 in
  let rec go arrivals events lines =
    match events with
    | [] -> Ok ()
    | ev :: rest ->
        let line, lines =
          match lines with [] -> (0, []) | l :: ls -> (l, ls)
        in
        let continue arrivals = go arrivals rest lines in
        (match ev with
        | Arrive { w; h } ->
            if w < 1 || h < 1 then err ~line (Bad_dimension (w, h))
            else if w > width then err ~line (Too_wide (w, width))
            else continue (arrivals + 1)
        | Depart { arrival } ->
            if arrival < 0 || arrival >= arrivals then
              err ~line (Unknown_arrival arrival)
            else if Hashtbl.mem departed arrival then
              err ~line (Departed_twice arrival)
            else begin
              Hashtbl.add departed arrival ();
              continue arrivals
            end)
  in
  go 0 events lines

let validate t =
  if t.width < 1 then err ~line:0 (Bad_cap t.width)
  else check_events ~width:t.width t.events []

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "trace %d\n" t.width);
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (match ev with
        | Arrive { w; h } -> Printf.sprintf "+ %d %d\n" w h
        | Depart { arrival } -> Printf.sprintf "- %d\n" arrival))
    t.events;
  Buffer.contents buf

let of_string s =
  match Io.relevant_lines s with
  | [] -> err ~line:0 Empty_input
  | (line_no, header) :: rest -> (
      match Io.tokens header with
      | [ "trace"; v ] -> (
          match int_of_string_opt v with
          | None -> err ~line:line_no (Bad_number v)
          | Some width when width < 1 -> err ~line:line_no (Bad_cap width)
          | Some width -> (
              let parse_line (line_no, line) =
                match Io.tokens line with
                | [ "+"; a; b ] -> (
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some w, Some h -> Ok (line_no, Arrive { w; h })
                    | None, _ -> err ~line:line_no (Bad_number a)
                    | _, None -> err ~line:line_no (Bad_number b))
                | [ "-"; a ] -> (
                    match int_of_string_opt a with
                    | Some k -> Ok (line_no, Depart { arrival = k })
                    | None -> err ~line:line_no (Bad_number a))
                | _ -> err ~line:line_no (Bad_event line)
              in
              let rec parse acc = function
                | [] -> Ok (List.rev acc)
                | l :: ls -> (
                    match parse_line l with
                    | Error e -> Error e
                    | Ok ev -> parse (ev :: acc) ls)
              in
              match parse [] rest with
              | Error e -> Error e
              | Ok tagged -> (
                  let events = List.map snd tagged in
                  let lines = List.map fst tagged in
                  match check_events ~width events lines with
                  | Error e -> Error e
                  | Ok () -> Ok { width; events })))
      | _ -> err ~line:line_no (Bad_header header))

let n_arrivals t =
  List.length
    (List.filter (function Arrive _ -> true | Depart _ -> false) t.events)

let n_departures t =
  List.length
    (List.filter (function Arrive _ -> false | Depart _ -> true) t.events)

let arrival_dims t =
  List.filter_map
    (function Arrive { w; h } -> Some (w, h) | Depart _ -> None)
    t.events

let live_instance t =
  let dims = Array.of_list (arrival_dims t) in
  let live = Array.make (Array.length dims) true in
  List.iter
    (function Depart { arrival } -> live.(arrival) <- false | Arrive _ -> ())
    t.events;
  let idx = ref [] and kept = ref [] in
  Array.iteri
    (fun i d ->
      if live.(i) then begin
        idx := i :: !idx;
        kept := d :: !kept
      end)
    dims;
  (Instance.of_dims ~width:t.width (List.rev !kept), List.rev !idx)

(* ----- generators --------------------------------------------------- *)

let of_instance ?shuffle (inst : Instance.t) =
  let items = Array.map (fun (it : Item.t) -> (it.w, it.h)) inst.Instance.items in
  (match shuffle with None -> () | Some rng -> Dsp_util.Rng.shuffle rng items);
  {
    width = inst.Instance.width;
    events = Array.to_list (Array.map (fun (w, h) -> Arrive { w; h }) items);
  }

let gap_arrivals rng ~scale = of_instance ~shuffle:rng (Gap_family.instance ~scale)

let smartgrid rng ~households ~departures =
  let module Sg = Dsp_smartgrid.Smartgrid in
  let runs =
    List.stable_sort
      (fun (a : Sg.run) (b : Sg.run) -> compare a.arrival b.arrival)
      (Sg.simulate_day rng ~households)
  in
  let width = Sg.slots_per_day in
  (* Timestamped stream: each run arrives at its arrival slot; with
     churn enabled it departs a few multiples of its duration later,
     when that still falls within the day.  At a given slot departures
     free demand before new arrivals claim it.  The sort key
     (slot, class, sequence) keeps the construction deterministic. *)
  let stamped = ref [] in
  List.iteri
    (fun k (r : Sg.run) ->
      let d = r.appliance.duration and p = r.appliance.power in
      stamped := (r.arrival, 1, k, Arrive { w = d; h = p }) :: !stamped;
      if departures then begin
        let off = r.arrival + (d * Dsp_util.Rng.int_in rng 2 4) in
        if off < width then
          stamped := (off, 0, k, Depart { arrival = k }) :: !stamped
      end)
    runs;
  let stamped =
    List.sort
      (fun (t1, c1, s1, _) (t2, c2, s2, _) -> compare (t1, c1, s1) (t2, c2, s2))
      !stamped
  in
  { width; events = List.map (fun (_, _, _, ev) -> ev) stamped }

let churn rng ~width ~n =
  if width < 1 then invalid_arg "Trace.churn: width must be >= 1";
  if n < 0 then invalid_arg "Trace.churn: n must be >= 0";
  let events = ref [] and live = ref [] in
  for k = 0 to n - 1 do
    let w = Dsp_util.Rng.int_in rng 1 (max 1 (width / 3)) in
    let h = Dsp_util.Rng.int_in rng 1 50 in
    events := Arrive { w; h } :: !events;
    live := k :: !live;
    if Dsp_util.Rng.int rng 3 = 0 then begin
      let alive = Array.of_list !live in
      let victim = Dsp_util.Rng.choose rng alive in
      live := List.filter (fun i -> i <> victim) !live;
      events := Depart { arrival = victim } :: !events
    end
  done;
  { width; events = List.rev !events }
