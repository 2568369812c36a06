(* Incremental solve sessions.  The profile is the only geometric
   state.  The live items sit in one flat int array, four cells per
   entry (id, w, h, start) in arrival order, so ids ascend and an id is
   found by binary search.  A departure marks its entry (w = 0), and
   [depart_result] squeezes the marked entries out in place once they
   outnumber a quarter of the live ones: nothing is kept per departed
   arrival, and an id below [n_arrived] with no live entry has
   departed.  Every walk (the repair scan, [live_items]) is O(live). *)

open Dsp_core

let c_arrivals = Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_arrivals

let c_departures =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_departures

let c_migrations =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_migrations

let c_trials =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_migration_trials

let c_scan = Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_scan_entries

type t = {
  swidth : int;
  sprofile : Profile.t;
  mutable ents : int array;
      (* [n_ents] entries at cell offsets 0, 4, 8, ...: id, w, h, start;
         w = 0 marks a departed entry not yet compacted away *)
  mutable n_ents : int;
  mutable cand : int array;  (* repair candidates: cell offsets in [ents] *)
  mutable n_arrived : int;
  mutable n_live : int;
  mutable n_departed : int;
  mutable n_migrations : int;
  mutable spolicy : policy;
}

and placement = { start : int; migrations : (int * int) list }

and policy = {
  pname : string;
  pdoc : string;
  place : budget:Dsp_util.Budget.t option -> t -> Item.t -> placement;
}

let width t = t.swidth
let profile t = t.sprofile
let peak t = Profile.peak t.sprofile

(* Cell offset of the live entry of [id], or -1 when the id never
   arrived or its item departed. *)
let live_offset t id =
  if id < 0 || id >= t.n_arrived then -1
  else begin
    let e = t.ents and lo = ref 0 and hi = ref (t.n_ents - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if e.(4 * mid) < id then lo := mid + 1 else hi := mid
    done;
    let o = 4 * !lo in
    if !lo < t.n_ents && e.(o) = id && e.(o + 1) > 0 then o else -1
  end

let start_of t id =
  let o = live_offset t id in
  if o < 0 then None else Some t.ents.(o + 3)

let set_start t id s =
  if id < 0 || id >= t.n_arrived then
    invalid_arg "Session.set_start: unknown id";
  let o = live_offset t id in
  if o < 0 then invalid_arg "Session.set_start: item not live";
  t.ents.(o + 3) <- s

let live_items t =
  let e = t.ents and acc = ref [] in
  for i = t.n_ents - 1 downto 0 do
    let o = 4 * i in
    if e.(o + 1) > 0 then
      acc :=
        (e.(o), Item.make ~id:e.(o) ~w:e.(o + 1) ~h:e.(o + 2), e.(o + 3))
        :: !acc
  done;
  !acc

(* ----- built-in policies -------------------------------------------- *)

(* Leftmost window whose peak is minimal; total because items are
   validated against the strip width before placement. *)
let best_start_exn p (it : Item.t) =
  match Profile.best_start p ~len:it.w with
  | Some (s, _) -> s
  | None -> invalid_arg "Session: item wider than the strip"

let first_fit =
  {
    pname = "first-fit";
    pdoc =
      "leftmost start keeping the peak at max(current peak, item height); \
       best window as fallback";
    place =
      (fun ~budget:_ t it ->
        let p = t.sprofile in
        let limit = max (Profile.peak p) it.h in
        let s =
          match Profile.first_fit_start p ~len:it.w ~height:it.h ~budget:limit with
          | Some s -> s
          | None -> best_start_exn p it
        in
        Profile.add_item p it ~start:s;
        { start = s; migrations = [] });
  }

let best_fit_place ~budget:_ t (it : Item.t) =
  let p = t.sprofile in
  let s = best_start_exn p it in
  Profile.add_item p it ~start:s;
  { start = s; migrations = [] }

let best_fit =
  {
    pname = "best-fit";
    pdoc = "leftmost start minimizing the item's window peak (best_start)";
    place = best_fit_place;
  }

(* Live items whose span covers every peak column, i.e. all of
   [first, last]: their cell offsets go to [t.cand] and the count is
   returned.  No other item can lower the peak: one that misses a peak
   column leaves it at the peak.  And removing one of these drops every
   column below the peak, which is what lets [attempt] keep any
   destination it finds.  A departed entry (w = 0) never qualifies,
   since its span [s, s) covers nothing. *)
let covering t ~first ~last =
  let n = t.n_ents in
  if Array.length t.cand < n then
    (* lint: ok R7 — grows only after [ents] has, to its capacity *)
    t.cand <- Array.make (Array.length t.ents / 4) 0;
  let e = t.ents and cand = t.cand and c = ref 0 in
  for i = 0 to n - 1 do
    let o = 4 * i in
    let s = e.(o + 3) in
    if s <= first && last < s + e.(o + 1) then begin
      cand.(!c) <- o;
      incr c
    end
  done;
  Dsp_util.Instr.add c_scan n;
  !c

(* Index in [t.cand] of the tallest of the first [n] candidates, ties
   to the lowest id: removing a tall culprit is the move most likely to
   lower the global peak.  Ids are compared explicitly because [attempt]
   reorders the candidates it drops. *)
let tallest t n =
  let e = t.ents and cand = t.cand in
  let best = ref 0 and bh = ref e.(cand.(0) + 2) and bid = ref e.(cand.(0)) in
  for j = 1 to n - 1 do
    let o = cand.(j) in
    let h = e.(o + 2) in
    if h > !bh || (h = !bh && e.(o) < !bid) then begin
      best := j;
      bh := h;
      bid := e.(o)
    end
  done;
  !best

(* Try the [n] remaining candidates tallest first: remove one and
   re-place it first-fit with its window peak under [pk - 1]; an item
   with no such start goes back where it was and leaves the candidates.
   A found destination always lowers the global peak: the removal
   leaves every column below [pk], and the new window stays at most
   [pk - 1]. *)
let rec attempt t pk n =
  if n = 0 then None
  else begin
    let p = t.sprofile and j = tallest t n in
    let e = t.ents and o = t.cand.(j) in
    let w = e.(o + 1) and h = e.(o + 2) and cur = e.(o + 3) in
    Dsp_util.Instr.bump c_trials;
    Profile.add p ~start:cur ~len:w ~height:(-h);
    match Profile.first_fit_start p ~len:w ~height:h ~budget:(pk - 1) with
    | Some dest ->
        Profile.add p ~start:dest ~len:w ~height:h;
        e.(o + 3) <- dest;
        Dsp_util.Instr.bump c_migrations;
        Some (e.(o), dest)
    | None ->
        Profile.add p ~start:cur ~len:w ~height:h;
        t.cand.(j) <- t.cand.(n - 1);
        attempt t pk (n - 1)
  end

(* One repair move over the items under every peak column. *)
let try_repair t pk =
  match Profile.peak_span t.sprofile with
  | None -> None
  | Some (first, last) -> attempt t pk (covering t ~first ~last)

let bounded_migration ~k =
  if k < 0 then invalid_arg "Session.bounded_migration: k must be >= 0";
  {
    pname = Printf.sprintf "migrate-%d" k;
    pdoc =
      Printf.sprintf
        "best-fit, then up to %d repair moves of placed items while the peak \
         improves"
        k;
    place =
      (fun ~budget t it ->
        let pl = best_fit_place ~budget t it in
        let migs = ref [] and n = ref 0 and improving = ref true in
        while !n < k && !improving do
          Dsp_util.Budget.poll_opt budget;
          let pk = Profile.peak t.sprofile in
          if pk <= it.h then improving := false
          else
            match try_repair t pk with
            | Some mv ->
                migs := mv :: !migs;
                incr n
            | None -> improving := false
        done;
        { pl with migrations = List.rev !migs });
  }

let find_policy ?(k = 1) name =
  match name with
  | "first-fit" -> Some first_fit
  | "best-fit" -> Some best_fit
  | "migrate" -> Some (bounded_migration ~k)
  | _ -> None

(* ----- lifecycle ---------------------------------------------------- *)

let create ?(policy = best_fit) ~width () =
  if width < 1 then invalid_arg "Session.create: width must be >= 1";
  {
    swidth = width;
    sprofile = Profile.create width;
    ents = Array.make 64 0;
    n_ents = 0;
    cand = [||];
    n_arrived = 0;
    n_live = 0;
    n_departed = 0;
    n_migrations = 0;
    spolicy = policy;
  }

(* Append a live entry; ids must ascend. *)
let push t ~id ~w ~h ~start =
  let o = 4 * t.n_ents in
  if o = Array.length t.ents then begin
    let grown = Array.make (2 * o) 0 in
    Array.blit t.ents 0 grown 0 o;
    t.ents <- grown
  end;
  let e = t.ents in
  e.(o) <- id;
  e.(o + 1) <- w;
  e.(o + 2) <- h;
  e.(o + 3) <- start;
  t.n_ents <- t.n_ents + 1;
  t.n_live <- t.n_live + 1

(* Squeeze the departed entries out of [ents], keeping arrival order. *)
let compact t =
  let e = t.ents and d = ref 0 in
  for i = 0 to t.n_ents - 1 do
    let o = 4 * i in
    if e.(o + 1) > 0 then begin
      let k = !d in
      if k < o then begin
        e.(k) <- e.(o);
        e.(k + 1) <- e.(o + 1);
        e.(k + 2) <- e.(o + 2);
        e.(k + 3) <- e.(o + 3)
      end;
      d := k + 4
    end
  done;
  t.n_ents <- !d / 4

let arrive ?budget t ~w ~h =
  (* Mirror Io's hardened checks so a hand-built event stream fails
     exactly like a malformed trace file. *)
  if w < 1 || h < 1 then
    invalid_arg
      (Printf.sprintf "Session.arrive: dimensions must be >= 1, got %d x %d" w h);
  if w > t.swidth then
    invalid_arg
      (Printf.sprintf
         "Session.arrive: demand %d exceeds the strip width %d" w t.swidth);
  let id = t.n_arrived in
  let pl = t.spolicy.place ~budget t (Item.make ~id ~w ~h) in
  push t ~id ~w ~h ~start:pl.start;
  t.n_arrived <- id + 1;
  t.n_migrations <- t.n_migrations + List.length pl.migrations;
  Dsp_util.Instr.bump c_arrivals;
  id

type depart_error = Never_arrived of int | Already_departed of int

let depart_error_to_string = function
  | Never_arrived id ->
      Printf.sprintf "Session.depart: arrival %d has not arrived" id
  | Already_departed id ->
      Printf.sprintf "Session.depart: arrival %d already departed" id

let depart_result t id =
  if id < 0 || id >= t.n_arrived then Error (Never_arrived id)
  else
    let o = live_offset t id in
    if o < 0 then Error (Already_departed id)
    else begin
      let e = t.ents in
      let s = e.(o + 3) in
      Profile.add t.sprofile ~start:s ~len:e.(o + 1) ~height:(-e.(o + 2));
      e.(o + 1) <- 0;
      t.n_live <- t.n_live - 1;
      t.n_departed <- t.n_departed + 1;
      if 4 * (t.n_ents - t.n_live) > t.n_live then compact t;
      Dsp_util.Instr.bump c_departures;
      Ok s
    end

(* Trace replay's departure: a stale id means a malformed trace. *)
let depart t id =
  match depart_result t id with
  | Ok _ -> ()
  | Error e -> invalid_arg (depart_error_to_string e)

let snapshot t =
  let live = live_items t in
  let dims = List.map (fun (_, (it : Item.t), _) -> (it.w, it.h)) live in
  let inst = Instance.of_dims ~width:t.swidth dims in
  let starts = Array.of_list (List.map (fun (_, _, s) -> s) live) in
  Packing.make inst starts

let apply ?budget t (ev : Dsp_instance.Trace.event) =
  match ev with
  | Dsp_instance.Trace.Arrive { w; h } -> ignore (arrive ?budget t ~w ~h)
  | Dsp_instance.Trace.Depart { arrival } -> depart t arrival

let replay ?policy ?budget (tr : Dsp_instance.Trace.t) =
  let t = create ?policy ~width:tr.Dsp_instance.Trace.width () in
  List.iter (apply ?budget t) tr.Dsp_instance.Trace.events;
  t

(* Rebuild a session from snapshot state (the WAL's compaction
   records): explicit placements bypass the policy, so the restored
   profile is bit-identical to the snapshotted one no matter which
   policy produced it.  [live] may come in any order; sorted by id, a
   duplicate sits next to its twin.  Ids below [n_arrived] that are not
   listed live have departed. *)
let restore ?(policy = best_fit) ~width ~n_arrived ~n_migrations ~live () =
  if width < 1 then invalid_arg "Session.restore: width must be >= 1";
  if n_arrived < 0 then invalid_arg "Session.restore: n_arrived must be >= 0";
  if n_migrations < 0 then
    invalid_arg "Session.restore: n_migrations must be >= 0";
  let t = create ~policy ~width () in
  t.n_arrived <- n_arrived;
  List.iter
    (fun (id, w, h, start) ->
      if id < 0 || id >= n_arrived then
        invalid_arg
          (Printf.sprintf "Session.restore: live id %d outside [0, %d)" id
             n_arrived);
      if t.n_ents > 0 && t.ents.(4 * (t.n_ents - 1)) = id then
        invalid_arg (Printf.sprintf "Session.restore: duplicate live id %d" id);
      if w < 1 || h < 1 then
        invalid_arg
          (Printf.sprintf
             "Session.restore: dimensions must be >= 1, got %d x %d" w h);
      if start < 0 || start + w > width then
        invalid_arg
          (Printf.sprintf
             "Session.restore: item %d at start %d width %d overflows strip %d"
             id start w width);
      Profile.add t.sprofile ~start ~len:w ~height:h;
      push t ~id ~w ~h ~start)
    (List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) live);
  t.n_departed <- n_arrived - t.n_live;
  t.n_migrations <- n_migrations;
  t

type stats = {
  arrivals : int;
  departures : int;
  live : int;
  migrations : int;
  peak_now : int;
}

let stats t =
  {
    arrivals = t.n_arrived;
    departures = t.n_departed;
    live = t.n_live;
    migrations = t.n_migrations;
    peak_now = peak t;
  }
