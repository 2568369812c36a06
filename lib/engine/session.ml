(* Incremental solve sessions.  The profile is the only geometric
   state; the slots table maps arrival ids to live placements, so
   departures and migrations are O(1) table updates plus O(log width)
   kernel updates. *)

open Dsp_core

let c_arrivals = Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_arrivals

let c_departures =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_departures

let c_migrations =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_migrations

let c_trials =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.session_migration_trials

type slot = Empty | Live of Item.t * int | Gone

type t = {
  swidth : int;
  sprofile : Profile.t;
  mutable slots : slot array;
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
let policy t = t.spolicy
let profile t = t.sprofile
let peak t = Profile.peak t.sprofile

let start_of t id =
  if id < 0 || id >= t.n_arrived then None
  else match t.slots.(id) with Live (_, s) -> Some s | Empty | Gone -> None

let set_start t id s =
  if id < 0 || id >= t.n_arrived then
    invalid_arg "Session.set_start: unknown id";
  match t.slots.(id) with
  | Live (it, _) -> t.slots.(id) <- Live (it, s)
  | Empty | Gone -> invalid_arg "Session.set_start: item not live"

let live_items t =
  let acc = ref [] in
  for id = t.n_arrived - 1 downto 0 do
    match t.slots.(id) with
    | Live (it, s) -> acc := (id, it, s) :: !acc
    | Empty | Gone -> ()
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
   [first, last], the tallest first (ties by id): removing a tall
   culprit is the move most likely to lower the global peak.  No other
   item can: one that misses a peak column leaves it at the peak.  And
   removing one of these drops every column below the peak, which is
   what lets [try_repair] keep any destination it finds. *)
let covering t ~first ~last =
  let acc = ref [] in
  for id = t.n_arrived - 1 downto 0 do
    match t.slots.(id) with
    | Live (it, s) when s <= first && last < s + it.Item.w ->
        acc := (id, it, s) :: !acc
    | _ -> ()
  done;
  List.sort
    (fun (_, (a : Item.t), _) (_, (b : Item.t), _) -> compare b.h a.h)
    !acc

(* One repair move: remove a live item over every peak column and
   re-place it first-fit with its window peak under [pk - 1]; an item
   with no such start goes back where it was.  A found destination
   always lowers the global peak: the removal leaves every column
   below [pk], and the new window stays at most [pk - 1]. *)
let try_repair t pk =
  let p = t.sprofile in
  match Profile.peak_span p with
  | None -> None
  | Some (first, last) ->
      let rec attempt = function
        | [] -> None
        | (id, (it : Item.t), cur) :: rest -> (
            Dsp_util.Instr.bump c_trials;
            Profile.remove_item p it ~start:cur;
            match Profile.first_fit_start p ~len:it.w ~height:it.h ~budget:(pk - 1) with
            | Some dest ->
                Profile.add_item p it ~start:dest;
                set_start t id dest;
                Dsp_util.Instr.bump c_migrations;
                Some (id, dest)
            | None ->
                Profile.add_item p it ~start:cur;
                attempt rest)
      in
      attempt (covering t ~first ~last)

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

let policies ~k = [ first_fit; best_fit; bounded_migration ~k ]

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
    slots = Array.make 16 Empty;
    n_arrived = 0;
    n_live = 0;
    n_departed = 0;
    n_migrations = 0;
    spolicy = policy;
  }

let reset t =
  Profile.reset t.sprofile;
  Array.fill t.slots 0 (Array.length t.slots) Empty;
  t.n_arrived <- 0;
  t.n_live <- 0;
  t.n_departed <- 0;
  t.n_migrations <- 0

let ensure_capacity t n =
  let cap = Array.length t.slots in
  if n > cap then begin
    let grown = Array.make (max n (2 * cap)) Empty in
    Array.blit t.slots 0 grown 0 cap;
    t.slots <- grown
  end

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
  let it = Item.make ~id ~w ~h in
  let pl = t.spolicy.place ~budget t it in
  ensure_capacity t (id + 1);
  t.slots.(id) <- Live (it, pl.start);
  t.n_arrived <- id + 1;
  t.n_live <- t.n_live + 1;
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
    match t.slots.(id) with
    | Live (it, s) ->
        Profile.remove_item t.sprofile it ~start:s;
        t.slots.(id) <- Gone;
        t.n_live <- t.n_live - 1;
        t.n_departed <- t.n_departed + 1;
        Dsp_util.Instr.bump c_departures;
        Ok s
    | Gone -> Error (Already_departed id)
    | Empty -> Error (Never_arrived id)

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
   policy produced it.  Ids below [n_arrived] that are not listed live
   are marked departed. *)
let restore ?(policy = best_fit) ~width ~n_arrived ~n_migrations ~live () =
  if width < 1 then invalid_arg "Session.restore: width must be >= 1";
  if n_arrived < 0 then invalid_arg "Session.restore: n_arrived must be >= 0";
  if n_migrations < 0 then
    invalid_arg "Session.restore: n_migrations must be >= 0";
  let t = create ~policy ~width () in
  ensure_capacity t n_arrived;
  t.n_arrived <- n_arrived;
  for id = 0 to n_arrived - 1 do
    t.slots.(id) <- Gone
  done;
  List.iter
    (fun (id, w, h, start) ->
      if id < 0 || id >= n_arrived then
        invalid_arg
          (Printf.sprintf "Session.restore: live id %d outside [0, %d)" id
             n_arrived);
      (match t.slots.(id) with
      | Gone -> ()
      | Empty | Live _ ->
          invalid_arg (Printf.sprintf "Session.restore: duplicate live id %d" id));
      if w < 1 || h < 1 then
        invalid_arg
          (Printf.sprintf
             "Session.restore: dimensions must be >= 1, got %d x %d" w h);
      if start < 0 || start + w > width then
        invalid_arg
          (Printf.sprintf
             "Session.restore: item %d at start %d width %d overflows strip %d"
             id start w width);
      let it = Item.make ~id ~w ~h in
      Profile.add_item t.sprofile it ~start;
      t.slots.(id) <- Live (it, start);
      t.n_live <- t.n_live + 1)
    live;
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
