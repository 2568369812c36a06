type reason = Deadline | Nodes | Cancelled

exception Expired of reason

type t = {
  started : float;
  deadline : float option; (* absolute, on the Xutil.now clock *)
  nodes : int option;
  cancel : bool Atomic.t option;
  mutable ticks : int;
  mutable fuse : int; (* checkpoints until the next clock read *)
}

let clock_interval = 64

let create ?timeout_ms ?nodes ?cancel () =
  let started = Xutil.now () in
  (match timeout_ms with
  | Some ms when ms < 0 -> invalid_arg "Budget.create: negative timeout"
  | _ -> ());
  (match nodes with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative node cap"
  | _ -> ());
  {
    started;
    deadline = Option.map (fun ms -> started +. (float_of_int ms /. 1000.)) timeout_ms;
    nodes;
    cancel;
    ticks = 0;
    fuse = clock_interval;
  }

let unlimited () = create ()

(* A worker-side view of [t] for fan-out across domains: same absolute
   deadline and (optionally overridden) cancel flag, fresh mutable
   checkpoint state so domains never share unsynchronized fields.  The
   node cap is dropped — parallel callers account nodes in one shared
   [Atomic.t] instead of k independent caps. *)
let child ?cancel t =
  {
    started = t.started;
    deadline = t.deadline;
    nodes = None;
    cancel = (match cancel with Some _ -> cancel | None -> t.cancel);
    ticks = 0;
    fuse = clock_interval;
  }

let past_deadline t =
  match t.deadline with
  | Some d -> Xutil.now () > d
  | None -> false

let cancelled t =
  match t.cancel with Some c -> Atomic.get c | None -> false

(* Cancellation is polled at every checkpoint (an atomic load and a
   branch), not just on clock reads: a racing loser should stop within
   a handful of nodes of the winner validating. *)
let poll_cancel t = if cancelled t then raise (Expired Cancelled)

(* The fuse batches clock reads: one costs ~20ns but the hot loops
   checkpoint every node, so pay for it only once per
   [clock_interval] checkpoints. *)
let burn_fuse t =
  t.fuse <- t.fuse - 1;
  if t.fuse <= 0 then begin
    t.fuse <- clock_interval;
    if past_deadline t then raise (Expired Deadline)
  end

let check t =
  poll_cancel t;
  t.ticks <- t.ticks + 1;
  (match t.nodes with
  | Some cap when t.ticks > cap -> raise (Expired Nodes)
  | _ -> ());
  burn_fuse t

let poll t =
  poll_cancel t;
  burn_fuse t

let check_opt = function Some t -> check t | None -> ()
let poll_opt = function Some t -> poll t | None -> ()

let within ~nodes f =
  match f (create ~nodes ()) with
  | v -> Some v
  | exception Expired Nodes -> None

let node_cap t = t.nodes
let ticks t = t.ticks
let elapsed t = Xutil.now () -. t.started

let remaining_ms t =
  Option.map
    (fun d -> Float.max 0.0 ((d -. Xutil.now ()) *. 1000.))
    t.deadline
