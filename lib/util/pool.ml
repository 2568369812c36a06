(* A fixed-size domain pool built directly on Domain + Mutex /
   Condition (the repo carries no external deps, so no domainslib): a
   shared FIFO of packed tasks, [jobs] worker domains blocking on a
   condition, and per-future mutexes for completion signalling.
   Workers catch everything a task raises and park it in the future,
   so a crashing task (including an injected Fault.Injected) can never
   take a worker down or wedge the queue. *)

type task = unit -> unit

type t = {
  m : Mutex.t;
  wake : Condition.t; (* queue became non-empty, or shutdown *)
  queue : task Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable st : 'a state;
}

let rec worker pool =
  Mutex.lock pool.m;
  while Queue.is_empty pool.queue && not pool.stopping do
    Condition.wait pool.wake pool.m
  done;
  match Queue.take_opt pool.queue with
  | None ->
      (* stopping and drained *)
      Mutex.unlock pool.m
  | Some task ->
      Mutex.unlock pool.m;
      task ();
      worker pool

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      m = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      size = jobs;
    }
  in
  pool.domains <-
    List.init jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let size pool = pool.size

let submit ?on_done pool f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); st = Pending } in
  let task () =
    let r =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.st <- r;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm;
    (* After the unlock: whoever the hook wakes must find the future
       settled, and a hook doing IO must not hold the future's lock.
       Its exception has nowhere to go, and letting it escape would
       kill this worker, so it is dropped. *)
    match on_done with
    | None -> ()
    | Some hook -> ( match hook () with () -> () | exception _ -> ())
  in
  Mutex.lock pool.m;
  if pool.stopping then begin
    Mutex.unlock pool.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task pool.queue;
  Condition.signal pool.wake;
  Mutex.unlock pool.m;
  fut

let await fut =
  Mutex.lock fut.fm;
  while (match fut.st with Pending -> true | _ -> false) do
    Condition.wait fut.fc fut.fm
  done;
  let st = fut.st in
  Mutex.unlock fut.fm;
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let await_result fut =
  match await fut with v -> Ok v | exception e -> Error e

(* Non-blocking probe: the serve daemon's select loop holds a bounded
   set of in-flight solve futures and harvests whichever completed each
   time a task's [on_done] hook wakes it, so it must never park on one
   future while another client is waiting for its answer. *)
let poll fut =
  Mutex.lock fut.fm;
  let st = fut.st in
  Mutex.unlock fut.fm;
  match st with
  | Pending -> None
  | Done v -> Some (Ok v)
  | Failed (e, _) -> Some (Error e)

let run_all pool fs =
  List.map await_result (List.map (fun f -> submit pool f) fs)

let map pool f xs =
  List.map await (List.map (fun x -> submit pool (fun () -> f x)) xs)

let shutdown pool =
  Mutex.lock pool.m;
  if pool.stopping then Mutex.unlock pool.m
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.domains;
    pool.domains <- []
  end

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Default parallelism: an explicit [set_default_jobs] (the CLI's
   --jobs) wins, then the DSP_JOBS environment variable, then
   whatever the hardware advertises. *)

let default_override = Atomic.make 0

let env_jobs () =
  match Sys.getenv_opt "DSP_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let default_jobs () =
  let o = Atomic.get default_override in
  if o >= 1 then o
  else
    match env_jobs () with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set default_override j
