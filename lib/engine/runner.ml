open Dsp_core

type failure_kind =
  | Timeout
  | Budget_exhausted of string
  | Solver_error of string
  | Invalid_result of string
  | Cancelled

type failure = {
  solver : string;
  kind : failure_kind;
  seconds : float;
  counters : (string * int) list;
}

type outcome = (Report.t, failure) result

let kind_name = function
  | Timeout -> "timeout"
  | Budget_exhausted _ -> "budget"
  | Solver_error _ -> "error"
  | Invalid_result _ -> "invalid"
  | Cancelled -> "cancelled"

let kind_detail = function
  | Timeout | Cancelled -> None
  | Budget_exhausted m | Solver_error m | Invalid_result m -> Some m

let pp_failure fmt f =
  Format.fprintf fmt "%s: %s" f.solver (kind_name f.kind);
  (match kind_detail f.kind with
  | Some m -> Format.fprintf fmt " (%s)" m
  | None -> ());
  Format.fprintf fmt " after %.1f ms" (f.seconds *. 1000.)

(* A fired Corrupt fault asks us to hand Report validation a packing
   that cannot be right.  Rebuilding the same starts on a
   one-column-wider instance always trips the instance-identity check
   — even for empty packings, where height-scaling tricks would
   compare equal. *)
let corrupt_packing (pk : Packing.t) =
  let inst = Packing.instance pk in
  let wider =
    Instance.make ~width:(inst.Instance.width + 1)
      (Array.copy inst.Instance.items)
  in
  Packing.make wider (Packing.starts pk)

let run_one ?timeout_ms ?(node_budget = Solver.default_node_budget) ?cancel
    (s : Solver.t) inst =
  let budget = Dsp_util.Budget.create ?timeout_ms ~nodes:node_budget ?cancel () in
  let before = Dsp_util.Instr.snapshot () in
  let finish_counters () =
    Dsp_util.Instr.delta ~before ~after:(Dsp_util.Instr.snapshot ())
  in
  let fail kind =
    Error
      {
        solver = s.Solver.name;
        kind;
        seconds = Dsp_util.Budget.elapsed budget;
        counters = finish_counters ();
      }
  in
  match s.Solver.solve ~budget inst with
  | packing ->
      let packing =
        if Dsp_util.Fault.take_corruption () then corrupt_packing packing
        else packing
      in
      let seconds = Dsp_util.Budget.elapsed budget in
      let counters = finish_counters () in
      (match
         Report.make ~solver:s.Solver.name ~instance:inst ~packing ~seconds
           ~counters
       with
      | Ok r -> Ok r
      | Error msg -> fail (Invalid_result msg))
  | exception Dsp_util.Budget.Expired Dsp_util.Budget.Deadline -> fail Timeout
  | exception Dsp_util.Budget.Expired Dsp_util.Budget.Nodes ->
      fail (Budget_exhausted (Printf.sprintf "budget node cap %d" node_budget))
  | exception Dsp_util.Budget.Expired Dsp_util.Budget.Cancelled -> fail Cancelled
  | exception Dsp_util.Fault.Injected msg -> fail (Solver_error msg)
  | exception e -> fail (Solver_error (Printexc.to_string e))

type resolution = {
  report : Report.t;
  winner : string;
  failures : failure list;
  safety_net : bool;
}

let default_chain () =
  List.map Registry.find_exn [ "exact-bb"; "approx54"; "bfd-height" ]

let parse_chain spec =
  let names =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then Error "empty fallback chain"
  else
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Registry.find n with
          | Some s -> resolve (s :: acc) rest
          | None ->
              Error
                (Printf.sprintf "unknown solver %S in chain (known: %s)" n
                   (String.concat ", " (Registry.names ()))))
    in
    resolve [] names

let chain_to_string chain =
  String.concat "," (List.map (fun (s : Solver.t) -> s.Solver.name) chain)

(* Safety net: an un-budgeted greedy solve.  bfd-height is polynomial
   with no cancellation checkpoints, so this cannot time out; if even
   it fails, that is an engine bug worth a loud crash. *)
let safety_net_resolution failures inst =
  let bfd = Registry.find_exn "bfd-height" in
  match run_one bfd inst with
  | Ok report ->
      { report; winner = bfd.Solver.name; failures; safety_net = true }
  | Error f ->
      failwith
        (Format.asprintf "Runner: safety net failed: %a" pp_failure f)

let solve ?timeout_ms ?node_budget ?chain inst =
  let chain = match chain with Some c -> c | None -> default_chain () in
  if chain = [] then invalid_arg "Runner.solve: empty chain";
  let overall = Dsp_util.Budget.create ?timeout_ms () in
  (* Equal slices of the remaining deadline, so time a stage leaves
     unused flows to the stages after it.  (This slicing is only
     correct because the stages run one after another — the racing
     path below shares the single wall-clock deadline instead.) *)
  let rec go failures = function
    | [] -> safety_net_resolution (List.rev failures) inst
    | s :: rest -> (
        let stages = float_of_int (1 + List.length rest) in
        let timeout_ms =
          Option.map
            (fun ms -> max 1 (int_of_float (ms /. stages)))
            (Dsp_util.Budget.remaining_ms overall)
        in
        match run_one ?timeout_ms ?node_budget s inst with
        | Ok report ->
            {
              report;
              winner = s.Solver.name;
              failures = List.rev failures;
              safety_net = false;
            }
        | Error f -> go (f :: failures) rest)
  in
  go [] chain

let race ?timeout_ms ?node_budget ?chain ~pool inst =
  let chain = match chain with Some c -> c | None -> default_chain () in
  if chain = [] then invalid_arg "Runner.race: empty chain";
  (* One wall-clock deadline shared by every racer: stages run
     concurrently, so per-stage slicing (the sequential path's
     policy) would be wrong — it would hand each racer only a
     fraction of the time the user granted.  The absolute deadline is
     fixed here, and each stage computes its remaining milliseconds
     when a worker actually picks it up (a stage queued behind busy
     workers must not restart the clock). *)
  let overall = Dsp_util.Budget.create ?timeout_ms () in
  let cancel = Atomic.make false in
  let win_m = Mutex.create () in
  let winner = ref None in
  let task (s : Solver.t) () =
    if Atomic.get cancel then
      Error { solver = s.Solver.name; kind = Cancelled; seconds = 0.; counters = [] }
    else begin
      let timeout_ms =
        Option.map
          (fun ms -> max 1 (int_of_float ms))
          (Dsp_util.Budget.remaining_ms overall)
      in
      let outcome = run_one ?timeout_ms ?node_budget ~cancel s inst in
      (match outcome with
      | Ok r ->
          (* First *validated* report wins; the losers' budgets are
             cancelled and they unwind at their next checkpoint. *)
          Mutex.lock win_m;
          if !winner = None then begin
            winner := Some (s.Solver.name, r);
            Atomic.set cancel true
          end;
          Mutex.unlock win_m
      | Error _ -> ());
      outcome
    end
  in
  let outcomes = Dsp_util.Pool.run_all pool (List.map task chain) in
  let failures =
    List.filter_map
      (function
        | Ok (Error f) -> Some f
        | Ok (Ok _) -> None
        | Error e ->
            (* A task exception would mean run_one's taxonomy leaked;
               surface it as a failure rather than crashing the race. *)
            Some
              {
                solver = "race";
                kind = Solver_error (Printexc.to_string e);
                seconds = 0.;
                counters = [];
              })
      outcomes
  in
  match !winner with
  | Some (name, report) ->
      { report; winner = name; failures; safety_net = false }
  | None -> safety_net_resolution failures inst
