open Dsp_core
module Rat = Dsp_util.Rat

type stats = {
  guesses : int;
  final_target : int;
  delta : Rat.t;
  mu : Rat.t;
  class_sizes : (string * int) list;
  configurations_used : int;
  lp_fallbacks : int;
}

let floor_frac frac scale = Rat.floor (Rat.mul frac (Rat.of_int scale))

(* One bump per binary-search iteration on the guessed optimum H'
   (and one per decision attempt), mirroring [stats.guesses] into the
   shared counter vocabulary of the engine's reports. *)
let c_guesses = Dsp_util.Instr.counter Dsp_util.Instr.Sites.approx54_guesses
let c_attempts = Dsp_util.Instr.counter Dsp_util.Instr.Sites.approx54_attempts

(* One decision round at guess [target]: [Some] iff every class fit
   within its budget. *)
let attempt ?(eps = Rat.make 1 4) ?budget (inst : Instance.t) ~target =
  Dsp_util.Instr.bump c_attempts;
  Dsp_util.Budget.poll_opt budget;
  if target < Instance.lower_bound inst then None
  else begin
    let params = Classify.choose_params inst ~target ~eps in
    let rounding = Rounding.round_heights inst params in
    let rounded = rounding.Rounding.rounded in
    let cls = Classify.classify rounded params in
    (* Budget accounting mirroring the Lemma 12 height bound: the
       large/tall backbone must stay within (1+ε)H' (the rounded
       optimal region), while everything else may additionally use
       the H'/4 restructuring band — the hard cap (5/4+ε)H' that the
       final packing never exceeds. *)
    let b_total =
      max (target + 1)
        (floor_frac Rat.(add (make 5 4) eps) target)
    in
    let b_main = min b_total (target + floor_frac eps target) in
    let b_band = b_total in
    let configurations_used = ref 0 and lp_fallbacks = ref 0 in
    let backbone =
      cls.Classify.large @ cls.Classify.medium_vertical @ cls.Classify.tall
    in
    (* The non-backbone stages: vertical items via the configuration
       LP (Lemma 10) with greedy fallback and overflow into the band,
       then horizontal leveling, then small items into gaps and medium
       items on top (Step 6). *)
    let rest_stages st =
      let place_class items ~budget ~order =
        Budget_fit.place_all_best_fit st items ~budget ~order
      in
      let ok =
        begin
          let boxes = Budget_fit.free_boxes st ~cap:b_band in
          let vertical = cls.Classify.vertical in
          match Config_fill.fill ?budget ~boxes ~items:vertical () with
          | Some r ->
              configurations_used := r.Config_fill.configurations_used;
              List.iter
                (fun { Config_fill.item; start } -> Budget_fit.place st item ~start)
                r.Config_fill.placements;
              List.for_all
                (fun it -> Budget_fit.best_fit st it ~budget:b_band)
                (List.sort Item.compare_by_height_desc r.Config_fill.overflow)
          | None ->
              incr lp_fallbacks;
              place_class vertical ~budget:b_band ~order:Item.compare_by_height_desc
        end
        && place_class cls.Classify.horizontal ~budget:b_band
             ~order:Item.compare_by_width_desc
        && place_class cls.Classify.small ~budget:b_total
             ~order:Item.compare_by_area_desc
        && place_class cls.Classify.medium ~budget:b_total
             ~order:Item.compare_by_height_desc
      in
      if ok then Some (Budget_fit.to_packing st) else None
    in
    (* Greedy pass: best-fit the backbone in a fixed order, then run
       the remaining stages. *)
    let run_pass backbone_order =
      let st = Budget_fit.create rounded in
      if
        Budget_fit.place_all_best_fit st backbone ~budget:b_main
          ~order:backbone_order
      then rest_stages st
      else None
    in
    (* Step 4 proper: enumerate backbone placements (the practical
       analogue of "guess the partition of the optimal packing into
       boxes") and attempt to fill each guess, keeping the best fill
       and discarding guesses whose fill fails.  Candidate starts are
       explored lowest-window-peak first so good partitions are found
       within the node/leaf budget; a fill reaching the guessed
       optimum [target] stops the search. *)
    let exact_backbone_pass () =
      let sorted = List.sort Item.compare_by_height_desc backbone in
      if List.length sorted > 12 then None
      else begin
        let st = Budget_fit.create rounded in
        let width = rounded.Instance.width in
        let nodes = ref 0 and leaves = ref 0 in
        let best = ref None in
        let record pk =
          match !best with
          | Some b when Packing.height b <= Packing.height pk -> ()
          | _ -> best := Some pk
        in
        let exception Stop in
        let rec go prev items =
          incr nodes;
          if !nodes > 200_000 then raise Stop;
          (* Deadline-only poll: these enumeration nodes have their own
             cap above and must not consume the budget's node ticks. *)
          Dsp_util.Budget.poll_opt budget;
          match items with
          | [] ->
              incr leaves;
              (match rest_stages (Budget_fit.copy st) with
              | Some pk ->
                  record pk;
                  if Packing.height pk <= target then raise Stop
              | None -> ());
              if !leaves > 200 then raise Stop
          | (it : Item.t) :: more ->
              let min_start =
                (* identical backbone items in non-decreasing order *)
                match prev with
                | Some (p : Item.t) when p.Item.w = it.Item.w && p.Item.h = it.Item.h
                  ->
                    Budget_fit.start_of st p
                | _ -> 0
              in
              let candidates = ref [] in
              for s = min_start to width - it.Item.w do
                let pk =
                  Profile.peak_in (Budget_fit.profile st) ~start:s ~len:it.Item.w
                in
                if pk + it.Item.h <= b_main then candidates := (pk, s) :: !candidates
              done;
              List.iter
                (fun (_, s) ->
                  Budget_fit.place st it ~start:s;
                  go (Some it) more;
                  Budget_fit.unplace st it)
                (List.sort compare !candidates)
        in
        (match go None sorted with () -> () | exception Stop -> ());
        !best
      end
    in
    let orders =
      [
        Item.compare_by_height_desc;
        Item.compare_by_area_desc;
        Item.compare_by_width_desc;
      ]
    in
    let best_of passes =
      List.fold_left
        (fun acc pass ->
          match (acc, pass ()) with
          | None, r -> r
          | r, None -> r
          | Some a, Some b -> if Packing.height a <= Packing.height b then Some a else Some b)
        None passes
    in
    let greedy_passes = List.map (fun o () -> run_pass o) orders in
    let result =
      match best_of greedy_passes with
      | Some pk when Packing.height pk <= target -> Some pk
      | greedy_best -> (
          (* Greedy did not reach the guessed optimum: spend the
             enumeration budget of Step 4. *)
          match best_of [ exact_backbone_pass ] with
          | None -> greedy_best
          | Some pk -> (
              match greedy_best with
              | Some g when Packing.height g <= Packing.height pk -> Some g
              | _ -> Some pk))
    in
    match result with
    | None -> None
    | Some rounded_pk ->
        let pk = Rounding.restore rounding rounded_pk in
        let stats =
          {
            guesses = 1;
            final_target = target;
            delta = params.Classify.delta;
            mu = params.Classify.mu;
            class_sizes = Classify.class_sizes cls;
            configurations_used = !configurations_used;
            lp_fallbacks = !lp_fallbacks;
          }
        in
        Some (pk, stats)
  end

let solve_with_stats ?eps ?budget (inst : Instance.t) =
  if Instance.n_items inst = 0 then
    ( Packing.make inst [||],
      {
        guesses = 0;
        final_target = 0;
        delta = Rat.zero;
        mu = Rat.zero;
        class_sizes = [];
        configurations_used = 0;
        lp_fallbacks = 0;
      } )
  else begin
    let lb = Instance.lower_bound inst in
    let steinberg = Baselines.steinberg2 inst in
    let ub = max lb (Packing.height steinberg) in
    let guesses = ref 0 in
    (* Keep the minimum-peak packing over every successful guess: the
       peak a guess achieves is not monotone in the guess, so the last
       feasible target is not necessarily the best witness. *)
    let best = ref None in
    let ok t =
      incr guesses;
      Dsp_util.Instr.bump c_guesses;
      match attempt ?eps ?budget inst ~target:t with
      | Some (pk, stats) ->
          (match !best with
          | Some (bpk, _, _) when Packing.height bpk <= Packing.height pk -> ()
          | _ -> best := Some (pk, stats, t));
          true
      | None -> false
    in
    match Dsp_util.Xutil.binary_search_min lb ub ok with
    | Some _ ->
        let pk, stats, t = Option.get !best in
        (pk, { stats with guesses = !guesses; final_target = t })
    | None ->
        (* No guess up to the Steinberg height worked (the greedy
           stages are not monotone in pathological cases): fall back
           to the Steinberg packing itself. *)
        ( steinberg,
          {
            guesses = !guesses;
            final_target = ub;
            delta = Rat.zero;
            mu = Rat.zero;
            class_sizes = [];
            configurations_used = 0;
            lp_fallbacks = 0;
          } )
  end

let solve ?eps ?budget inst = fst (solve_with_stats ?eps ?budget inst)
