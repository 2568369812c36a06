open Dsp_core

(* Shared counter vocabulary (Dsp_util.Instr): x-enumeration and
   y-feasibility nodes both count as classical-strip-packing search
   nodes, and both phases check the one budget at every node. *)
let c_nodes = Dsp_util.Instr.counter Dsp_util.Instr.Sites.sp_bb_nodes

let count_node () = Dsp_util.Instr.bump c_nodes

let x_overlap (a : Item.t) sa (b : Item.t) sb =
  sa < sb + b.w && sb < sa + a.w

(* Complete search for a vertical arrangement of rectangles with fixed
   x-intervals: repeatedly choose any unplaced item and a candidate y
   (floor, or top of a placed item), skipping dimension-duplicates.
   Completeness follows from gravity normalization: in any feasible
   arrangement items can be pushed down until each rests on the floor
   or on another item, and placing in ascending order of resulting y
   visits exactly such configurations. *)
let y_feasible ?budget (inst : Instance.t) ~starts ~height =
  let n = Instance.n_items inst in
  let ys = Array.make n (-1) in
  let placed = Array.make n false in
  let overlaps i y j =
    (* Does item i at (starts.(i), y) overlap placed item j? *)
    let a = Instance.item inst i and b = Instance.item inst j in
    x_overlap a starts.(i) b starts.(j)
    && y < ys.(j) + b.h
    && ys.(j) < y + a.h
  in
  let candidate_ys i =
    let a = Instance.item inst i in
    let cs = ref [ 0 ] in
    for j = 0 to n - 1 do
      if placed.(j) then begin
        let b = Instance.item inst j in
        if x_overlap a starts.(i) b starts.(j) then cs := (ys.(j) + b.h) :: !cs
      end
    done;
    List.sort_uniq compare (List.filter (fun y -> y + a.h <= height) !cs)
  in
  let rec go k =
    count_node ();
    Dsp_util.Budget.check_opt budget;
    if k = n then true
    else begin
      (* Candidate items: one representative per unplaced dimension
         class, to break permutation symmetry between equal items. *)
      let seen = ref [] in
      let result = ref false in
      let i = ref 0 in
      while (not !result) && !i < n do
        if not placed.(!i) then begin
          let it = Instance.item inst !i in
          let key = (it.Item.w, it.Item.h, starts.(!i)) in
          if not (List.mem key !seen) then begin
            seen := key :: !seen;
            let rec try_ys = function
              | [] -> ()
              | y :: rest ->
                  let ok = ref true in
                  for j = 0 to n - 1 do
                    if placed.(j) && overlaps !i y j then ok := false
                  done;
                  if !ok then begin
                    placed.(!i) <- true;
                    ys.(!i) <- y;
                    if go (k + 1) then result := true
                    else begin
                      placed.(!i) <- false;
                      ys.(!i) <- -1;
                      try_ys rest
                    end
                  end
                  else try_ys rest
            in
            try_ys (candidate_ys !i)
          end
        end;
        incr i
      done;
      !result
    end
  in
  if go 0 then Some ys else None

(* The x-phase is the DSP search under the same height: an SP packing's
   x-projection is a DSP packing with no greater peak, so every SP
   packing's start vector has a canonical form among [Dsp_bb.find]'s
   leaves.  Each leaf runs the y-phase; the first that succeeds is the
   witness. *)
let decide ?budget inst ~height =
  let found = ref None in
  let leaf starts =
    match y_feasible ?budget inst ~starts ~height with
    | Some ys ->
        found :=
          Some
            (Rect_packing.make inst
               (Array.mapi (fun i y -> { Rect_packing.x = starts.(i); y }) ys));
        true
    | None -> false
  in
  ignore (Dsp_bb.find ?budget ~node:count_node ~leaf inst ~height);
  !found

let solve ?budget inst =
  if Instance.n_items inst = 0 then Rect_packing.make inst [||]
  else
    (* The stacked packing fits in the total area. *)
    Option.get
      (Optimum.below ~lo:(Instance.lower_bound inst)
         ~hi:(Instance.total_area inst)
         (fun height -> decide ?budget inst ~height))

let optimal_height ?budget inst = Rect_packing.height (solve ?budget inst)
