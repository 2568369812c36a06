module Rat = Dsp_util.Rat

type result =
  | Optimal of { objective : Rat.t; solution : Rat.t array }
  | Unbounded
  | Infeasible

(* Tableau with basis tracking.  [tab] is (m+1) x (n+1): row 0..m-1
   are constraints with the rhs in the last column; row m is the
   objective row (reduced costs, negated objective value in the last
   column).  [basis.(r)] is the column basic in row r. *)
type tableau = {
  m : int;
  n : int;
  tab : Rat.t array array;
  basis : int array;
}

(* One bump per tableau pivot (both phases): the unit of simplex work
   the engine's reports aggregate. *)
let c_pivots = Dsp_util.Instr.counter Dsp_util.Instr.Sites.simplex_pivots

let pivot t ~row ~col =
  Dsp_util.Instr.bump c_pivots;
  let piv = t.tab.(row).(col) in
  assert (Rat.sign piv <> 0);
  let inv = Rat.inv piv in
  for j = 0 to t.n do
    t.tab.(row).(j) <- Rat.mul t.tab.(row).(j) inv
  done;
  for r = 0 to t.m do
    if r <> row && Rat.sign t.tab.(r).(col) <> 0 then begin
      let factor = t.tab.(r).(col) in
      for j = 0 to t.n do
        t.tab.(r).(j) <- Rat.sub t.tab.(r).(j) (Rat.mul factor t.tab.(row).(j))
      done
    end
  done;
  t.basis.(row) <- col

(* Bland's rule: entering = smallest index with positive reduced
   cost (we maximize, objective row stores c - z so positive means
   improving); leaving = smallest ratio, ties by smallest basis
   index. *)
let rec iterate ?max_col ?budget t =
  (* Pivots are not search nodes, so a deadline-only poll: Bland's
     rule guarantees termination, but a degenerate configuration LP
     can still outlive a runner stage's deadline slice. *)
  Dsp_util.Budget.poll_opt budget;
  let limit = match max_col with Some l -> l | None -> t.n in
  let enter = ref (-1) in
  (try
     for j = 0 to limit - 1 do
       if Rat.sign t.tab.(t.m).(j) > 0 then begin
         enter := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !enter < 0 then `Optimal
  else begin
    let col = !enter in
    let row = ref (-1) and best = ref Rat.zero in
    for r = 0 to t.m - 1 do
      if Rat.sign t.tab.(r).(col) > 0 then begin
        let ratio = Rat.div t.tab.(r).(t.n) t.tab.(r).(col) in
        let better =
          !row < 0
          || Rat.compare ratio !best < 0
          || (Rat.equal ratio !best && t.basis.(r) < t.basis.(!row))
        in
        if better then begin
          row := r;
          best := ratio
        end
      end
    done;
    if !row < 0 then `Unbounded
    else begin
      pivot t ~row:!row ~col;
      iterate ?max_col ?budget t
    end
  end

let extract_solution t n_orig =
  let x = Array.make n_orig Rat.zero in
  for r = 0 to t.m - 1 do
    if t.basis.(r) < n_orig then x.(t.basis.(r)) <- t.tab.(r).(t.n)
  done;
  x

(* Phase 1: artificial variable per row; drive their sum to zero. *)
let phase1 ?budget ~a ~b () =
  let m = Array.length a in
  let n = if m = 0 then 0 else Array.length a.(0) in
  let total = n + m in
  let tab = Array.make_matrix (m + 1) (total + 1) Rat.zero in
  for r = 0 to m - 1 do
    let flip = Rat.sign b.(r) < 0 in
    for j = 0 to n - 1 do
      tab.(r).(j) <- (if flip then Rat.neg a.(r).(j) else a.(r).(j))
    done;
    tab.(r).(n + r) <- Rat.one;
    tab.(r).(total) <- (if flip then Rat.neg b.(r) else b.(r))
  done;
  (* Maximize -(sum of artificials): objective row = sum of
     constraint rows restricted to original columns. *)
  for j = 0 to total do
    let s = ref Rat.zero in
    for r = 0 to m - 1 do
      s := Rat.add !s tab.(r).(j)
    done;
    tab.(m).(j) <- !s
  done;
  for r = 0 to m - 1 do
    tab.(m).(n + r) <- Rat.zero
  done;
  let t = { m; n = total; tab; basis = Array.init m (fun r -> n + r) } in
  match iterate ?budget t with
  | `Unbounded -> None (* cannot happen: phase-1 objective bounded *)
  | `Optimal ->
      if Rat.sign t.tab.(m).(total) <> 0 then None
      else begin
        (* Pivot any artificial variable out of the basis when its row
           has a non-zero original column; rows that are all zero are
           redundant and harmless. *)
        for r = 0 to m - 1 do
          if t.basis.(r) >= n then begin
            let j = ref 0 in
            while !j < n && Rat.sign t.tab.(r).(!j) = 0 do
              incr j
            done;
            if !j < n then pivot t ~row:r ~col:!j
          end
        done;
        Some t
      end

let solve ?budget ~a ~b ~c () =
  let m = Array.length a in
  if Array.length b <> m then invalid_arg "Simplex.solve: b length mismatch";
  let n = if m = 0 then Array.length c else Array.length a.(0) in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Simplex.solve: ragged a")
    a;
  if Array.length c <> n then invalid_arg "Simplex.solve: c length mismatch";
  match phase1 ?budget ~a ~b () with
  | None -> Infeasible
  | Some t ->
      (* Phase 2.  Artificial columns keep cost zero but are barred from
         entering the basis (see the [max_col] bound below); any that
         remain basic are degenerate at value zero. *)
      let costs = Array.init t.n (fun j -> if j < n then c.(j) else Rat.zero) in
      (* Reduced-cost row: c_j - c_B^T B^{-1} A_j, computed from the
         current tableau: row m := costs - sum_r costs(basis r) * row r. *)
      for j = 0 to t.n do
        let v = if j < t.n then costs.(j) else Rat.zero in
        let s = ref v in
        for r = 0 to t.m - 1 do
          s := Rat.sub !s (Rat.mul costs.(t.basis.(r)) t.tab.(r).(j))
        done;
        t.tab.(t.m).(j) <- !s
      done;
      (* The rhs cell of the objective row accumulates -objective. *)
      let s = ref Rat.zero in
      for r = 0 to t.m - 1 do
        s := Rat.add !s (Rat.mul costs.(t.basis.(r)) t.tab.(r).(t.n))
      done;
      t.tab.(t.m).(t.n) <- Rat.neg !s;
      (match iterate ~max_col:n ?budget t with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let x = extract_solution t n in
          let objective = ref Rat.zero in
          Array.iteri (fun j v -> objective := Rat.add !objective (Rat.mul c.(j) v)) x;
          Optimal { objective = !objective; solution = x })

let feasible_point ?budget ~a ~b () =
  let m = Array.length a in
  let n = if m = 0 then 0 else Array.length a.(0) in
  match phase1 ?budget ~a ~b () with
  | None -> None
  | Some t -> Some (extract_solution t n)
