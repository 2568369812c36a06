let c_nodes = Dsp_util.Instr.counter Dsp_util.Instr.Sites.three_partition_nodes

let check ~numbers ~bound =
  let n = Array.length numbers in
  if n mod 3 <> 0 then invalid_arg "Three_partition: need a multiple of 3 numbers";
  let k = n / 3 in
  let sum = Array.fold_left ( + ) 0 numbers in
  if sum <> k * bound then
    invalid_arg
      (Printf.sprintf "Three_partition: sum %d does not equal k*bound = %d" sum
         (k * bound));
  k

let search ?budget ~numbers ~bound () =
  let n = Array.length numbers in
  let _k = check ~numbers ~bound in
  let used = Array.make n false in
  let triples = ref [] in
  let nodes = ref 0 in
  (* Always extend the triple of the first unused index: this breaks
     the symmetry between triples. *)
  (* lint: ok R3 — bounded O(n) scan; [go] checkpoints every node *)
  let rec first_unused i = if i >= n || not used.(i) then i else first_unused (i + 1) in
  let rec go () =
    incr nodes;
    Dsp_util.Instr.bump c_nodes;
    (* The budget is this search's only limit, as for every exact
       search; the hardness experiments pass none, to measure the full
       blow-up. *)
    Dsp_util.Budget.check_opt budget;
    let a = first_unused 0 in
    if a >= n then true
    else begin
      used.(a) <- true;
      let ok = ref false in
      let b = ref (a + 1) in
      while (not !ok) && !b < n do
        if (not used.(!b)) && numbers.(a) + numbers.(!b) < bound then begin
          (* Skip duplicates of a previously tried b value. *)
          let dup = ref false in
          for b' = a + 1 to !b - 1 do
            if (not used.(b')) && numbers.(b') = numbers.(!b) then dup := true
          done;
          if not !dup then begin
            used.(!b) <- true;
            let target = bound - numbers.(a) - numbers.(!b) in
            let c = ref (!b + 1) in
            while (not !ok) && !c < n do
              if (not used.(!c)) && numbers.(!c) = target then begin
                used.(!c) <- true;
                triples := (a, !b, !c) :: !triples;
                if go () then ok := true
                else begin
                  triples := List.tl !triples;
                  used.(!c) <- false;
                  (* All equal values of c behave identically. *)
                  while !c < n - 1 && numbers.(!c + 1) = target do
                    incr c
                  done
                end
              end;
              incr c
            done;
            if not !ok then used.(!b) <- false
          end
        end;
        incr b
      done;
      if not !ok then used.(a) <- false;
      !ok
    end
  in
  let found = go () in
  (found, (if found then Some (Array.of_list (List.rev !triples)) else None), !nodes)

let solve ?budget ~numbers ~bound () =
  let _, triples, _ = search ?budget ~numbers ~bound () in
  triples

let solvable ?budget ~numbers ~bound () =
  let found, _, _ = search ?budget ~numbers ~bound () in
  found

let count_nodes ?budget ~numbers ~bound () =
  let found, _, nodes = search ?budget ~numbers ~bound () in
  (found, nodes)
