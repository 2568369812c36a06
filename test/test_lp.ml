module Rat = Dsp_util.Rat
module Simplex = Dsp_lp.Simplex

let r = Rat.of_int

let known_lp_tests =
  [
    Alcotest.test_case "textbook maximum" `Quick (fun () ->
        (* max x+y s.t. x+2y <= 4, 3x+y <= 6 (slacks added):
           optimum 14/5 at (8/5, 6/5). *)
        let a = [| [| r 1; r 2; r 1; r 0 |]; [| r 3; r 1; r 0; r 1 |] |] in
        let b = [| r 4; r 6 |] in
        let c = [| r 1; r 1; r 0; r 0 |] in
        match Simplex.solve ~a ~b ~c () with
        | Simplex.Optimal { objective; solution } ->
            Alcotest.check Alcotest.bool "objective 14/5" true
              (Rat.equal objective (Rat.make 14 5));
            Alcotest.check Alcotest.bool "x = 8/5" true
              (Rat.equal solution.(0) (Rat.make 8 5))
        | _ -> Alcotest.fail "expected an optimum");
    Alcotest.test_case "detects infeasibility" `Quick (fun () ->
        match Simplex.solve ~a:[| [| r 1 |] |] ~b:[| r (-1) |] ~c:[| r 0 |] () with
        | Simplex.Infeasible -> ()
        | _ -> Alcotest.fail "expected infeasible");
    Alcotest.test_case "detects unboundedness" `Quick (fun () ->
        match
          Simplex.solve ~a:[| [| r 1; r (-1) |] |] ~b:[| r 0 |] ~c:[| r 1; r 0 |] ()
        with
        | Simplex.Unbounded -> ()
        | _ -> Alcotest.fail "expected unbounded");
    Alcotest.test_case "degenerate system" `Quick (fun () ->
        (* Redundant equalities: x = 1 stated twice. *)
        let a = [| [| r 1 |]; [| r 1 |] |] in
        match Simplex.feasible_point ~a ~b:[| r 1; r 1 |] () with
        | Some x -> Alcotest.check Alcotest.bool "x = 1" true (Rat.equal x.(0) Rat.one)
        | None -> Alcotest.fail "expected feasible");
  ]

(* Random feasible systems: draw A and a non-negative x0, set
   b := A x0; the solver must find some feasible point. *)
let system_arb =
  QCheck.make
    ~print:(fun (m, n, entries, x0) ->
      Printf.sprintf "m=%d n=%d A=%s x0=%s" m n
        (String.concat ";" (List.map string_of_int entries))
        (String.concat ";" (List.map string_of_int x0)))
    QCheck.Gen.(
      let* m = int_range 1 4 in
      let* n = int_range 1 6 in
      let* entries = list_repeat (m * n) (int_range (-5) 5) in
      let* x0 = list_repeat n (int_range 0 5) in
      return (m, n, entries, x0))

let build_system (m, n, entries, x0) =
  let entries = Array.of_list entries in
  let a = Array.init m (fun i -> Array.init n (fun j -> r entries.((i * n) + j))) in
  let x0 = Array.of_list (List.map r x0) in
  let b =
    Array.init m (fun i ->
        let s = ref Rat.zero in
        for j = 0 to n - 1 do
          s := Rat.add !s (Rat.mul a.(i).(j) x0.(j))
        done;
        !s)
  in
  (a, b, x0)

let property_tests =
  [
    Helpers.qtest ~count:200 "feasible systems admit a feasible point" system_arb
      (fun sys ->
        let a, b, _ = build_system sys in
        match Simplex.feasible_point ~a ~b () with
        | None -> false
        | Some x ->
            (* Check Ax = b and x >= 0 exactly. *)
            Array.for_all (fun v -> Rat.sign v >= 0) x
            && Array.for_all2
                 (fun row rhs ->
                   let s = ref Rat.zero in
                   Array.iteri (fun j v -> s := Rat.add !s (Rat.mul v x.(j))) row;
                   Rat.equal !s rhs)
                 a b);
    Helpers.qtest ~count:200 "feasible points are basic (few non-zeros)"
      system_arb (fun sys ->
        let a, b, _ = build_system sys in
        match Simplex.feasible_point ~a ~b () with
        | None -> false
        | Some x ->
            Array.fold_left (fun n v -> if Rat.sign v <> 0 then n + 1 else n) 0 x
            <= Array.length a);
    Helpers.qtest ~count:100 "optimal value dominates the witness objective"
      system_arb (fun sys ->
        let a, b, x0 = build_system sys in
        let n = Array.length x0 in
        let c = Array.init n (fun j -> r (((j * 7) mod 5) - 2)) in
        match Simplex.solve ~a ~b ~c () with
        | Simplex.Optimal { objective; _ } ->
            let at_x0 = ref Rat.zero in
            Array.iteri (fun j v -> at_x0 := Rat.add !at_x0 (Rat.mul c.(j) v)) x0;
            Rat.compare objective !at_x0 >= 0
        | Simplex.Unbounded -> true
        | Simplex.Infeasible -> false);
  ]

let suite = known_lp_tests @ property_tests
