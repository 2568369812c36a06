(* Quickstart: build an instance, pack it, inspect the result.

   Run with: dune exec examples/quickstart.exe *)

open Dsp_core

let () =
  (* A strip of width 12 and a handful of demands, exactly as in the
     paper's model: width = duration, height = power. *)
  let inst =
    Instance.of_dims ~width:12
      [ (5, 4); (1, 7); (4, 5); (2, 7); (3, 3); (6, 2); (2, 2) ]
  in
  Format.printf "%a@.@." Instance.pp inst;

  (* Pack with the (5/4+eps) algorithm... *)
  let packing, stats = Dsp_algo.Approx54.solve_with_stats inst in
  Printf.printf "peak demand: %d (lower bound %d, binary-search guesses %d)\n\n"
    (Packing.height packing)
    (Instance.lower_bound inst)
    stats.Dsp_algo.Approx54.guesses;

  (* ... and draw the demand profile. *)
  print_endline (Profile.render (Packing.profile packing));

  (* A packing is just start columns; the explicit sliced layout shows
     where each item's slices sit vertically. *)
  print_newline ();
  print_endline (Slice_layout.render (Slice_layout.stacked packing));

  (* Compare against the exact optimum (the instance is small). *)
  match
    Dsp_util.Budget.within ~nodes:20_000_000 (fun budget ->
        Dsp_exact.Dsp_bb.optimal_height ~budget inst)
  with
  | Some opt -> Printf.printf "\nexact optimum: %d\n" opt
  | None -> print_endline "\nexact optimum: (node budget exhausted)"
