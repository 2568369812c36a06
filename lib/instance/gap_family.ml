open Dsp_core

(* Found by exhaustive search + hill climbing with the exact solvers
   of dsp_exact (see DESIGN.md §3): OPT_DSP = 6, OPT_SP = 7. *)
let base_dims =
  [ (2, 1); (3, 3); (1, 1); (2, 3); (2, 2); (1, 4); (3, 2); (3, 2); (1, 4) ]

let base_width = 7

let instance ~scale =
  if scale < 1 then invalid_arg "Gap_family.instance: scale must be >= 1";
  Instance.of_dims ~width:base_width
    (List.map (fun (w, h) -> (w, h * scale)) base_dims)

(* Smaller verified witnesses: (width, dims, dsp_opt, sp_opt). *)
let small_witnesses =
  [
    (* gap 8/7 *)
    (7, [ (3, 6); (1, 2); (3, 1); (1, 3); (3, 2); (1, 3); (5, 1); (4, 2) ]);
    (* gap 9/8 *)
    (5, [ (2, 3); (2, 1); (1, 6); (2, 4); (1, 4); (2, 2); (3, 3) ]);
  ]

let slicing_wins =
  instance ~scale:1
  :: List.map (fun (width, dims) -> Instance.of_dims ~width dims) small_witnesses
