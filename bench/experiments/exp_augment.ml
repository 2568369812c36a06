(* E5/E6/E7: the Corollary 2-4 augmentation frames — optimal height
   under width augmentation, optimal makespan under machine
   augmentation. *)

module Rng = Dsp_util.Rng

let e5 () =
  Common.section "E5" "Corollary 2: optimal-height DSP with width augmentation";
  Printf.printf "%-8s %8s %8s %11s %10s\n" "n" "height" "OPT(W)" "width-fac"
    "optimal?";
  List.iter
    (fun (n, seed) ->
      let rng = Rng.create (Common.seed_for seed) in
      let inst =
        Dsp_instance.Generators.uniform rng ~n ~width:12 ~max_w:6 ~max_h:6
      in
      let r = Dsp_augment.Augment.dsp_with_width_augmentation inst in
      let opt =
        Dsp_util.Budget.within ~nodes:5_000_000 (fun budget ->
            Dsp_exact.Dsp_bb.optimal_height ~budget inst)
      in
      Printf.printf "%-8d %8d %8s %11.3f %10s\n" n r.Dsp_augment.Augment.height
        (match opt with Some o -> string_of_int o | None -> "?")
        r.Dsp_augment.Augment.width_factor
        (match opt with
        | Some o -> if r.Dsp_augment.Augment.height <= o then "yes" else "NO"
        | None -> "-"))
    [ (6, 1); (8, 2); (10, 3); (12, 4); (14, 5) ];
  print_endline
    "(paper: factor 3/2+eps with the Jansen-Thoele inner solver; ours uses\n\
    \ 2-approximate list scheduling, so the certificate is 2 -- DESIGN.md s3)"

let e67 which name solver_result =
  Common.section which (Printf.sprintf "optimal-makespan PTS, %s" name);
  Printf.printf "%-10s %10s %8s %10s %10s\n" "n,m" "makespan" "OPT(m)"
    "mach-fac" "optimal?";
  List.iter
    (fun (n, m, seed) ->
      let rng = Rng.create (Common.seed_for seed) in
      let pts = Dsp_instance.Generators.uniform_pts rng ~n ~machines:m ~max_p:6 in
      let r = solver_result pts in
      let opt =
        Dsp_util.Budget.within ~nodes:3_000_000 (fun budget ->
            Dsp_exact.Pts_exact.optimal_makespan ~budget pts)
      in
      Printf.printf "%-10s %10d %8s %10.3f %10s\n"
        (Printf.sprintf "%d,%d" n m)
        r.Dsp_augment.Augment.makespan
        (match opt with Some o -> string_of_int o | None -> "?")
        r.Dsp_augment.Augment.machine_factor
        (match opt with
        | Some o -> if r.Dsp_augment.Augment.makespan <= o then "yes" else "NO"
        | None -> "-"))
    [ (5, 3, 1); (6, 4, 2); (7, 4, 3); (8, 5, 4); (9, 5, 5) ]

let e6 () =
  e67 "E6" "(5/3)-style polynomial inner solver" Dsp_augment.Augment.pts_53

let e7 () =
  e67 "E7" "(5/4+eps) pseudo-polynomial inner solver" Dsp_augment.Augment.pts_54

let experiments = [ ("E5", e5); ("E6", e6); ("E7", e7) ]
