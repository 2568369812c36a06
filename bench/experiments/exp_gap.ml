(* E1: the sliced-vs-unsliced integrality gap (Figure 1 / Bladek et
   al.).  Exact optima of the discovered gap witnesses at several
   height scales; the literature bound is 5/4. *)

let e1 () =
  Common.section "E1"
    "integrality gap: OPT_SP vs OPT_DSP (paper: family with gap 5/4)";
  Printf.printf "%-28s %8s %8s %8s\n" "instance" "OPT_DSP" "OPT_SP" "gap";
  let report name inst =
    let within = Dsp_util.Budget.within ~nodes:30_000_000 in
    match
      ( within (fun budget -> Dsp_exact.Dsp_bb.optimal_height ~budget inst),
        within (fun budget -> Dsp_exact.Sp_exact.optimal_height ~budget inst) )
    with
    | Some d, Some s ->
        Printf.printf "%-28s %8d %8d %8.4f\n" name d s
          (float_of_int s /. float_of_int d)
    | _ -> Printf.printf "%-28s %8s\n" name "budget exhausted"
  in
  List.iteri
    (fun i inst -> report (Printf.sprintf "witness-%d" i) inst)
    Dsp_instance.Gap_family.slicing_wins;
  List.iter
    (fun scale ->
      report
        (Printf.sprintf "gap-family scale=%d" scale)
        (Dsp_instance.Gap_family.instance ~scale))
    [ 2; 3 ];
  print_endline
    "(literature: a family with gap exactly 5/4 exists [Bladek et al.];\n\
    \ the witnesses above are the largest gaps verifiable exactly at this size)"

let experiments = [ ("E1", e1) ]
