(* E12: ablation — how much slicing buys, and the structured
   algorithm vs plain greedy. *)

open Dsp_core
module Rng = Dsp_util.Rng

let e12 () =
  Common.section "E12" "ablation: slicing benefit and structured vs greedy";
  let gaps = ref [] and strict = ref 0 and total = ref 0 in
  for seed = 0 to 120 do
    let rng = Rng.create (Common.seed_for (seed * 7)) in
    let inst =
      Dsp_instance.Generators.uniform rng
        ~n:(5 + (seed mod 4))
        ~width:(5 + (seed mod 3))
        ~max_w:4 ~max_h:6
    in
    match
      ( Dsp_util.Budget.within ~nodes:1_000_000 (fun budget ->
            Dsp_exact.Dsp_bb.optimal_height ~budget inst),
        Dsp_util.Budget.within ~nodes:2_000_000 (fun budget ->
            Dsp_exact.Sp_exact.optimal_height ~budget inst) )
    with
    | Some d, Some s when d > 0 ->
        incr total;
        if s > d then incr strict;
        gaps := (float_of_int s /. float_of_int d) :: !gaps
    | _ -> ()
  done;
  let avg = List.fold_left ( +. ) 0.0 !gaps /. float_of_int (List.length !gaps) in
  Printf.printf
    "random tiny instances: mean gap %.4f, max gap %.4f, strict gap on %d/%d\n"
    avg
    (List.fold_left max 1.0 !gaps)
    !strict !total;
  Printf.printf
    "curated witnesses (Gap_family.slicing_wins): %d instances, all with a\n\
    \ strict gap (verified by E1) -- strict gaps are adversarial corners\n"
    (List.length Dsp_instance.Gap_family.slicing_wins);
  let structured = ref 0.0 and greedy = ref 0.0 and cnt = ref 0 in
  for seed = 0 to 15 do
    let rng = Rng.create (Common.seed_for (seed * 31)) in
    let inst =
      Dsp_instance.Generators.tall_and_flat rng ~n:40 ~width:40 ~max_h:20
    in
    let h54 = float_of_int (Common.height_by_name "approx54" inst) in
    let hbfd = float_of_int (Common.height_by_name "bfd-height" inst) in
    let lb = float_of_int (Instance.lower_bound inst) in
    structured := !structured +. (h54 /. lb);
    greedy := !greedy +. (hbfd /. lb);
    incr cnt
  done;
  Printf.printf
    "tall-flat n=40: approx54 %.3f x LB vs plain greedy %.3f x LB (avg of %d)\n"
    (!structured /. float_of_int !cnt)
    (!greedy /. float_of_int !cnt)
    !cnt

let experiments = [ ("E12", e12) ]
