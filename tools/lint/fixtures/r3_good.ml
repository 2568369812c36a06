(* R3 fixture: budgeted recursion, both with a direct checkpoint and
   through a checkpointing helper. *)
let rec walk budget n =
  Budget.check_opt budget;
  if n = 0 then 0 else walk budget (n - 1)

let helper budget = Dsp_util.Budget.poll_opt budget

let rec indirect budget n =
  helper budget;
  if n = 0 then 0 else indirect budget (n - 1)
