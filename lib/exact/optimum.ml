let below ~lo ~hi decide =
  (* At most floor(log2 (hi - lo + 1)) + 1 rounds, and every decision
     checks the budget at each of its nodes.  lint: ok R3 *)
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = lo + ((hi - lo) / 2) in
      match decide mid with
      | Some _ as witness -> search lo (mid - 1) witness
      | None -> search (mid + 1) hi best
  in
  search lo hi None

let variant ~budget ~bound ~incumbent decide =
  Dsp_util.Budget.check_opt budget;
  if bound >= incumbent then None
  else below ~lo:bound ~hi:(incumbent - 1) decide
