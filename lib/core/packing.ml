type t = { instance : Instance.t; starts : int array }

let feasibility_error (inst : Instance.t) starts =
  if Array.length starts <> Instance.n_items inst then
    Some
      (Printf.sprintf "starts has %d entries for %d items" (Array.length starts)
         (Instance.n_items inst))
  else
    let err = ref None in
    Array.iteri
      (fun i s ->
        if !err = None then
          let it = Instance.item inst i in
          if s < 0 || s + it.Item.w > inst.Instance.width then
            err :=
              Some
                (Printf.sprintf "item %d (w=%d) at start %d leaves strip of width %d"
                   i it.Item.w s inst.Instance.width))
      starts;
    !err

let make inst starts =
  (match feasibility_error inst starts with
  | Some msg -> invalid_arg ("Packing.make: " ^ msg)
  | None -> ());
  { instance = inst; starts = Array.copy starts }

let instance t = t.instance
let start t i = t.starts.(i)
let starts t = Array.copy t.starts
let profile t = Profile.of_starts t.instance t.starts
let height t = Profile.peak (profile t)

let validate t =
  match feasibility_error t.instance t.starts with
  | Some msg -> Error msg
  | None -> Ok ()

let shift t i s =
  let starts = Array.copy t.starts in
  starts.(i) <- s;
  make t.instance starts
