open Dsp_core

type t = {
  solver : string;
  packing : Packing.t;
  peak : int;
  lower_bound : int;
  ratio : float;
  seconds : float;
  counters : (string * int) list;
}

let validate_packing ~solver ~instance packing =
  let got = Packing.instance packing in
  if not (Instance.equal got instance) then
    Error
      (Printf.sprintf
         "solver %S answered a different instance (width %d, %d items) than was \
          posed (width %d, %d items)"
         solver got.Instance.width (Instance.n_items got) instance.Instance.width
         (Instance.n_items instance))
  else
    match Packing.validate packing with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "solver %S produced an invalid packing: %s" solver e)

let make ~solver ~instance ~packing ~seconds ~counters =
  match validate_packing ~solver ~instance packing with
  | Error _ as e -> e
  | Ok () ->
      let peak = Packing.height packing in
      let lower_bound = Instance.lower_bound instance in
      let ratio =
        if peak = 0 && lower_bound = 0 then 1.0
        else float_of_int peak /. float_of_int (max 1 lower_bound)
      in
      Ok
        {
          solver;
          packing;
          peak;
          lower_bound;
          ratio;
          seconds;
          counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counters;
        }

let counter t name = Option.value (List.assoc_opt name t.counters) ~default:0

