open Dsp_core

type error_kind =
  | Empty_input
  | Bad_header of string
  | Bad_cap of int
  | Truncated_line of string
  | Bad_number of string
  | Bad_dimension of int * int
  | Too_wide of int * int
  | Invalid of string

type error = { line : int; kind : error_kind }

let error_to_string { line; kind } =
  let at = if line > 0 then Printf.sprintf "line %d: " line else "" in
  let body =
    match kind with
    | Empty_input -> "empty input"
    | Bad_header h ->
        Printf.sprintf "bad header %S (want \"dsp <width>\" or \"pts <machines>\")"
          h
    | Bad_cap c -> Printf.sprintf "width/machine count must be >= 1, got %d" c
    | Truncated_line l ->
        Printf.sprintf "expected two integers per line, got %S" l
    | Bad_number tok -> Printf.sprintf "not an integer: %S" tok
    | Bad_dimension (w, h) ->
        Printf.sprintf "dimensions must be >= 1, got %d x %d" w h
    | Too_wide (v, cap) ->
        Printf.sprintf "demand %d exceeds the capacity %d of the header" v cap
    | Invalid msg -> msg
  in
  at ^ body

let err ~line kind = Error { line; kind }

let instance_to_string (inst : Instance.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "dsp %d\n" inst.Instance.width);
  Array.iter
    (fun (it : Item.t) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" it.w it.h))
    inst.Instance.items;
  Buffer.contents buf

(* Lines paired with their 1-based position in the original text, so
   every parse error can point at the offending line; blanks and [#]
   comments are dropped here. *)
let relevant_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_pairs lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (line_no, line) :: rest -> (
        match tokens line with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b ->
                if a < 1 || b < 1 then err ~line:line_no (Bad_dimension (a, b))
                else go ((line_no, (a, b)) :: acc) rest
            | None, _ -> err ~line:line_no (Bad_number a)
            | _, None -> err ~line:line_no (Bad_number b))
        | _ -> err ~line:line_no (Truncated_line line))
  in
  go [] lines

let parse_header s =
  match relevant_lines s with
  | [] -> err ~line:0 Empty_input
  | (line_no, header) :: rest -> (
      match tokens header with
      | [ "dsp"; v ] -> (
          match int_of_string_opt v with
          | Some v when v >= 1 -> Ok (v, rest)
          | Some v -> err ~line:line_no (Bad_cap v)
          | None -> err ~line:line_no (Bad_number v))
      | _ -> err ~line:line_no (Bad_header header))

(* The capacity check ([w <= width]) re-implements what the
   constructor enforces, purely to attribute the error to a line; the
   constructor stays the source of truth and any remaining rejection
   is wrapped as [Invalid]. *)
let check_capacity ~cap pairs =
  let rec go = function
    | [] -> Ok ()
    | (line_no, (a, _)) :: rest ->
        if a > cap then err ~line:line_no (Too_wide (a, cap)) else go rest
  in
  go pairs

let instance_of_string s =
  let ( let* ) = Result.bind in
  let* width, rest = parse_header s in
  let* pairs = parse_pairs rest in
  let* () = check_capacity ~cap:width pairs in
  try Ok (Instance.of_dims ~width (List.map snd pairs))
  with Invalid_argument msg -> err ~line:0 (Invalid msg)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
