(* R10 fixture: the uses that count, through aliases and as values. *)
module L = R10_lib

let apply ~f x = f x
let a = L.via_alias 1
let b = L.Inner.nested_used 2
let c = apply ~f:R10_lib.as_value 3
let d = let module M = R10_lib in M.via_let_module 4
