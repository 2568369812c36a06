(* R10 fixture: an interface whose exports test/test_lint.ml pins. *)
val unused : int -> int
val test_only : int -> int
val own_use_only : int -> int
val via_alias : int -> int
val via_let_module : int -> int
val as_value : int -> int
val test_only_waived : int -> int (* lint: ok R10 probe *)

module Inner : sig
  val nested_used : int -> int
  val nested_unused : int -> int
  val nested_waived : int -> int (* lint: ok R10 nested probe *)
end
