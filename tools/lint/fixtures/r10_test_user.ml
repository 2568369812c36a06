(* R10 fixture: a test unit, whose uses alone keep nothing alive. *)
let t =
  R10_lib.test_only 1 + R10_lib.test_only_waived 2
  + R10_lib.Inner.nested_waived 3
