let unused x = x
let test_only x = x
let test_only_waived x = x
let own_use_only x = x
let _ = own_use_only 0
let via_alias x = x
let via_let_module x = x
let as_value x = x

module Inner = struct
  let nested_used x = x
  let nested_unused x = x
  let nested_waived x = x
end
