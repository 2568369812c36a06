(* R9 fixture: the same settles with the wake written after
   Mutex.unlock, the order Pool.submit keeps for its completion
   hook. *)
type 'a fut = { fm : Mutex.t; mutable st : 'a option }

let wake wr = ignore (Unix.single_write_substring wr "!" 0 1)

let settle fut wr v =
  Mutex.lock fut.fm;
  fut.st <- Some v;
  Mutex.unlock fut.fm;
  ignore (Unix.single_write_substring wr "!" 0 1)

let settle_then_wake fut wr v =
  Mutex.lock fut.fm;
  fut.st <- Some v;
  Mutex.unlock fut.fm;
  wake wr
