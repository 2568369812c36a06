(* R9 fixture: a future's settle that writes the wake pipe while it
   still holds the future's mutex, directly and through a helper.  The
   loop the byte wakes then polls into a held lock. *)
type 'a fut = { fm : Mutex.t; mutable st : 'a option }

let wake wr = ignore (Unix.single_write_substring wr "!" 0 1)

let settle fut wr v =
  Mutex.lock fut.fm;
  fut.st <- Some v;
  ignore (Unix.single_write_substring wr "!" 0 1);
  Mutex.unlock fut.fm

let settle_then_wake fut wr v =
  Mutex.lock fut.fm;
  fut.st <- Some v;
  wake wr;
  Mutex.unlock fut.fm
