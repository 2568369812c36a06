(* R9 fixture: blocking IO while the mutex is held — directly, through
   a helper, and through the locked-closure idiom. *)
let m = Mutex.create ()

let persist fd = Unix.fsync fd

let direct fd =
  Mutex.lock m;
  Unix.fsync fd;
  Mutex.unlock m

let indirect fd =
  Mutex.lock m;
  persist fd;
  Mutex.unlock m

let locked f =
  Mutex.lock m;
  let r = f () in
  Mutex.unlock m;
  r

let via_closure fd = locked (fun () -> Unix.fsync fd)

let via_apply fd = locked @@ fun () -> Unix.fsync fd

let via_pipe fd = (fun () -> Unix.fsync fd) |> locked

let locked_by mu f =
  Mutex.lock mu;
  let r = f () in
  Mutex.unlock mu;
  r

let via_partial fd = locked_by m @@ fun () -> Unix.fsync fd
