(* Intermediate representation of the whole-program rules (R6–R9).
   [Lint_tast] lowers each compiled module's .cmt typedtree to a
   per-function event summary, for the production tree and the
   compiled fixture library alike, so the rules and the call graph
   never look at an AST.

   The event language keeps exactly what the four rules need, in
   evaluation order:
   - [Call]: an application, with the callee's qualified-name
     components and the body events of any closure-literal arguments
     attached (the callee may run those under its own locks, after its
     own validation — the rules decide).
   - [Lock]/[Unlock]: Mutex.lock/Mutex.unlock with a stable identity
     for the mutex (type-path + field for record fields, the value
     path otherwise).
   - [Alloc]: a structural allocation — closure, tuple, non-constant
     constructor, record, boxed float literal, array literal,
     payload-carrying raise.  Allocating stdlib *calls* (Array.make,
     sprintf, ...) stay plain [Call]s; R7 matches those by name.
   - [Branch]: one event list per arm (if/match/try); a rule chooses
     arm semantics (independent paths for R8, held-set intersection
     for R6/R9).
   - [Closure]: a function literal outside argument position (bound,
     stored, returned); rules explore the body without assuming when
     it runs.

   Name discipline: qualified names are component lists.  Definitions
   carry their full module stack ("Pts" :: "Inst" :: "of_dims");
   call sites carry the most qualified name the typed path gives, and
   [Lint_callgraph] resolves by peeling prefixes.  Component lists are
   already normalized: "Dsp_core__Segtree" splits into its "__" parts
   and "Stdlib" heads are dropped, so call sites and the rule
   vocabularies agree on spelling. *)

type pos = { file : string; line : int; col : int }

type event =
  | Call of call
  | Lock of string * pos
  | Unlock of string * pos
  | Alloc of string * pos  (* what allocates, e.g. "closure", "tuple" *)
  | Branch of event list list
  | Closure of event list * pos

and call = {
  callee : string list;  (* normalized qualified-name components *)
  cpos : pos;
  cargs : event list list;  (* body events of closure-literal arguments *)
}

type func = {
  fname : string list;  (* unit :: module stack :: binding name *)
  fpos : pos;
  events : event list;
}

type summary = {
  unit_name : string;  (* normalized top module name, e.g. "Segtree" *)
  src_file : string;  (* root-relative source path when known *)
  funcs : func list;
}

let join_name comps = String.concat "." comps
let normalize path = String.concat "/" (String.split_on_char '\\' path)

(* ----- name normalization --------------------------------------------- *)

(* "Dsp_core__Segtree" -> ["Dsp_core"; "Segtree"]: dune's wrapped
   libraries mangle module names with "__"; splitting restores the
   logical stack so suffix/prefix matching works across libraries. *)
let split_mangled comp =
  let n = String.length comp in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub comp start (n - start) :: acc)
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      let piece = String.sub comp start (i - start) in
      let acc = if piece = "" then acc else piece :: acc in
      go (i + 2) (i + 2) acc
    else go start (i + 1) acc
  in
  if n = 0 then [] else go 0 0 []

let normalize_path_name name =
  match List.concat_map split_mangled (String.split_on_char '.' name) with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | c -> c

(* ----- event utilities ------------------------------------------------- *)

(* Fold over every event in a list, descending into branches, closure
   bodies and closure arguments — for rules that need the flat view. *)
let rec iter_events f evs =
  List.iter
    (fun ev ->
      f ev;
      match ev with
      | Call c -> List.iter (iter_events f) c.cargs
      | Branch arms -> List.iter (iter_events f) arms
      | Closure (body, _) -> iter_events f body
      | Lock _ | Unlock _ | Alloc _ -> ())
    evs

(* The mutex identities a function locks directly (no recursion into
   callees); used to approximate "callee runs my closure argument
   under these locks". *)
let direct_lock_ids fn =
  let acc = ref [] in
  iter_events
    (function
      | Lock (id, _) -> if not (List.mem id !acc) then acc := id :: !acc
      | _ -> ())
    fn.events;
  List.rev !acc

(* ----- vocabulary matching -------------------------------------------- *)

(* A vocabulary entry like ["Wal"; "append"] matches a call whose
   normalized components end with it: ["Dsp_serve"; "Wal"; "append"]
   and ["Wal"; "append"] both hit. *)
let suffix_matches entry comps =
  let le = List.length entry and lc = List.length comps in
  lc >= le
  && entry = List.filteri (fun i _ -> i >= lc - le) comps

let matches_any vocab comps =
  List.exists (fun entry -> suffix_matches entry comps) vocab
