(* R10: dead exports.  Every value a checked interface exports must be
   named by some other unit that is not a test; a value no other unit
   names, or only tests name, is a finding unless its `val` line is
   waived with a reason.

   Exports come from the .cmti typedtree dune writes for each .mli,
   nested [module M : sig … end] signatures included.  References are
   the [refs] of each unit's summary ([Lint_tast]): a function passed
   as a value counts as much as a call, and a local alias ([module Bb
   = Dsp_exact.Dsp_bb]) is already resolved.  A use through an alias
   an interface exports ([Approx54.Rat.add]) does not count; the tree
   has none. *)

open Typedtree
module Ir = Lint_ir

type export = {
  key : string list;  (* normalized: wrapper :: unit :: modules :: name *)
  shown : string;  (* unit :: modules :: name, e.g. "Pts.Inst.make" *)
  pos : Ir.pos;  (* of the `val` in the .mli *)
}

(* The values one .cmti exports; [Error] for an unreadable artifact. *)
let exports_of_cmti path =
  match Cmt_format.read_cmt path with
  | exception e ->
      Error (Printf.sprintf "%s: cannot read cmti: %s" path (Printexc.to_string e))
  | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_modname; _ } ->
      let unit = Ir.split_mangled cmt_modname in
      let rec items stack (sg : signature) =
        List.concat_map
          (fun si ->
            match si.sig_desc with
            | Tsig_value vd ->
                let name = stack @ [ vd.val_name.Location.txt ] in
                [
                  {
                    key = unit @ name;
                    shown = Ir.join_name (Lint_tast.last_component unit :: name);
                    pos = Lint_tast.pos_of_loc vd.val_loc;
                  };
                ]
            | Tsig_module md -> module_decl stack md
            | Tsig_recmodule mds -> List.concat_map (module_decl stack) mds
            | _ -> [])
          sg.sig_items
      and module_decl stack md =
        match (md.md_name.Location.txt, md.md_type.mty_desc) with
        | Some m, Tmty_signature sg -> items (stack @ [ m ]) sg
        | _ -> []
      in
      Ok (items [] sg)
  | _ -> Error (Printf.sprintf "%s: not an interface cmti" path)

(* [users] are the units whose references count; [is_test] tells which
   of them are tests.  A unit names its own values by paths that start
   inside it ([make], [Inst.make]), never at its library's wrapper, so
   it never counts for its own exports. *)
let check ~is_test ~users exports =
  let named_by = Hashtbl.create 4096 in
  List.iter
    (fun (s : Ir.summary) ->
      List.iter (fun r -> Hashtbl.add named_by r s.Ir.src_file) s.Ir.refs)
    users;
  List.filter_map
    (fun e ->
      let others = List.sort_uniq compare (Hashtbl.find_all named_by e.key) in
      let finding msg =
        Some
          {
            Lint_core.rule = Lint_core.R10;
            file = e.pos.Ir.file;
            line = e.pos.Ir.line;
            col = e.pos.Ir.col;
            msg = Printf.sprintf "`%s` is exported but %s" e.shown msg;
          }
      in
      if others = [] then
        finding "no other unit names it: delete it, or drop it from the interface"
      else if List.for_all is_test others then
        finding
          (Printf.sprintf
             "only tests name it (%s): delete it with the tests that only \
              test it, move it to the tests, or waive it with a reason"
             (String.concat ", " (List.map Filename.basename others)))
      else None)
    exports
