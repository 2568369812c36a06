open Dsp_core
module Gen = Dsp_instance.Generators
module Hardness = Dsp_instance.Hardness
module Io = Dsp_instance.Io

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

let generator_tests =
  [
    Helpers.qtest "uniform respects its bounds" seed_arb (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let inst = Gen.uniform rng ~n:20 ~width:30 ~max_w:10 ~max_h:7 in
        Instance.n_items inst = 20
        && Array.for_all
             (fun (it : Item.t) -> it.Item.w <= 10 && it.Item.h <= 7)
             inst.Instance.items);
    Helpers.qtest "correlated respects its bounds" seed_arb (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let inst = Gen.correlated rng ~n:15 ~width:30 ~max_w:10 ~max_h:9 in
        Array.for_all
          (fun (it : Item.t) ->
            it.Item.w >= 1 && it.Item.w <= 10 && it.Item.h >= 1 && it.Item.h <= 9)
          inst.Instance.items);
    Helpers.qtest "perfect_fit tiles the full rectangle" seed_arb (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let inst = Gen.perfect_fit rng ~width:12 ~height:9 ~cuts:10 in
        Instance.total_area inst = 12 * 9);
    Helpers.qtest "perfect_fit has optimum equal to its height" seed_arb
      (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let inst = Gen.perfect_fit rng ~width:8 ~height:6 ~cuts:5 in
        QCheck.assume (Instance.n_items inst <= 7);
        match
          Dsp_util.Budget.within ~nodes:500_000 (fun budget ->
              Dsp_exact.Dsp_bb.optimal_height ~budget inst)
        with
        | Some opt -> opt = 6
        | None -> true);
  ]

let hardness_tests =
  [
    Helpers.qtest "yes instances satisfy the 3-partition window" seed_arb
      (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Hardness.yes_instance rng ~k:4 ~bound:20 in
        Array.for_all (fun a -> (4 * a) > 20 && 2 * a < 20) tp.Hardness.numbers
        && Array.fold_left ( + ) 0 tp.Hardness.numbers = 4 * 20);
    Helpers.qtest "witness schedules hit the target makespan exactly" seed_arb
      (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Hardness.yes_instance rng ~k:3 ~bound:16 in
        match
          Dsp_exact.Three_partition.solve ~numbers:tp.Hardness.numbers ~bound:16 ()
        with
        | None -> false
        | Some triples ->
            let sched = Hardness.schedule_of_partition tp ~triples in
            Result.is_ok (Pts.Schedule.validate sched)
            && Pts.Schedule.makespan sched = Hardness.target_makespan tp);
    Helpers.qtest "the DSP encoding is area-tight at height 4" seed_arb
      (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Hardness.yes_instance rng ~k:3 ~bound:12 in
        let dsp = Hardness.to_dsp tp in
        Instance.total_area dsp = 4 * dsp.Instance.width);
    Helpers.qtest ~count:20 "yes instances pack to exactly height 4" seed_arb
      (fun seed ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Hardness.yes_instance rng ~k:2 ~bound:12 in
        let dsp = Hardness.to_dsp tp in
        match
          Dsp_util.Budget.within ~nodes:2_000_000 (fun budget ->
              Dsp_exact.Dsp_bb.optimal_height ~budget dsp)
        with
        | Some h -> h = 4
        | None -> true);
  ]

let io_tests =
  [
    Helpers.qtest "instance round-trips through the text format"
      (Helpers.instance_arb ()) (fun inst ->
        match Io.instance_of_string (Io.instance_to_string inst) with
        | Ok inst' -> Instance.equal inst inst'
        | Error _ -> false);
    Helpers.qtest "pts round-trips through the text format" (Helpers.pts_arb ())
      (fun inst ->
        match Io.pts_of_string (Io.pts_to_string inst) with
        | Ok inst' ->
            inst'.Pts.Inst.machines = inst.Pts.Inst.machines
            && Array.for_all2
                 (fun (a : Pts.Job.t) (b : Pts.Job.t) -> a.p = b.p && a.q = b.q)
                 inst.Pts.Inst.jobs inst'.Pts.Inst.jobs
        | Error _ -> false);
    Helpers.qtest ~count:30 "instance round-trips through a file on disk"
      (Helpers.instance_arb ()) (fun inst ->
        let path = Filename.temp_file "dsp_io_test" ".dsp" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Io.write_file path (Io.instance_to_string inst);
            match Io.instance_of_string (Io.read_file path) with
            | Ok inst' -> Instance.equal inst inst'
            | Error _ -> false));
    Alcotest.test_case "parser rejects malformed input" `Quick (fun () ->
        List.iter
          (fun text ->
            Alcotest.check Alcotest.bool text true
              (Result.is_error (Io.instance_of_string text)))
          [ ""; "dsp"; "dsp x"; "dsp 5\n1"; "dsp 5\n1 2 3"; "pts 5\n1 2" ]);
    Alcotest.test_case "parse errors carry kind and line number" `Quick
      (fun () ->
        let check text line kind =
          match Io.instance_of_string text with
          | Ok _ -> Alcotest.failf "accepted %S" text
          | Error e ->
              Alcotest.(check int)
                (Printf.sprintf "line of %S" text)
                line e.Io.line;
              Alcotest.(check bool)
                (Printf.sprintf "kind of %S (got %s)" text
                   (Io.error_to_string e))
                true (kind e.Io.kind)
        in
        check "" 0 (( = ) Io.Empty_input);
        check "dsp" 1 (function Io.Bad_header _ -> true | _ -> false);
        check "dsp x" 1 (function Io.Bad_number "x" -> true | _ -> false);
        check "dsp 0\n1 1" 1 (( = ) (Io.Bad_cap 0));
        check "dsp -5\n1 1" 1 (( = ) (Io.Bad_cap (-5)));
        check "# c\ndsp 5\n1 1\n1" 4 (function
          | Io.Truncated_line _ -> true
          | _ -> false);
        check "dsp 5\n1 1\n2 2 2" 3 (function
          | Io.Truncated_line _ -> true
          | _ -> false);
        check "dsp 5\n1 two" 2 (( = ) (Io.Bad_number "two"));
        check "dsp 5\n-1 2" 2 (( = ) (Io.Bad_dimension (-1, 2)));
        check "dsp 5\n2 0" 2 (( = ) (Io.Bad_dimension (2, 0)));
        check "dsp 5\n\n3 1\n9 2" 4 (( = ) (Io.Too_wide (9, 5)));
        (match Io.pts_of_string "pts 3\n2 5" with
        | Error { Io.line = 0; kind = Io.Invalid _ } -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Io.error_to_string e)
        | Ok _ -> Alcotest.fail "accepted job needing 5 of 3 machines"));
    Helpers.qtest ~count:200 "fuzz: mutated instances never crash the parser"
      QCheck.(triple (Helpers.instance_arb ()) small_nat (int_range 0 255))
      (fun (inst, pos, byte) ->
        let text = Io.instance_to_string inst in
        let mutated =
          if String.length text = 0 then text
          else
            String.mapi
              (fun i c ->
                if i = pos mod String.length text then Char.chr byte else c)
              text
        in
        (* Any outcome is fine except an escaped exception: either a
           typed error or a valid instance the mutation still spells. *)
        match Io.instance_of_string mutated with
        | Ok inst' ->
            Array.for_all
              (fun (it : Item.t) ->
                it.w >= 1 && it.h >= 1 && it.w <= inst'.Instance.width)
              inst'.Instance.items
        | Error e ->
            String.length (Io.error_to_string e) > 0
        | exception e ->
            QCheck.Test.fail_reportf "parser raised %s on %S"
              (Printexc.to_string e) mutated);
    Alcotest.test_case "parser skips comments and blanks" `Quick (fun () ->
        let text = "# a comment\ndsp 6\n\n2 3\n# another\n1 1\n" in
        match Io.instance_of_string text with
        | Ok inst -> Alcotest.check Alcotest.int "items" 2 (Instance.n_items inst)
        | Error e -> Alcotest.fail (Io.error_to_string e));
  ]

let gap_family_tests =
  [
    Alcotest.test_case "gap family scales" `Quick (fun () ->
        let inst = Dsp_instance.Gap_family.instance ~scale:3 in
        Alcotest.check Alcotest.int "heights scaled" 12
          (Instance.max_height inst);
        Alcotest.check Alcotest.int "expected dsp" 18
          (Dsp_instance.Gap_family.expected_dsp_opt ~scale:3));
  ]

let suite = generator_tests @ hardness_tests @ io_tests @ gap_family_tests
