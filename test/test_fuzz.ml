(* The differential fuzzer as a library: deterministic generation,
   well-typedness of every generated module, path agreement on random
   cases, shrinker sanity, and replay of the checked-in corpus of
   minimized past failures (each must stay green now that its bug is
   fixed). *)

open Ps_fuzz

let t name f = Alcotest.test_case name `Quick f

let interp_paths =
  [ Diff.Seq; Diff.Nowin; Diff.Passes; Diff.Steal; Diff.Collapse ]

let all_interp_paths = interp_paths @ [ Diff.Hyper; Diff.Hyper_par ]

let gen_tests =
  [ t "generation is deterministic per (seed, case)" (fun () ->
        let s1 = Gen.generate (Gen.Rng.split 5 3) in
        let s2 = Gen.generate (Gen.Rng.split 5 3) in
        Alcotest.(check string) "same source" (Gen.render s1) (Gen.render s2);
        Alcotest.(check string) "same label" (Gen.describe s1) (Gen.describe s2));
    t "independent cases differ" (fun () ->
        let render i = Gen.render (Gen.generate (Gen.Rng.split 5 i)) in
        Alcotest.(check bool) "some variation" true
          (List.exists (fun i -> render i <> render 0) [ 1; 2; 3; 4; 5 ]));
    t "forty generated modules all load and schedule" (fun () ->
        for i = 0 to 39 do
          let spec = Gen.generate (Gen.Rng.split 11 i) in
          let src = Gen.render spec in
          match Psc.load_string src with
          | exception Psc.Error m ->
            Alcotest.failf "case %d (%s) does not load: %s\n%s" i
              (Gen.describe spec) m src
          | tp -> ignore (Psc.schedule (Psc.default_module tp))
        done);
    t "shrink candidates stay well-typed" (fun () ->
        for i = 0 to 19 do
          let spec = Gen.generate (Gen.Rng.split 13 i) in
          List.iter
            (fun s ->
              match Psc.load_string (Gen.render s) with
              | exception Psc.Error m ->
                Alcotest.failf "case %d shrink of (%s) broke typing: %s\n%s" i
                  (Gen.describe spec) m (Gen.render s)
              | _ -> ())
            (Gen.shrink spec)
        done);
    t "the stride shape reaches both new schedule classes" (fun () ->
        (* The generator must actually produce group-partitioned and
           inspected schedules, or the group/inspector paths differential
           nothing. *)
        let grouped = ref false and inspected = ref false in
        for i = 0 to 79 do
          let spec = Gen.generate (Gen.Rng.split 31 i) in
          match Psc.load_string (Gen.render spec) with
          | exception Psc.Error _ -> ()
          | tp ->
            let sc = Psc.schedule (Psc.default_module tp) in
            let fc = Psc.flowchart_string ~tree:false sc in
            if Util.contains fc "DOGROUP" then grouped := true;
            if Util.contains fc "DOINSPECT" then inspected := true
        done;
        Alcotest.(check bool) "some DOGROUP schedule" true !grouped;
        Alcotest.(check bool) "some DOINSPECT schedule" true !inspected);
    t "minimize converges to the smallest failing size" (fun () ->
        (* A synthetic predicate: "fails" whenever N >= 5.  The greedy
           minimizer must walk N down to exactly 5. *)
        let rec find i =
          let s = Gen.generate (Gen.Rng.split 17 i) in
          if s.Gen.sp_n >= 6 then s else find (i + 1)
        in
        let spec = find 0 in
        let min = Shrink.minimize ~fails:(fun s -> s.Gen.sp_n >= 5) spec in
        Alcotest.(check int) "n" 5 min.Gen.sp_n) ]

let diff_tests =
  [ t "fifteen random cases agree across the interpreter paths" (fun () ->
        for i = 0 to 14 do
          let spec = Gen.generate (Gen.Rng.split 23 i) in
          let r = Diff.check_spec ~pool_size:3 ~paths:interp_paths spec in
          match r.Diff.cr_verdict with
          | None -> ()
          | Some v ->
            Alcotest.failf "case %d (%s): %s" i (Gen.describe spec) v
        done);
    t "eight cases agree including the hyperplane paths" (fun () ->
        for i = 0 to 7 do
          let spec = Gen.generate (Gen.Rng.split 29 i) in
          let r = Diff.check_spec ~pool_size:3 ~paths:all_interp_paths spec in
          match r.Diff.cr_verdict with
          | None -> ()
          | Some v ->
            Alcotest.failf "case %d (%s): %s" i (Gen.describe spec) v
        done);
    t "triangular wavefront bands agree with the sequential nest" (fun () ->
        (* Hyper_par runs the transformed module through the pool with
           DOALL collapsing, exercising the flattened decode of
           triangular bands — including the degenerate N=1 and N=2
           shapes whose interior rows are empty. *)
        List.iter
          (fun n ->
            let r =
              Diff.check_source ~pool_size:3
                ~paths:[ Diff.Seq; Diff.Hyper; Diff.Hyper_par ]
                ~scalars:[ ("N", n) ]
                Ps_models.Models.lcs
            in
            match r.Diff.cr_verdict with
            | None -> ()
            | Some v -> Alcotest.failf "lcs N=%d: %s" n v)
          [ 1; 2; 6 ]);
    t "a campaign reports its shape" (fun () ->
        let r =
          Fuzz.campaign
            { Fuzz.fz_seed = 7;
              fz_count = 5;
              fz_paths = interp_paths;
              fz_pool = 3;
              fz_out_corpus = None;
              fz_log = ignore }
        in
        Alcotest.(check int) "count" 5 r.Fuzz.r_count;
        Alcotest.(check int) "agreed" 5 r.Fuzz.r_agreed;
        Alcotest.(check (list reject)) "failures" [] r.Fuzz.r_failures) ]

(* The emitted C is one of only two oracles ([Eval] is the other) that do
   not share the interpreter's compiled closures, so it is compared bit
   for bit. *)
let c_oracle_tests =
  [ t "a checksum one ulp off the interpreter's is a mismatch" (fun () ->
        let v =
          Psc.Exec.array_real ~dims:[ (0, 4) ] (fun ix -> 0.1 *. float_of_int ix.(0))
        in
        let out = [ ("X", v) ] and sum = Psc.checksum v in
        Alcotest.(check (option string))
          "same bits agree" None
          (Diff.compare_checksums out [ ("X", sum) ]);
        Alcotest.(check bool)
          "Float.succ is reported" true
          (Option.is_some (Diff.compare_checksums out [ ("X", Float.succ sum) ])));
    t "the paper kernels agree with their emitted C bit for bit" (fun () ->
        if not (Lazy.force Diff.have_cc) then Alcotest.skip ();
        List.iter
          (fun (name, src, scalars) ->
            let r =
              Diff.check_source ~pool_size:2 ~paths:[ Diff.Seq; Diff.Cc ] ~scalars src
            in
            (match List.assoc_opt Diff.Cc r.Diff.cr_outcomes with
             | Some (Diff.Checksums _) -> ()
             | _ -> Alcotest.failf "%s: the C path produced no checksums" name);
            match r.Diff.cr_verdict with
            | None -> ()
            | Some v -> Alcotest.failf "%s: %s" name v)
          [ ("jacobi", Ps_models.Models.jacobi, [ ("M", 12); ("maxK", 7) ]);
            ("seidel", Ps_models.Models.seidel, [ ("M", 12); ("maxK", 7) ]);
            ("lcs", Ps_models.Models.lcs, [ ("N", 20) ]);
            ("heat1d", Ps_models.Models.heat1d, [ ("N", 30); ("steps", 9) ]) ]) ]

let corpus_tests =
  [ t "scalar directives parse" (fun () ->
        Alcotest.(check (list (pair string int)))
          "pairs"
          [ ("N", 4); ("T", 3) ]
          (Fuzz.parse_scalars "(* hdr *)\n(*! fuzz scalars: N=4 T=3 *)\nx"));
    t "every corpus entry replays green" (fun () ->
        let dir =
          match
            List.find_opt
              (fun d -> Sys.file_exists d && Sys.is_directory d)
              [ "corpus"; "test/corpus" ]
          with
          | Some d -> d
          | None -> Alcotest.fail "corpus directory not found"
        in
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".ps")
          |> List.sort compare
        in
        Alcotest.(check bool) "corpus is not empty" true (files <> []);
        List.iter
          (fun f ->
            let path = Filename.concat dir f in
            match
              Fuzz.replay_source ~pool_size:3 ~paths:(all_interp_paths @ [ Diff.Cc ])
                (Util.read_file path)
            with
            | Ok () -> ()
            | Error v -> Alcotest.failf "%s: %s" f v)
          files) ]

let () =
  Alcotest.run "fuzz"
    [ ("gen", gen_tests); ("diff", diff_tests); ("oracle", c_oracle_tests);
      ("corpus", corpus_tests) ]
