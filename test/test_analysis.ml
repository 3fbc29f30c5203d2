(* Work/span analysis tests: exact counts for the paper's schedules and
   the parallelism ordering the paper's transformation establishes. *)

let t name f = Alcotest.test_case name `Quick f

let cost ?sink ?name src env =
  let tp = Util.load src in
  Psc.work_span ?name ?sink tp ~env

let m = 10 and maxk = 6

let env = [ ("M", m); ("maxK", maxk) ]

let grid = (m + 2) * (m + 2)

let exact_tests =
  [ t "jacobi work counts every equation instance" (fun () ->
        let c = cost Ps_models.Models.jacobi env in
        (* eq.1: grid; eq.3: (maxk-1)*grid; eq.2: grid *)
        Util.checkf "work" (float_of_int (((maxk - 1) * grid) + (2 * grid))) c.Psc.Analysis.work);
    t "jacobi span is the DO trip count plus constants" (fun () ->
        let c = cost Ps_models.Models.jacobi env in
        (* eq.1 contributes 1, the DO K loop maxk-1, eq.2 contributes 1 *)
        Util.checkf "span" (float_of_int (1 + (maxk - 1) + 1)) c.Psc.Analysis.span);
    t "seidel has span equal to its work inside the nest" (fun () ->
        let c = cost Ps_models.Models.seidel env in
        Util.checkf "span" (float_of_int (2 + ((maxk - 1) * grid))) c.Psc.Analysis.span);
    t "seidel parallelism is essentially 1" (fun () ->
        let c = cost Ps_models.Models.seidel env in
        Alcotest.(check bool) "about 1" true (Psc.Analysis.parallelism c < 1.5));
    t "jacobi parallelism is about the grid size" (fun () ->
        let c = cost Ps_models.Models.jacobi env in
        let p = Psc.Analysis.parallelism c in
        Alcotest.(check bool) "near grid" true
          (p > float_of_int grid /. 2. && p <= float_of_int grid *. 2.));
    t "the size sweeps EXPERIMENTS cites" (fun () ->
        (* F6, F7 and H3 (work and span), V1 (words of the recurrence
           array: Jacobi's window-2 and full allocations, the transformed
           module's window-3 and full box) and A1 (equation evaluations
           of the box and trimmed wavefronts). *)
        let jacobi = Util.load Ps_models.Models.jacobi in
        let seidel = Util.load Ps_models.Models.seidel in
        let hyper, tr = Psc.hyperplane ~target:"A" seidel in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let a' = tr.Psc.Transform.tr_new_name in
        List.iter
          (fun (m, maxk, (jw, js), (sw, ss), (hw, hs), (j2, jf, h3, hf), box) ->
            let at = Printf.sprintf "M=%d maxK=%d: %s" m maxk in
            let env = [ ("M", m); ("maxK", maxk) ] in
            let ws label (c : Psc.Analysis.cost) (w, s) =
              Util.checkf ~eps:0.0 (at (label ^ " work")) (float_of_int w) c.Psc.Analysis.work;
              Util.checkf ~eps:0.0 (at (label ^ " span")) (float_of_int s) c.Psc.Analysis.span
            in
            ws "jacobi" (Psc.work_span jacobi ~env) (jw, js);
            ws "seidel" (Psc.work_span seidel ~env) (sw, ss);
            ws "hyper" (Psc.work_span ~name ~sink:true hyper ~env) (hw, hs);
            let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
            let words ?use_windows ?name ?sink tp data =
              List.assoc data (Psc.run ?use_windows ?name ?sink tp ~inputs).Psc.Exec.allocated
            in
            Util.check_int (at "jacobi window-2") j2 (words jacobi "A");
            Util.check_int (at "jacobi full") jf (words ~use_windows:false jacobi "A");
            Util.check_int (at "hyper window-3") h3 (words ~name ~sink:true hyper a');
            Util.check_int (at "hyper full box") hf (words ~use_windows:false ~name ~sink:true hyper a');
            let evals ?name ?sink ?trim tp =
              Option.get (Psc.run ~stats:true ?name ?sink ?trim tp ~inputs).Psc.Exec.evaluations
            in
            let e_seidel = evals seidel in
            Util.check_int (at "seidel evaluations") sw e_seidel;
            Util.check_int (at "hyper box evaluations") box (evals ~name ~sink:true hyper);
            Util.check_int (at "trimmed equals seidel") e_seidel (evals ~name ~sink:true ~trim:true hyper))
          [ (16, 10, (3564, 11), (3564, 2918), (10494, 106), (648, 3240, 540, 9540), 9864);
            (32, 20, (24276, 21), (24276, 21966), (74970, 210), (2312, 23120, 2040, 71400), 72556);
            (64, 40, (178596, 41), (178596, 169886), (565554, 418), (8712, 174240, 7920, 551760),
             556116);
            (96, 48, (470596, 49), (470596, 451390), (1387778, 578),
             (19208, 460992, 14112, 1359456), 1369060) ]) ]

let transform_tests =
  [ t "hyperplane transformation multiplies parallelism" (fun () ->
        let tp = Util.load Ps_models.Models.seidel in
        let before = Psc.work_span tp ~env in
        let tp', tr = Psc.hyperplane ~target:"A" tp in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let after = Psc.work_span ~name ~sink:true tp' ~env in
        let p_before = Psc.Analysis.parallelism before in
        let p_after = Psc.Analysis.parallelism after in
        Alcotest.(check bool) "at least 10x" true (p_after > 10. *. p_before));
    t "transformed work grows only by a constant factor" (fun () ->
        let tp = Util.load Ps_models.Models.seidel in
        let before = Psc.work_span tp ~env in
        let tp', tr = Psc.hyperplane ~target:"A" tp in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let after = Psc.work_span ~name ~sink:true tp' ~env in
        Alcotest.(check bool) "bounded blowup" true
          (after.Psc.Analysis.work < 8. *. before.Psc.Analysis.work)) ]

let misc_tests =
  [ t "prefix sum has parallelism about 1" (fun () ->
        let c = cost Ps_models.Models.prefix_sum [ ("N", 100) ] in
        Alcotest.(check bool) "sequential" true (Psc.Analysis.parallelism c < 2.5));
    t "matmul parallelism is about N^2" (fun () ->
        let n = 12 in
        let c = cost Ps_models.Models.matmul [ ("N", n) ] in
        let p = Psc.Analysis.parallelism c in
        Alcotest.(check bool) "near N^2" true
          (p > float_of_int (n * n) /. 2. && p <= float_of_int (n * n) *. 2.));
    t "work scales linearly with maxK" (fun () ->
        let c1 = cost Ps_models.Models.jacobi [ ("M", m); ("maxK", 10) ] in
        let c2 = cost Ps_models.Models.jacobi [ ("M", m); ("maxK", 19) ] in
        Alcotest.(check bool) "doubles" true
          (c2.Psc.Analysis.work /. c1.Psc.Analysis.work > 1.8));
    t "missing environment entry is diagnosed" (fun () ->
        Util.expect_error (fun () -> cost Ps_models.Models.jacobi [ ("M", m) ]));
    t "empty ranges contribute zero work" (fun () ->
        let c = cost Ps_models.Models.jacobi [ ("M", m); ("maxK", 1) ] in
        (* only eq.1 and eq.2 remain *)
        Util.checkf "work" (float_of_int (2 * grid)) c.Psc.Analysis.work) ]

let () =
  Alcotest.run "analysis"
    [ ("exact counts", exact_tests);
      ("transformation", transform_tests);
      ("misc", misc_tests) ]
