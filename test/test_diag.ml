(* The unified diagnostics engine, the lints, and — centrally — the
   schedule legality verifier: it must accept every flowchart the real
   pipeline produces for every built-in model under every pass
   combination, and reject each single corruption (a DO flipped to
   DOALL, a shrunk storage window, a reordered body, a broken
   hyperplane coefficient). *)

module Diag = Ps_diag.Diag
module Lx = Ps_sem.Linexpr
module Sa = Ps_sem.Sa_check
module M = Ps_models.Models

let t name f = Alcotest.test_case name `Quick f

let has code diags = List.exists (fun d -> d.Diag.d_code = code) diags

let codes diags =
  String.concat ", " (List.map (fun d -> Diag.code_id d.Diag.d_code) diags)

(* ------------------------------------------------------------------ *)
(* Diag engine basics. *)

let dummy = Ps_lang.Loc.dummy

let engine_tests =
  [ t "codes are stable identifiers" (fun () ->
        Alcotest.(check string) "E010" "E010" (Diag.code_id Diag.Doall_carried);
        Alcotest.(check string) "E017" "E017" (Diag.code_id Diag.Window_underflow);
        Alcotest.(check string) "W112" "W112" (Diag.code_id Diag.No_virtualization));
    t "severity follows the code letter" (fun () ->
        Alcotest.(check bool) "E is error" true
          (Diag.code_severity Diag.Out_of_bounds = Diag.Error);
        Alcotest.(check bool) "W is warning" true
          (Diag.code_severity Diag.Unused_data = Diag.Warning));
    t "diag formats its message" (fun () ->
        let d = Diag.diag Diag.Order_violation dummy "eq.%d before eq.%d" 2 1 in
        Alcotest.(check string) "msg" "eq.2 before eq.1" d.Diag.d_msg);
    t "sort puts errors first" (fun () ->
        let w = Diag.diag Diag.Unused_data dummy "w" in
        let e = Diag.diag Diag.Doall_carried dummy "e" in
        match Diag.sort [ w; e ] with
        | [ first; _ ] ->
          Alcotest.(check bool) "error leads" true (Diag.is_error first)
        | _ -> Alcotest.fail "two diagnostics expected");
    t "json escapes quotes and backslashes" (fun () ->
        let d = Diag.diag Diag.Unused_data dummy {|a "b" \c|} in
        let j = Diag.to_json d in
        Alcotest.(check bool) "escaped quote" true
          (Util.contains j {|a \"b\" \\c|}));
    t "json render of an empty list is []" (fun () ->
        Alcotest.(check string) "[]" "[]" (Diag.render Diag.Json []));
    t "text render of an empty list is empty" (fun () ->
        Alcotest.(check string) "empty" "" (Diag.render Diag.Text []));
    t "exit_code honours --werror" (fun () ->
        let w = [ Diag.diag Diag.Unused_data dummy "w" ] in
        let e = [ Diag.diag Diag.Doall_carried dummy "e" ] in
        Alcotest.(check int) "clean" 0 (Diag.exit_code []);
        Alcotest.(check int) "warnings pass" 0 (Diag.exit_code w);
        Alcotest.(check int) "werror fails warnings" 1
          (Diag.exit_code ~werror:true w);
        Alcotest.(check int) "errors fail" 1 (Diag.exit_code e)) ]

(* ------------------------------------------------------------------ *)
(* Sa_check.provably_disjoint edge cases. *)

let v = Lx.of_var
let n k l = Lx.add_const k l

let disjoint_tests =
  [ t "separated constant ranges" (fun () ->
        Alcotest.(check bool) "disjoint" true
          (Sa.provably_disjoint
             (Sa.Range (Lx.of_int 1, Lx.of_int 3))
             (Sa.Range (Lx.of_int 5, Lx.of_int 9))));
    t "touching ranges are not disjoint" (fun () ->
        (* [1, N] and [N, 2N] share the plane N. *)
        Alcotest.(check bool) "overlap at N" false
          (Sa.provably_disjoint
             (Sa.Range (Lx.of_int 1, v "N"))
             (Sa.Range (v "N", n 0 (Lx.scale 2 (v "N"))))));
    t "adjacent symbolic ranges are disjoint" (fun () ->
        (* [1, N] and [N+1, 2N]: the gap is a provable constant 1. *)
        Alcotest.(check bool) "disjoint" true
          (Sa.provably_disjoint
             (Sa.Range (Lx.of_int 1, v "N"))
             (Sa.Range (n 1 (v "N"), Lx.scale 2 (v "N")))));
    t "boundary point may overlap its range" (fun () ->
        Alcotest.(check bool) "N in [1, N]" false
          (Sa.provably_disjoint (Sa.Point (v "N"))
             (Sa.Range (Lx.of_int 1, v "N"))));
    t "point past a symbolic range is disjoint" (fun () ->
        Alcotest.(check bool) "N+1 after [1, N]" true
          (Sa.provably_disjoint
             (Sa.Point (n 1 (v "N")))
             (Sa.Range (Lx.of_int 1, v "N"))));
    t "incomparable symbolic points are not disjoint" (fun () ->
        Alcotest.(check bool) "M vs N undecidable" false
          (Sa.provably_disjoint (Sa.Point (v "M")) (Sa.Point (v "N"))));
    t "Unknown is never disjoint" (fun () ->
        Alcotest.(check bool) "unknown vs point" false
          (Sa.provably_disjoint Sa.Unknown (Sa.Point (Lx.of_int 1)));
        Alcotest.(check bool) "unknown vs unknown" false
          (Sa.provably_disjoint Sa.Unknown Sa.Unknown)) ]

(* ------------------------------------------------------------------ *)
(* The verifier accepts the real pipeline, on every model and pass. *)

let all_models =
  [ ("jacobi", M.jacobi); ("seidel", M.seidel); ("heat1d", M.heat1d);
    ("matmul", M.matmul); ("binomial", M.binomial);
    ("prefix_sum", M.prefix_sum); ("two_module", M.two_module);
    ("classify", M.classify); ("skewed", M.skewed);
    ("particles", M.particles); ("lcs", M.lcs) ]

let pass_combos =
  [ ("plain", false, false, false, false); ("sink", true, false, false, false);
    ("fuse", false, true, false, false); ("trim", false, false, true, false);
    ("collapse", false, false, false, true); ("all", true, true, true, false);
    ("all+collapse", true, true, true, true) ]

(* Schedule every module of [src] under the given passes; modules the
   basic algorithm cannot order are skipped (that is what the
   hyperplane transformation is for). *)
let scheduled ?(sink = false) ?(fuse = false) ?(trim = false)
    ?(collapse = false) src =
  let t = Psc.load_string src in
  List.filter_map
    (fun name ->
      let em = Psc.find_module t name in
      try Some (Psc.schedule ~sink ~fuse ~trim ~collapse em)
      with Psc.Error _ -> None)
    (Psc.modules t)

let accept_tests =
  [ t "every model x every pass combination verifies" (fun () ->
        List.iter
          (fun (mname, src) ->
            List.iter
              (fun (pname, sink, fuse, trim, collapse) ->
                List.iter
                  (fun sc ->
                    let diags = Psc.verify sc in
                    if Diag.errors diags <> [] then
                      Alcotest.failf "%s [%s]: %s" mname pname (codes diags))
                  (scheduled ~sink ~fuse ~trim ~collapse src))
              pass_combos)
          all_models);
    t "the transformed relaxation verifies end to end" (fun () ->
        let t0 = Psc.load_string M.seidel in
        let t1, tr = Psc.hyperplane ~target:"A" t0 in
        Alcotest.(check (list Alcotest.reject)) "derivation clean" []
          (Psc.Verify.transform tr);
        let em =
          Psc.find_module t1 tr.Psc.Transform.tr_module.Psc.Ast.m_name
        in
        let sc = Psc.schedule ~sink:true em in
        Alcotest.(check (list Alcotest.reject)) "schedule clean" []
          (Diag.errors (Psc.verify sc))) ]

(* ------------------------------------------------------------------ *)
(* ... and rejects every corruption. *)

let jacobi_schedule () =
  let t = Psc.load_string M.jacobi in
  Psc.schedule (Psc.default_module t)

let verify_fc sc fc windows =
  Psc.Verify.flowchart ~windows sc.Psc.sc_result.Psc.Schedule.r_graph fc

let mutation_tests =
  [ t "flipping the DO loop to DOALL is rejected (E010)" (fun () ->
        let sc = jacobi_schedule () in
        let fc =
          Psc.Flowchart.map_loops
            (fun l ->
              if l.Psc.Flowchart.lp_var = "K" then
                { l with Psc.Flowchart.lp_kind = Psc.Flowchart.Parallel }
              else l)
            sc.Psc.sc_flowchart
        in
        let diags = verify_fc sc fc sc.Psc.sc_windows in
        Alcotest.(check bool) "E010 reported" true
          (has Diag.Doall_carried diags));
    t "shrinking the storage window is rejected (E017)" (fun () ->
        let sc = jacobi_schedule () in
        let windows =
          List.map
            (fun w -> { w with Psc.Schedule.w_size = w.Psc.Schedule.w_size - 1 })
            sc.Psc.sc_windows
        in
        Alcotest.(check bool) "a window to shrink" true (windows <> []);
        let diags = verify_fc sc sc.Psc.sc_flowchart windows in
        Alcotest.(check bool) "E017 reported" true
          (has Diag.Window_underflow diags));
    t "reordering straight-line code is rejected (E013)" (fun () ->
        let t =
          Psc.load_string
            "T: module (x: real): [y: real]; var z: real; define z = x; y = \
             z; end T;"
        in
        let sc = Psc.schedule (Psc.default_module t) in
        Alcotest.(check (list Alcotest.reject)) "forward order clean" []
          (verify_fc sc sc.Psc.sc_flowchart []);
        let diags = verify_fc sc (List.rev sc.Psc.sc_flowchart) [] in
        Alcotest.(check bool) "E013 reported" true
          (has Diag.Order_violation diags));
    t "dropping an equation is rejected (E014)" (fun () ->
        let sc = jacobi_schedule () in
        let drop body =
          List.filter
            (fun d -> match d with Psc.Flowchart.D_eq _ -> false | _ -> true)
            body
        in
        let fc =
          drop
            (Psc.Flowchart.map_loops
               (fun l -> { l with Psc.Flowchart.lp_body = drop l.Psc.Flowchart.lp_body })
               sc.Psc.sc_flowchart)
        in
        let diags = verify_fc sc fc sc.Psc.sc_windows in
        Alcotest.(check bool) "E014 reported" true
          (has Diag.Missing_equation diags));
    t "duplicating the flowchart is rejected (E015)" (fun () ->
        let sc = jacobi_schedule () in
        let fc = sc.Psc.sc_flowchart @ sc.Psc.sc_flowchart in
        let diags = verify_fc sc fc sc.Psc.sc_windows in
        Alcotest.(check bool) "E015 reported" true
          (has Diag.Duplicate_equation diags));
    t "a clobbered window on the lcs table is rejected (E022)" (fun () ->
        (* The fuzzer-found bug, as translation validation: L's base
           column L[I, 0] is written by a DOALL in another component, so
           a window on dimension 0 of L would be partially overwritten
           before the wavefront reads it back.  The scheduler refuses
           the window itself; the independent checker must also reject
           any schedule that claims it. *)
        let t0 = Psc.load_string M.lcs in
        let sc = Psc.schedule (Psc.default_module t0) in
        Alcotest.(check bool) "scheduler claims no window" true
          (sc.Psc.sc_windows = []);
        let bogus = [ { Psc.Schedule.w_data = "L"; w_dim = 0; w_size = 2 } ] in
        let diags = verify_fc sc sc.Psc.sc_flowchart bogus in
        Alcotest.(check bool) "E022 reported" true
          (has Diag.Window_clobber diags));
    t "a broken hyperplane coefficient is rejected (E018)" (fun () ->
        let t0 = Psc.load_string M.seidel in
        let _, tr = Psc.hyperplane ~target:"A" t0 in
        let bad = Array.copy tr.Psc.Transform.tr_time in
        bad.(0) <- 0;
        let diags =
          Psc.Verify.transform { tr with Psc.Transform.tr_time = bad }
        in
        Alcotest.(check bool) "E018 reported" true
          (has Diag.Hyperplane_violation diags));
    t "a window marched by a DOALL is rejected (E022)" (fun () ->
        (* Every concurrent I of DOALL I (DO J) would share one plane. *)
        let sc =
          Psc.schedule (Psc.default_module (Psc.load_string Util.doall_window))
        in
        let shared = { Psc.Schedule.w_data = "A"; w_dim = 0; w_size = 1 } in
        let diags = verify_fc sc sc.Psc.sc_flowchart (shared :: sc.Psc.sc_windows) in
        Alcotest.(check bool) "E022 reported" true
          (has Diag.Window_clobber diags)) ]

(* ------------------------------------------------------------------ *)
(* Lints. *)

let lint src = Psc.lint (Psc.load_string_lenient src)

let lint_tests =
  [ t "every built-in model lints without errors" (fun () ->
        List.iter
          (fun (mname, src) ->
            let es = Diag.errors (lint src) in
            if es <> [] then Alcotest.failf "%s: %s" mname (codes es))
          all_models);
    t "an unread parameter is W110" (fun () ->
        let ds =
          lint
            "T: module (x: real; u: real): [y: real]; define y = x; end T;"
        in
        Alcotest.(check bool) "W110" true (has Diag.Unused_data ds));
    t "an equation feeding only unread locals is W111" (fun () ->
        let ds =
          lint
            "T: module (x: real): [y: real]; var z: real; define z = x + \
             1.0; y = x; end T;"
        in
        Alcotest.(check bool) "W110 on z" true (has Diag.Unused_data ds);
        Alcotest.(check bool) "W111 on its equation" true
          (has Diag.Dead_equation ds));
    t "a subscript past the declared bound is E020" (fun () ->
        let ds =
          lint
            "T: module (x: real; N: int): [y: real]; type I = 1 .. N; var A: \
             array [1 .. N] of real; define A[I] = x; y = A[N + 1]; end T;"
        in
        Alcotest.(check bool) "E020" true (has Diag.Out_of_bounds ds));
    t "a guard refines the range (no false E020)" (fun () ->
        (* A[I - 1] is read only when I <> 1, so I - 1 >= 1 holds. *)
        let ds =
          lint
            "T: module (x: real; N: int): [y: real]; type I = 1 .. N; var A: \
             array [1 .. N] of real; define A[I] = if I = 1 then x else A[I - \
             1] + x; y = A[N]; end T;"
        in
        Alcotest.(check bool) "no E020" false (has Diag.Out_of_bounds ds));
    t "without the guard the same read is E020" (fun () ->
        let ds =
          lint
            "T: module (x: real; N: int): [y: real]; type I = 1 .. N; var A: \
             array [1 .. N] of real; define A[I] = A[I - 1] + x; y = A[N]; \
             end T;"
        in
        Alcotest.(check bool) "E020" true (has Diag.Out_of_bounds ds));
    t "an unschedulable module is W113, not a crash" (fun () ->
        let ds =
          lint
            "C: module (N: int): [y: real]; type I = 1 .. N; var A: array [0 \
             .. N + 1] of real; define A[I] = A[I - 1] + A[I + 1]; A[0] = \
             0.0; A[N + 1] = 0.0; y = A[1]; end C;"
        in
        Alcotest.(check bool) "W113" true (has Diag.Unschedulable ds));
    t "lcs reports the write-side window refusal (W112)" (fun () ->
        let ds = lint M.lcs in
        Alcotest.(check bool) "W112" true (has Diag.No_virtualization ds);
        Alcotest.(check bool) "write-side reason" true
          (List.exists
             (fun d ->
               Util.contains d.Diag.d_msg "written outside its component")
             ds));
    t "a tiny constant-trip DOALL is W120" (fun () ->
        let ds =
          lint
            "T: module (x: real): [y: real]; type I = 1 .. 10; var A: array \
             [1 .. 10] of real; define A[I] = x; y = A[10]; end T;"
        in
        Alcotest.(check bool) "W120" true (has Diag.Sequential_doall ds));
    t "a wide constant-trip DOALL is not W120" (fun () ->
        let ds =
          lint
            "T: module (x: real): [y: real]; type I = 1 .. 1000; var A: array \
             [1 .. 1000] of real; define A[I] = x; y = A[1000]; end T;"
        in
        Alcotest.(check bool) "no W120" false (has Diag.Sequential_doall ds));
    t "a symbolic-bound DOALL is not W120" (fun () ->
        let ds =
          lint
            "T: module (x: real; N: int): [y: real]; type I = 1 .. N; var A: \
             array [1 .. N] of real; define A[I] = x; y = A[N]; end T;"
        in
        Alcotest.(check bool) "no W120" false (has Diag.Sequential_doall ds));
    t "W120 flags fork candidates only, not a DOALL under a DOGROUP" (fun () ->
        (* DOALL Init (DOALL J); DOGROUP(2) Rest (DOALL J); DOALL Ipos
           (DOALL J): of the two constant-trip loops, only Init forks. *)
        let ds = lint (Util.read_file (Util.corpus "dogroup_band.ps")) in
        Alcotest.(check (list string))
          "flagged loops" [ "Init" ]
          (List.filter_map
             (fun d ->
               if d.Diag.d_code <> Diag.Sequential_doall then None
               else Some (Scanf.sscanf d.Diag.d_msg "DOALL %s " Fun.id))
             ds));
    t "W112 fires on exactly these dimensions, for these rules" (fun () ->
        let rules =
          [ ("at-most-one-window", "one window"); ("read outside", "read outside");
            ("written outside", "write outside"); ("forward reference", "read inside");
            ("not a window access", "read inside"); ("does not march", "write inside");
            ("DOGROUP", "grouped") ]
        in
        let w112 (name, src) =
          List.filter_map
            (fun d ->
              if d.Diag.d_code <> Diag.No_virtualization then None
              else
                let dim, data =
                  Scanf.sscanf d.Diag.d_msg "dimension %d of %s " (fun k a -> (k, a))
                in
                let rule =
                  List.find_map
                    (fun (phrase, rule) ->
                      if Util.contains d.Diag.d_msg phrase then Some rule else None)
                    rules
                in
                Some
                  (Printf.sprintf "%s %s %d: %s" name data dim
                     (Option.value rule ~default:d.Diag.d_msg)))
            (lint src)
        in
        let examples =
          List.map
            (fun f -> (f, Util.read_file (Util.example f)))
            [ "gauss_seidel.ps"; "lcs.ps"; "param_recurrence.ps"; "relaxation.ps";
              "strided_copy.ps" ]
        in
        let sources =
          all_models
          @ [ ("strided_copy", M.strided_copy); ("param_recurrence", M.param_recurrence) ]
          @ examples
        in
        Alcotest.(check int) "18 sources" 18 (List.length sources);
        Alcotest.(check (list string)) "source array dimension: rule"
          [ "gauss_seidel.ps A 2: one window"; "gauss_seidel.ps A 3: one window";
            "lcs L 1: write outside"; "lcs L 2: write outside";
            "lcs.ps L 1: write outside"; "lcs.ps L 2: write outside";
            "prefix_sum Acc 1: read outside"; "seidel A 2: one window";
            "seidel A 3: one window"; "strided_copy C 1: read outside";
            "strided_copy.ps C 1: read outside" ]
          (List.sort compare (List.concat_map w112 sources))) ]

let () =
  Alcotest.run "diag"
    [ ("engine", engine_tests);
      ("provably_disjoint", disjoint_tests);
      ("verifier accepts", accept_tests);
      ("verifier rejects", mutation_tests);
      ("lints", lint_tests) ]
