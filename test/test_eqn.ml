(* Equation-notation front end tests: the paper's Equation (1) and (2)
   in display-mathematics form, translated to PS and pushed through the
   whole pipeline. *)

let t name f = Alcotest.test_case name `Quick f

let equation_1 =
  {|
relaxation(InitialA[i,j], M, maxK) -> newA[i,j]
where i, j = 0 .. M+1; k = 2 .. maxK
# Equation (1): all values from the previous iteration
A_{1,i,j}  = InitialA_{i,j}
A_{k,i,j}  = if i = 0 or j = 0 or i = M+1 or j = M+1
             then A_{k-1,i,j}
             else (A_{k-1,i,j-1} + A_{k-1,i-1,j}
                 + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
newA_{i,j} = A_{maxK,i,j}
|}

let equation_2 =
  {|
relaxation2(InitialA[i,j], M, maxK) -> newA[i,j]
where i, j = 0 .. M+1; k = 2 .. maxK
# Equation (2): west/north from the current sweep
A_{1,i,j}  = InitialA_{i,j}
A_{k,i,j}  = if i = 0 or j = 0 or i = M+1 or j = M+1
             then A_{k-1,i,j}
             else (A_{k,i,j-1} + A_{k,i-1,j}
                 + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
newA_{i,j} = A_{maxK,i,j}
|}

(* Comments and spacing, as the notation and as PS writes them. *)
let commented = "f(x) -> y\n# nothing\ny = x + 1.0"

(* PS lexical rules inside the notation: '_' in names, PS literals and
   PS comments. *)
let ps_lexis =
  {|
lexis(x_1, N) -> y[i]
where i = 0 .. N
(* a PS comment *)
y_{i} = if true then x_1 * 2.5e-1 else 0.0
|}

(* Every valid document: the ones above and examples/ps/*.eqn. *)
let documents () =
  [ ("Equation (1)", equation_1);
    ("Equation (2)", equation_2);
    ("commented", commented);
    ("PS lexis", ps_lexis) ]
  @ Golden_cases.equations ()

let translate src = Psc.load_equations src

let error_of src =
  match translate src with
  | exception Psc.Error m -> m
  | _ -> Alcotest.failf "expected an error for %S" src

let translation_tests =
  [ t "Equation (1) translates to a valid module" (fun () ->
        let tp = translate equation_1 in
        Alcotest.(check int) "no warnings" 0 (List.length (Psc.warnings tp));
        let em = Psc.default_module tp in
        Alcotest.(check int) "3 equations" 3 (List.length em.Psc.Elab.em_eqs));
    t "the local array gets the hull extent 1 .. maxK" (fun () ->
        let tp = translate equation_1 in
        let em = Psc.default_module tp in
        let a = Psc.Elab.data_exn em "A" in
        match Psc.Stypes.dims a.Psc.Elab.d_ty with
        | sr :: _ ->
          Alcotest.(check string) "lo" "1"
            (Psc.Pretty.expr_to_string sr.Psc.Stypes.sr_lo);
          Alcotest.(check string) "hi" "maxK"
            (Psc.Pretty.expr_to_string sr.Psc.Stypes.sr_hi)
        | [] -> Alcotest.fail "A should be an array");
    t "scalars in bounds become int, arrays real" (fun () ->
        let tp = translate equation_1 in
        let em = Psc.default_module tp in
        let m = Psc.Elab.data_exn em "M" in
        Alcotest.(check bool) "M int" true
          (Psc.Stypes.equal_ty m.Psc.Elab.d_ty (Psc.Stypes.Scalar Psc.Stypes.Sint));
        let g = Psc.Elab.data_exn em "InitialA" in
        Alcotest.(check bool) "grid real elem" true
          (Psc.Stypes.equal_ty
             (Psc.Stypes.elem_ty g.Psc.Elab.d_ty)
             (Psc.Stypes.Scalar Psc.Stypes.Sreal)));
    t "comments and spacing are ignored" (fun () -> ignore (translate commented));
    t "missing range is diagnosed" (fun () ->
        Util.expect_error ~substring:"range" (fun () ->
            translate "f(A[i]) -> y\ny = A_{1}"));
    t "unorderable bounds are diagnosed" (fun () ->
        Util.expect_error ~substring:"order" (fun () ->
            translate
              "f(N, M) -> y\nwhere i = 1 .. N; j = 1 .. M\nB_{i} = 1.0\nB_{j} = 2.0\ny = B_{1}"));
    t "syntax errors carry a location" (fun () ->
        match translate "f(x -> y\ny = x" with
        | exception Psc.Error m ->
          Alcotest.(check bool) "notation error" true
            (Util.contains m "equation notation")
        | _ -> Alcotest.fail "expected an error");
    t "errors carry the notation's line and column" (fun () ->
        List.iter
          (fun (src, want) -> Alcotest.(check string) src want (error_of src))
          [ (* an expression's error *)
            ( "f(x) -> y\ny = z + 1.0",
              "semantic error: unknown identifier z (line 2, characters 5-6)" );
            (* names PS rejects *)
            ( "f(x') -> y\ny = x'",
              "equation notation: unexpected character '\\'' (line 1, characters 4-4)" );
            ( "f(x) -> y\nend = x\ny = end",
              "equation notation: expected an identifier but found 'end' (line 2, \
               characters 1-4)" );
            (* declarations *)
            ( "f(A[i]) -> y\ny = A_{1}",
              "equation notation: index i has no range in the where clause (line 1, \
               characters 5-6)" );
            ( "f(x, x) -> y\ny = x",
              "semantic error: duplicate declaration of x (line 1, characters 3-4)" ) ]) ]

let pipeline_tests =
  [ t "Equation (1) schedules to Fig. 6" (fun () ->
        let tp = translate equation_1 in
        let em = Psc.default_module tp in
        let sc = Psc.schedule em in
        Alcotest.(check string) "schedule"
          "DOALL i (DOALL j (eq.1)); DO k (DOALL i (DOALL j (eq.2))); DOALL i (DOALL j (eq.3))"
          (Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart);
        Alcotest.(check bool) "window 2" true
          (List.exists
             (fun (w : Psc.Schedule.window) -> w.Psc.Schedule.w_size = 2)
             sc.Psc.sc_windows));
    t "Equation (2) schedules to Fig. 7 and transforms" (fun () ->
        let tp = translate equation_2 in
        let em = Psc.default_module tp in
        let sc = Psc.schedule em in
        let s = Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart in
        Alcotest.(check bool) "fully iterative" true
          (Util.contains s "DO k (DO i (DO j (eq.2)))");
        let _, tr = Psc.hyperplane ~target:"A" tp in
        Alcotest.(check (array int)) "a = (2,1,1)" [| 2; 1; 1 |]
          tr.Psc.Transform.tr_time);
    t "both notations compute the same grid as the PS originals" (fun () ->
        let m = 14 and maxk = 9 in
        let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
        List.iter
          (fun (eqn_src, ps_src) ->
            let r1 = Psc.run (translate eqn_src) ~inputs in
            let r2 = Psc.run (Psc.load_string ps_src) ~inputs in
            let d =
              Util.max_diff
                (List.assoc "newA" r1.Psc.Exec.outputs)
                (List.assoc "newA" r2.Psc.Exec.outputs)
                [ (0, m + 1); (0, m + 1) ]
            in
            Alcotest.(check bool) "bit equal" true (d = 0.0))
          [ (equation_1, Ps_models.Models.jacobi);
            (equation_2, Ps_models.Models.seidel) ]);
    t "generated module pretty-prints to re-parsable PS" (fun () ->
        let print tp = Psc.Pretty.module_to_string (Psc.default_module tp).Psc.Elab.em_ast in
        List.iter
          (fun (name, src) ->
            let text = print (translate src) in
            Alcotest.(check string) name text (print (Psc.load_string text)))
          (documents ())) ]

let () =
  Alcotest.run "eqn"
    [ ("translation", translation_tests); ("pipeline", pipeline_tests) ]
