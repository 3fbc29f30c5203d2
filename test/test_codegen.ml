(* C back-end tests: structure of the emitted code (annotations, windows,
   loop kinds), diagnostics for unsupported constructs, and — when a C
   compiler is available — compile-and-run comparison of checksums against
   the interpreter, for both the plain and the transformed programs. *)

let t name f = Alcotest.test_case name `Quick f

let emit ?sink src = Psc.emit_c ?sink (Util.load src)

(* Integer division and remainder with negative operands and scalar
   results: exercises the PS_DIV/PS_MOD helpers and the pointer
   out-params for scalar outputs. *)
let divmod_src =
  "T: module (N: int): [q: int; r: int; s: int; w: int]; define q = (0 - 7) \
   div N; r = (0 - 7) mod N; s = 7 div (0 - N); w = 7 mod (0 - N); end T;"

let structure_tests =
  [ t "DO and DOALL annotations present (paper: loops are annotated)" (fun () ->
        let c = emit Ps_models.Models.jacobi in
        Alcotest.(check bool) "DOALL" true (Util.contains c "/* DOALL (concurrent) */");
        Alcotest.(check bool) "DO" true (Util.contains c "/* DO (iterative) */"));
    t "outermost DOALL gets the OpenMP pragma" (fun () ->
        let c = emit Ps_models.Models.jacobi in
        Alcotest.(check bool) "pragma" true
          (Util.contains c "#pragma omp parallel for"));
    t "virtual dimension comments and window constants" (fun () ->
        let c = emit Ps_models.Models.jacobi in
        Alcotest.(check bool) "window comment" true
          (Util.contains c "window of 2 planes");
        Alcotest.(check bool) "euclidean modulo mapping" true
          (Util.contains c "PS_WRAP((i0) - A_lo0, A_w0)"));
    t "seidel emits three nested iterative loops" (fun () ->
        let c = emit Ps_models.Models.seidel in
        let count_substring s sub =
          let rec go i acc =
            if i + String.length sub > String.length s then acc
            else if String.sub s i (String.length sub) = sub then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        Alcotest.(check int) "3 DO loops" 3
          (count_substring c "/* DO (iterative) */"));
    t "local arrays are calloc'd and freed" (fun () ->
        let c = emit Ps_models.Models.jacobi in
        Alcotest.(check bool) "calloc" true (Util.contains c "calloc(A_size");
        Alcotest.(check bool) "free" true (Util.contains c "free(A)"));
    t "inputs become const pointers, results plain pointers" (fun () ->
        let c = emit Ps_models.Models.jacobi in
        Alcotest.(check bool) "const in" true
          (Util.contains c "const double *InitialA");
        Alcotest.(check bool) "out" true (Util.contains c "double *newA"));
    t "integer kernels use int arrays" (fun () ->
        let c = emit Ps_models.Models.binomial in
        Alcotest.(check bool) "int array" true (Util.contains c "int *T"));
    t "div and mod go through the trapping helpers" (fun () ->
        let c = emit divmod_src in
        Alcotest.(check bool) "helpers defined" true
          (Util.contains c "static inline int PS_DIV(int a, int b)"
           && Util.contains c "static inline int PS_MOD(int a, int b)");
        Alcotest.(check bool) "div call" true (Util.contains c "PS_DIV(");
        Alcotest.(check bool) "mod call" true (Util.contains c "PS_MOD("));
    t "scalar results become pointer out-params" (fun () ->
        let c = emit divmod_src in
        Alcotest.(check bool) "signature" true (Util.contains c "int *q");
        Alcotest.(check bool) "store through pointer" true
          (Util.contains c "*q ="));
    t "lcs scalar result is written through its pointer" (fun () ->
        let c = emit Ps_models.Models.lcs in
        Alcotest.(check bool) "signature" true (Util.contains c "int *len");
        Alcotest.(check bool) "store" true (Util.contains c "*len ="));
    t "real division of int operands casts" (fun () ->
        let c =
          emit
            "T: module (n: int): [y: real]; define y = n / 4; end T;"
        in
        Alcotest.(check bool) "cast" true (Util.contains c "(double)"));
    t "enum constructors become defines" (fun () ->
        let c = emit Ps_models.Models.classify in
        Alcotest.(check bool) "Small" true (Util.contains c "#define Small 0");
        Alcotest.(check bool) "Large" true (Util.contains c "#define Large 2"));
    t "solved subscript emits the unrotate block" (fun () ->
        let tp = Util.load Ps_models.Models.seidel in
        let tp', tr = Psc.hyperplane ~target:"A" tp in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let c = Psc.emit_c ~name ~sink:true tp' in
        Alcotest.(check bool) "unrotate" true (Util.contains c "solved subscript");
        Alcotest.(check bool) "window 3" true (Util.contains c "window of 3 planes")) ]

(* Every source the back end is checked over: the models, the examples,
   the fuzz corpus, and each hyperplane transform of their first module
   (one per local array the transformation accepts). *)
let kernels () =
  let corpus =
    let dir = Filename.dirname (Util.corpus "doall_window.ps") in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ps")
    |> List.sort compare
    |> List.map (fun f -> (f, Util.read_file (Filename.concat dir f)))
  in
  List.concat_map
    (fun (label, src) ->
      let tp = Util.load src in
      (label, tp, None)
      :: List.filter_map
           (fun (d : Psc.Elab.data) ->
             let target = d.Psc.Elab.d_name in
             if Psc.Stypes.dims d.Psc.Elab.d_ty = [] then None
             else
               match Psc.hyperplane ~target tp with
               | tp', tr ->
                 Some
                   ( label ^ "/" ^ target,
                     tp',
                     Some tr.Psc.Transform.tr_module.Psc.Ast.m_name )
               | exception Psc.Error _ -> None)
           (Psc.default_module tp).Psc.Elab.em_locals)
    (Golden_cases.all () @ corpus)

(* The loops the C marks with an OpenMP pragma, in order, each as its
   for-loop variable and the first word of its kind annotation. *)
let pragma_loops c =
  let rec go = function
    | pragma :: loop :: rest
      when Util.contains pragma "#pragma omp parallel for" ->
      let var = Scanf.sscanf (String.trim loop) "for (int %s " Fun.id in
      let note = List.nth (String.split_on_char '*' loop) 1 in
      let kind = String.trim (List.hd (String.split_on_char '(' note)) in
      (var, kind) :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (String.split_on_char '\n' c)

let fork_tests =
  [ t "pragmas mark exactly the fork candidates" (fun () ->
        let checked = ref 0 and transformed = ref 0 in
        List.iter
          (fun (label, tp, name) ->
            List.iter
              (fun passes ->
                match
                  Psc.emit_c ?name ~sink:passes ~fuse:passes ~trim:passes
                    ~collapse:passes tp
                with
                | exception Psc.Error _ -> ()  (* module calls, records *)
                | c ->
                  let sc =
                    Psc.schedule ~sink:passes ~fuse:passes ~trim:passes
                      ~collapse:passes (Psc.the_module ?name tp)
                  in
                  let expected =
                    List.map
                      (fun (cand : Psc.Policy.candidate) ->
                        let l = cand.Psc.Policy.c_loop in
                        let kind = l.Psc.Flowchart.lp_kind in
                        ( Psc.Emit.c_name l.Psc.Flowchart.lp_var
                          ^ (if kind = Psc.Flowchart.Parallel then "" else "_grp"),
                          List.hd
                            (String.split_on_char '('
                               (Psc.Flowchart.kind_name kind)) ))
                      (Psc.Policy.index sc.Psc.sc_flowchart)
                  in
                  Alcotest.(check (list (pair string string)))
                    (label ^ if passes then " (all passes)" else "")
                    expected (pragma_loops c);
                  incr checked;
                  if name <> None then incr transformed)
              [ false; true ])
          (kernels ());
        Alcotest.(check bool)
          (Printf.sprintf "%d emitted, %d transformed" !checked !transformed)
          true
          (!checked >= 60 && !transformed >= 20)) ]

let diagnostic_tests =
  [ t "module calls are diagnosed" (fun () ->
        Util.expect_error ~substring:"C back end" (fun () ->
            Psc.emit_c ~name:"Driver" (Util.load Ps_models.Models.two_module));
        (* Under '/' too, where the operands' types decide the cast. *)
        Util.expect_error ~substring:"C back end" (fun () ->
            Psc.emit_c ~name:"D"
              (Util.load
                 "Callee: module (x: int): [y: int]; define y = x + 1; end \
                  Callee;\n\
                  D: module (a: int): [r: real]; define r = Callee(a) / 2; \
                  end D;")));
    t "record types are diagnosed" (fun () ->
        Util.expect_error ~substring:"record" (fun () ->
            emit
              "T: module (r: S): [y: real]; type S = record a : real end; \
               define y = r.a; end T;")) ]

(* --- compile and run, when cc is available ------------------------ *)

let have_cc = Lazy.force Ps_fuzz.Diff.have_cc

(* The checksums of an emitted main(), built as the fuzzer's C oracle
   builds it. *)
let run_c source =
  match Ps_fuzz.Diff.c_checksums source with
  | Ps_fuzz.Diff.Checksums sums -> sums
  | Ps_fuzz.Diff.Trap m -> Alcotest.failf "C: %s" m
  | Ps_fuzz.Diff.Outputs _ | Ps_fuzz.Diff.Skip _ -> Alcotest.fail "C: no checksums"

(* The interpreter-side checksums, from the inputs the generated main()
   builds. *)
let interp_checksums ?sink ?name src scalars =
  let tp = Util.load src in
  let inputs = Psc.default_inputs (Psc.the_module ?name tp) ~scalars in
  let r = Psc.run ?sink ?name tp ~inputs in
  List.map (fun (nm, v) -> (nm, Psc.checksum v)) r.Psc.Exec.outputs

let compare_c_and_interp ?sink ?name src scalars =
  let tp = Util.load src in
  let c = Psc.emit_c_main ?name ?sink ~scalars tp in
  let c_results = run_c c in
  let i_results = interp_checksums ?sink ?name src scalars in
  List.iter
    (fun (nm, v) ->
      let v' = List.assoc nm i_results in
      if not (Float.equal v v') then
        Alcotest.failf "%s: C %.17g vs interpreter %.17g" nm v v')
    c_results

let cc_tests =
  if not have_cc then
    [ t "cc unavailable (skipped)" (fun () -> ()) ]
  else
    [ t "jacobi: C equals interpreter bit for bit" (fun () ->
          compare_c_and_interp Ps_models.Models.jacobi
            [ ("M", 20); ("maxK", 12) ]);
      t "seidel: C equals interpreter" (fun () ->
          compare_c_and_interp Ps_models.Models.seidel
            [ ("M", 16); ("maxK", 10) ]);
      t "heat1d: C equals interpreter" (fun () ->
          compare_c_and_interp Ps_models.Models.heat1d
            [ ("N", 50); ("steps", 30) ]);
      t "matmul: C equals interpreter" (fun () ->
          compare_c_and_interp Ps_models.Models.matmul [ ("N", 12) ]);
      t "binomial: C equals interpreter" (fun () ->
          compare_c_and_interp Ps_models.Models.binomial [ ("N", 20) ]);
      t "negative div/mod and scalar results: C equals interpreter" (fun () ->
          (* C99 '/'/'%' truncate toward zero like the interpreter, but
             only via the PS_DIV/PS_MOD seam is the zero trap shared;
             scalar results additionally go through pointer out-params. *)
          compare_c_and_interp divmod_src [ ("N", 2) ];
          compare_c_and_interp divmod_src [ ("N", 3) ]);
      t "lcs: C equals interpreter on a scalar result" (fun () ->
          compare_c_and_interp Ps_models.Models.lcs [ ("N", 10) ]);
      t "transformed seidel with sinking: C equals interpreter" (fun () ->
          let tp = Util.load Ps_models.Models.seidel in
          let _, tr = Psc.hyperplane ~target:"A" tp in
          let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
          let full_src =
            Ps_models.Models.seidel ^ "\n"
            ^ Ps_lang.Pretty.module_to_string tr.Psc.Transform.tr_module
          in
          compare_c_and_interp ~sink:true ~name full_src
            [ ("M", 16); ("maxK", 10) ]) ]

let () =
  Alcotest.run "codegen"
    [ ("structure", structure_tests @ fork_tests);
      ("diagnostics", diagnostic_tests);
      ("compile and run", cc_tests) ]
