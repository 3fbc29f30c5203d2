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

let diagnostic_tests =
  [ t "module calls are diagnosed" (fun () ->
        Util.expect_error ~substring:"C back end" (fun () ->
            Psc.emit_c ~name:"Driver" (Util.load Ps_models.Models.two_module)));
    t "record types are diagnosed" (fun () ->
        Util.expect_error ~substring:"record" (fun () ->
            emit
              "T: module (r: S): [y: real]; type S = record a : real end; \
               define y = r.a; end T;")) ]

(* --- compile and run, when cc is available ------------------------ *)

let have_cc = Sys.command "command -v cc > /dev/null 2>&1" = 0

let run_c source =
  let dir = Filename.temp_file "psc_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let src = Filename.concat dir "prog.c" in
  let exe = Filename.concat dir "prog" in
  let oc = open_out src in
  output_string oc source;
  close_out oc;
  let rc = Sys.command (Printf.sprintf "cc -O1 -o %s %s -lm 2> %s/cc.log" exe src dir) in
  if rc <> 0 then Alcotest.failf "cc failed (see %s)" dir;
  let ic = Unix.open_process_in exe in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  List.rev !lines
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; v ] -> (name, float_of_string v)
         | _ -> Alcotest.failf "bad C output line %S" line)

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
    [ ("structure", structure_tests);
      ("diagnostics", diagnostic_tests);
      ("compile and run", cc_tests) ]
