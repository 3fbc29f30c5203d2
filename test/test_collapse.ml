(* Tests for the DOALL nest-collapsing pass and its execution paths.

   Coverage: the marking pass itself (which loops get a mark, clear /
   idempotence), the E021 structural check in the schedule verifier,
   and — the part that matters — differential execution: a collapsed
   band must produce bit-identical results to both the sequential
   interpreter and the uncollapsed parallel runtime, on the rectangular
   fig. 6 band, on the triangular hyperplane band, and on randomly
   generated 2-D stencils. *)

let t name f = Alcotest.test_case name `Quick f

module Models = Ps_models.Models

let jacobi_sc ~collapse =
  let tp = Util.load Models.jacobi in
  let em = Util.first tp in
  (em, Psc.schedule ~collapse em)

(* The hyperplane-transformed seidel relaxation (h3): module + project. *)
let h3 () =
  let tp = Util.load Models.seidel in
  let tp', tr = Psc.hyperplane ~target:"A" tp in
  let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
  (tp', name)

(* --- marking ------------------------------------------------------- *)

let mark_tests =
  [ t "jacobi: every perfect DOALL pair head is marked" (fun () ->
        let em, sc = jacobi_sc ~collapse:true in
        Alcotest.(check int) "three bands" 3 sc.Psc.sc_collapsed;
        let s = Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart in
        Util.check_bool "outer heads starred" true
          (Util.contains s "DOALL* I (DOALL J");
        Util.check_bool "inner loops unmarked" true
          (not (Util.contains s "DOALL* J")));
    t "without the pass nothing is marked" (fun () ->
        let em, sc = jacobi_sc ~collapse:false in
        Alcotest.(check int) "no bands" 0 sc.Psc.sc_collapsed;
        let s = Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart in
        Util.check_bool "no stars" true (not (Util.contains s "*")));
    t "mark is idempotent" (fun () ->
        let _, sc = jacobi_sc ~collapse:true in
        let fc = Psc.Collapse.mark sc.Psc.sc_flowchart in
        Alcotest.(check int) "same count" sc.Psc.sc_collapsed
          (Psc.Collapse.count fc));
    t "a 1-D recurrence has nothing to collapse" (fun () ->
        let tp = Util.load Models.prefix_sum in
        let sc = Psc.schedule ~collapse:true (Util.first tp) in
        Alcotest.(check int) "no bands" 0 sc.Psc.sc_collapsed);
    t "the triangular hyperplane band is marked" (fun () ->
        let tp, name = h3 () in
        let em = Psc.find_module tp name in
        let sc = Psc.schedule ~sink:true ~trim:true ~collapse:true em in
        Alcotest.(check int) "one band" 1 sc.Psc.sc_collapsed;
        let s = Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart in
        Util.check_bool "starred" true (Util.contains s "DOALL*")) ]

(* --- verifier (E021) ----------------------------------------------- *)

let has_code c ds =
  List.exists (fun d -> Psc.Diag.code_id d.Psc.Diag.d_code = c) ds

let verify_tests =
  [ t "marks from the pass verify clean" (fun () ->
        let _, sc = jacobi_sc ~collapse:true in
        let ds = Psc.verify sc in
        Util.check_bool "no E021" true (not (has_code "E021" ds));
        Alcotest.(check int) "no errors" 0 (List.length (Psc.Diag.errors ds)));
    t "a mark on an iterative or imperfect loop is E021" (fun () ->
        let _, sc = jacobi_sc ~collapse:false in
        (* Mark *everything*, including DO K and the innermost DOALLs:
           none of those are heads of perfect DOALL pairs. *)
        let fc =
          Psc.Flowchart.map_loops
            (fun l -> { l with Psc.Flowchart.lp_collapse = true })
            sc.Psc.sc_flowchart
        in
        let ds = Psc.verify { sc with Psc.sc_flowchart = fc } in
        Util.check_bool "E021 reported" true (has_code "E021" ds)) ]

(* --- differential execution ---------------------------------------- *)

let rel_box m = [ (0, m + 1); (0, m + 1) ]

(* The fixed-chunk deal with every band flattened, selected per nest by
   a table over [tp]'s (unmarked) schedule. *)
let fixed_collapsed tp =
  let fc = (Psc.schedule (Psc.default_module tp)).Psc.sc_flowchart in
  Psc.Policy.uniform ~source:Psc.Policy.Tuned ~cores:4 fc (fun l ->
      Psc.Policy.parallel ~steal:false
        ~collapse:(Psc.Collapse.collapsible l) ~why:"fixed-chunk test" ())

let bit_equal name box r1 r2 =
  Util.max_diff
    (List.assoc name r1.Psc.Exec.outputs)
    (List.assoc name r2.Psc.Exec.outputs)
    box
  = 0.0

let exec_tests =
  [ t "fig6: collapsed rectangular band is bit-identical" (fun () ->
        let m = 10 and maxk = 6 in
        let inputs = Models.relaxation_inputs ~m ~maxk in
        let r_seq = Util.run Models.jacobi inputs in
        Psc.Pool.with_pool 4 (fun pool ->
            let r_par = Util.run ~pool Models.jacobi inputs in
            let r_col = Util.run ~pool ~collapse:true Models.jacobi inputs in
            Util.check_bool "par = seq" true
              (bit_equal "newA" (rel_box m) r_seq r_par);
            Util.check_bool "collapsed = seq" true
              (bit_equal "newA" (rel_box m) r_seq r_col));
        Psc.Pool.with_pool 4 (fun pool ->
            let tp = Util.load Models.jacobi in
            let r = Psc.run ~pool ~policy:(fixed_collapsed tp) tp ~inputs in
            Util.check_bool "collapsed fixed-chunk = seq" true
              (bit_equal "newA" (rel_box m) r_seq r)));
    t "h3: collapsed triangular band is bit-identical" (fun () ->
        let m = 12 and maxk = 7 in
        let inputs = Models.relaxation_inputs ~m ~maxk in
        let tp, name = h3 () in
        let r_seq = Util.run Models.seidel inputs in
        let run ?pool ~collapse () =
          Psc.run ?pool ~collapse ~name ~sink:true ~trim:true tp ~inputs
        in
        let r_h3 = run ~collapse:false () in
        Util.check_bool "transform = original" true
          (bit_equal "newA" (rel_box m) r_seq r_h3);
        Psc.Pool.with_pool 4 (fun pool ->
            let r = run ~pool ~collapse:true () in
            Util.check_bool "collapsed wavefront = seq" true
              (bit_equal "newA" (rel_box m) r_seq r)));
    t "a collapsed chunk evaluates each point of its rows once" (fun () ->
        (* Chunks walk the flattened band a row of the innermost
           variable at a time; a piece that ran past its chunk would
           recompute the same values, so only the count shows it. *)
        let m = 12 and maxk = 7 in
        let inputs = Models.relaxation_inputs ~m ~maxk in
        let tp6 = Util.load Models.jacobi and tp3, name = h3 () in
        let evals r = Option.get r.Psc.Exec.evaluations in
        let r6 = Psc.run ~stats:true tp6 ~inputs in
        let r3 = Psc.run ~stats:true ~name ~sink:true ~trim:true tp3 ~inputs in
        Psc.Pool.with_pool 3 (fun pool ->
            List.iter
              (fun policy ->
                Alcotest.(check int) "fig6 rect band" (evals r6)
                  (evals (Psc.run ~pool ~stats:true ~collapse:true ?policy tp6 ~inputs)))
              [ None; Some (fixed_collapsed tp6) ];
            Alcotest.(check int) "h3 triangular band" (evals r3)
              (evals
                 (Psc.run ~pool ~stats:true ~collapse:true ~name ~sink:true ~trim:true tp3
                    ~inputs))));
    t "lcs: the pool protocol preserves the wavefront result" (fun () ->
        let n = 40 in
        let inputs =
          [ ( "X",
              Psc.Exec.array_int ~dims:[ (1, n) ]
                (fun ix -> ((ix.(0) * 7) + 3) mod 4) );
            ( "Y",
              Psc.Exec.array_int ~dims:[ (1, n) ]
                (fun ix -> ((ix.(0) * 5) + 1) mod 4) );
            ("N", Psc.Exec.scalar_int n) ]
        in
        let tp = Util.load Models.lcs in
        let tp, tr = Psc.hyperplane ~target:"L" tp in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let len r = Psc.Exec.read_int (List.assoc "len" r.Psc.Exec.outputs) [||] in
        let r_seq = Psc.run tp ~inputs in
        let r_tr = Psc.run ~name ~sink:true ~trim:true tp ~inputs in
        Psc.Pool.with_pool 4 (fun pool ->
            let r_par =
              Psc.run ~pool ~collapse:true ~name ~sink:true ~trim:true tp
                ~inputs
            in
            Alcotest.(check int) "transform" (len r_seq) (len r_tr);
            Alcotest.(check int) "parallel wavefront" (len r_seq) (len r_par)));
    t "a short outer loop over a wide inner one forks as one band" (fun () ->
        (* Outer extent 2 is below the fork threshold on its own; the
           band's total point count (2 x N) is what lets it fork. *)
        let src =
          {|
T: module (X: array[J] of real; N: int): [Z: array[I] of array[J] of real];
type
  I = 1 .. 2;
  J = 1 .. N;
define
  Z[I,J] = X[J] * 2.0 + X[I];
end T;
|}
        in
        let n = 300 in
        let x =
          Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> Models.fill_value ix.(0))
        in
        let inputs = [ ("X", x); ("N", Psc.Exec.scalar_int n) ] in
        let tp = Util.load src in
        let sc = Psc.schedule ~collapse:true (Util.first tp) in
        Alcotest.(check int) "one band" 1 sc.Psc.sc_collapsed;
        let r_seq = Psc.run tp ~inputs in
        Psc.Pool.with_pool 4 (fun pool ->
            let r = Psc.run ~pool ~collapse:true tp ~inputs in
            Util.check_bool "bit equal" true
              (bit_equal "Z" [ (1, 2); (1, n) ] r_seq r))) ]

(* --- random 2-D stencils ------------------------------------------- *)

type stencil2 = {
  c : float;             (* A[K-1, I, J] *)
  w : float option;      (* A[K-1, I, J-1] *)
  n_ : float option;     (* A[K-1, I-1, J] *)
  e : float option;      (* A[K-1, I, J+1] *)
  s : float option;      (* A[K-1, I+1, J] *)
  bias : float;
  m : int;
  steps : int;
}

let gen_stencil2 : stencil2 QCheck.Gen.t =
  let open QCheck.Gen in
  let coeff = float_range 0.05 0.3 in
  let* c = coeff in
  let* w = opt coeff in
  let* n_ = opt coeff in
  let* e = opt coeff in
  let* s = opt coeff in
  let* bias = float_range (-0.2) 0.2 in
  let* m = int_range 2 10 in
  let* steps = int_range 2 6 in
  return { c; w; n_; e; s; bias; m; steps }

let source_of (s : stencil2) : string =
  let term c ref_ = Printf.sprintf "%.3f * %s" c ref_ in
  let terms =
    List.filter_map Fun.id
      [ Some (term s.c "A[K-1, I, J]");
        Option.map (fun c -> term c "A[K-1, I, J-1]") s.w;
        Option.map (fun c -> term c "A[K-1, I-1, J]") s.n_;
        Option.map (fun c -> term c "A[K-1, I, J+1]") s.e;
        Option.map (fun c -> term c "A[K-1, I+1, J]") s.s ]
  in
  Printf.sprintf
    {|
R: module (Init: array[I,J] of real; M: int; T: int): [Out: array[I,J] of real];
type
  I, J = 0 .. M+1;
  K = 2 .. T;
var
  A: array [1 .. T] of array[I,J] of real;
define
  A[1] = Init;
  Out = A[T];
  A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
             then A[K-1,I,J]
             else %s + %.3f;
end R;
|}
    (String.concat " + " terms)
    s.bias

let inputs_of (s : stencil2) =
  [ ("Init", Models.grid_input s.m);
    ("M", Psc.Exec.scalar_int s.m);
    ("T", Psc.Exec.scalar_int s.steps) ]

let arb_stencil2 = QCheck.make gen_stencil2 ~print:source_of

let collapse_shape_prop =
  QCheck.Test.make ~count:40 ~name:"random stencils collapse to one band"
    arb_stencil2 (fun s ->
      let tp = Psc.load_string (source_of s) in
      let sc = Psc.schedule ~collapse:true (Psc.default_module tp) in
      (* DO K (DOALL* I (DOALL J)) plus the copy-in / copy-out pairs. *)
      sc.Psc.sc_collapsed = 3)

let collapse_prop =
  QCheck.Test.make ~count:25
    ~name:"collapsed, uncollapsed-parallel and sequential runs are bit-identical"
    arb_stencil2 (fun s ->
      let tp = Psc.load_string (source_of s) in
      let inputs = inputs_of s in
      let box = rel_box s.m in
      let r_seq = Psc.run tp ~inputs in
      Psc.Pool.with_pool 3 (fun pool ->
          let r_par = Psc.run ~pool tp ~inputs in
          let r_col = Psc.run ~pool ~collapse:true tp ~inputs in
          let r_fix = Psc.run ~pool ~policy:(fixed_collapsed tp) tp ~inputs in
          bit_equal "Out" box r_seq r_par
          && bit_equal "Out" box r_seq r_col
          && bit_equal "Out" box r_seq r_fix))

let () =
  Alcotest.run "collapse"
    [ ("marking", mark_tests);
      ("verifier", verify_tests);
      ("execution", exec_tests);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ collapse_shape_prop; collapse_prop ]) ]
