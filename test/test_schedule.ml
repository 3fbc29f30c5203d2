(* Scheduler tests (paper §3.3): the exact flowcharts of Figs. 5-7, the
   DO/DOALL distinction, virtual-dimension analysis (§3.4), the
   consistent-position and subscript-class rules of step 3, and the
   unschedulable diagnostics. *)

let t name f = Alcotest.test_case name `Quick f

let compact = Util.compact_schedule

let fig_tests =
  [ t "Fig. 6: Jacobi relaxation" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"
          (compact Ps_models.Models.jacobi));
    t "Fig. 7: revised relaxation is fully iterative" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"
          (compact Ps_models.Models.seidel));
    t "Fig. 5: component table" (fun () ->
        let tproj = Util.load Ps_models.Models.jacobi in
        let sc = Psc.schedule (Util.first tproj) in
        let comps =
          List.map
            (fun (c : Psc.Schedule.component_trace) ->
              List.sort compare c.Psc.Schedule.ct_nodes)
            sc.Psc.sc_result.Psc.Schedule.r_components
        in
        Alcotest.(check int) "7 components" 7 (List.length comps);
        Alcotest.(check bool) "recursive comp present" true
          (List.mem [ "A"; "eq.3" ] comps));
    t "Fig. 5: null flowcharts for data components" (fun () ->
        let tproj = Util.load Ps_models.Models.jacobi in
        let sc = Psc.schedule (Util.first tproj) in
        List.iter
          (fun (c : Psc.Schedule.component_trace) ->
            match c.Psc.Schedule.ct_nodes with
            | [ n ] when not (Util.contains n "eq") ->
              Alcotest.(check int) (n ^ " null") 0
                (List.length c.Psc.Schedule.ct_flowchart)
            | _ -> ())
          sc.Psc.sc_result.Psc.Schedule.r_components) ]

let model_tests =
  [ t "heat1d: time iterative, space parallel" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL X (eq.1); DO T (DOALL X (eq.3)); DOALL X (eq.2)"
          (compact Ps_models.Models.heat1d));
    t "matmul: reduction axis is the only DO" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.2))); DOALL I (DOALL J (eq.3))"
          (compact Ps_models.Models.matmul));
    t "binomial: level iterative, row parallel" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL R (eq.1); DO Lvl (DOALL R (eq.2)); DOALL R (eq.3)"
          (compact Ps_models.Models.binomial));
    t "prefix sum: no parallelism anywhere in the recurrence" (fun () ->
        Alcotest.(check string) "schedule" "eq.1; DO I2 (eq.2); DOALL I (eq.3)"
          (compact Ps_models.Models.prefix_sum));
    t "skewed stencil still schedules on K" (fun () ->
        Alcotest.(check string) "schedule"
          "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"
          (compact Ps_models.Models.skewed)) ]

let window_tests =
  [ t "Jacobi: dimension 1 of A is virtual with window 2 (sec. 3.4)" (fun () ->
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("A", 0, 2) ]
          (Util.windows_of Ps_models.Models.jacobi));
    t "revised relaxation: same window (paper text)" (fun () ->
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("A", 0, 2) ]
          (Util.windows_of Ps_models.Models.seidel));
    t "matmul accumulator windows to 2 planes" (fun () ->
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("S", 0, 2) ]
          (Util.windows_of Ps_models.Models.matmul));
    t "offset -2 gives window 3" (fun () ->
        let src =
          {|
Fib: module (N: int): [f: int];
type
  I = 2 .. N;
var
  F: array [0 .. N] of int;
define
  F[0] = 0;
  F[1] = 1;
  F[I] = F[I-1] + F[I-2];
  f = F[N];
end Fib;
|}
        in
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("F", 0, 3) ]
          (Util.windows_of src));
    t "inputs and results are never windowed" (fun () ->
        let ws = Util.windows_of Ps_models.Models.jacobi in
        List.iter
          (fun (d, _, _) ->
            Alcotest.(check bool) "local only" true (d = "A"))
          ws);
    t "spatial dimensions with +1 offsets are not virtual" (fun () ->
        let ws = Util.windows_of Ps_models.Models.jacobi in
        Alcotest.(check bool) "no window on dims 1/2" true
          (List.for_all (fun (_, dim, _) -> dim = 0) ws));
    t "a DOALL dimension is never virtual; its DO dimension is" (fun () ->
        (* DOALL I (DO J): one plane on I would be shared by every
           concurrent I, so pooled runs raced to wrong sums. *)
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("A", 1, 2) ]
          (Util.windows_of Util.doall_window);
        let inputs =
          [ ("M", Psc.Exec.scalar_int 1000); ("N", Psc.Exec.scalar_int 50) ]
        in
        let r_of r = Util.output_real r "r" [||] in
        let r0 = r_of (Util.run Util.doall_window inputs) in
        Alcotest.(check (float 0.0)) "sequential" 1049.0 r0;
        Psc.Pool.with_pool 2 (fun pool ->
            for _ = 1 to 20 do
              Alcotest.(check (float 0.0)) "pool of 2" r0
                (r_of (Util.run ~pool Util.doall_window inputs))
            done)) ]

let rule_tests =
  [ t "paper footnote: inconsistent positions are rejected" (fun () ->
        (* A[I,J] = A[J,I-1] + ... : I and J are not in a consistent
           position; with no other schedulable dimension this cannot be
           scheduled. *)
        let src =
          {|
Twist: module (N: int): [y: real];
type
  I, J = 1 .. N;
var
  A: array [I, J] of real;
define
  A[I, J] = if (I = 1) or (J = 1) then 1.0 else A[J, I-1] + 1.0;
  y = A[N, N];
end Twist;
|}
        in
        Util.expect_error ~substring:"cannot be scheduled" (fun () ->
            Util.compact_schedule src));
    t "seidel needs no error (K is schedulable)" (fun () ->
        ignore (compact Ps_models.Models.seidel));
    t "true cyclic dependence is unschedulable" (fun () ->
        (* A[I] depends on A[I+1] and A[I-1]: no dimension qualifies. *)
        let src =
          {|
Cyc: module (N: int): [y: real];
type
  I = 1 .. N;
var
  A: array [0 .. N+1] of real;
define
  A[I] = A[I-1] + A[I+1];
  A[0] = 0.0;
  A[N+1] = 0.0;
  y = A[1];
end Cyc;
|}
        in
        Util.expect_error ~substring:"cannot be scheduled" (fun () ->
            Util.compact_schedule src));
    t "diagnostic names the offending component" (fun () ->
        let src =
          {|
Cyc: module (N: int): [y: real];
type
  I = 1 .. N;
var
  A: array [0 .. N+1] of real;
define
  A[I] = A[I-1] + A[I+1];
  A[0] = 0.0;
  A[N+1] = 0.0;
  y = A[1];
end Cyc;
|}
        in
        (match Util.compact_schedule src with
         | exception Psc.Error m ->
           Alcotest.(check bool) "mentions A" true (Util.contains m "A");
           Alcotest.(check bool) "suggests hyperplane" true
             (Util.contains m "hyperplane")
         | _ -> Alcotest.fail "expected error"));
    t "identity self-reference cannot be scheduled" (fun () ->
        let src =
          {|
Selfy: module (N: int): [y: real];
type
  I = 1 .. N;
var
  A: array [I] of real;
define
  A[I] = A[I] + 1.0;
  y = A[1];
end Selfy;
|}
        in
        Util.expect_error (fun () -> Util.compact_schedule src)) ]

let structure_tests =
  [ t "loop counts: jacobi has 6 DOALLs and 1 DO" (fun () ->
        let tp = Util.load Ps_models.Models.jacobi in
        let sc = Psc.schedule (Util.first tp) in
        Alcotest.(check int) "DOALL" 6
          (Psc.Flowchart.count_loops ~kind:Psc.Flowchart.Parallel sc.Psc.sc_flowchart);
        Alcotest.(check int) "DO" 1
          (Psc.Flowchart.count_loops ~kind:Psc.Flowchart.Iterative sc.Psc.sc_flowchart));
    t "seidel has 4 DOALLs and 3 DOs" (fun () ->
        let tp = Util.load Ps_models.Models.seidel in
        let sc = Psc.schedule (Util.first tp) in
        Alcotest.(check int) "DOALL" 4
          (Psc.Flowchart.count_loops ~kind:Psc.Flowchart.Parallel sc.Psc.sc_flowchart);
        Alcotest.(check int) "DO" 3
          (Psc.Flowchart.count_loops ~kind:Psc.Flowchart.Iterative sc.Psc.sc_flowchart));
    t "every equation appears exactly once in the flowchart" (fun () ->
        List.iter
          (fun src ->
            let tp = Util.load src in
            let em = Util.first tp in
            let sc = Psc.schedule em in
            let eqs = Psc.Flowchart.equations sc.Psc.sc_flowchart in
            Alcotest.(check int) "all eqs" (List.length em.Psc.Elab.em_eqs)
              (List.length eqs);
            Alcotest.(check bool) "no duplicates" true
              (List.length (List.sort_uniq compare eqs) = List.length eqs))
          [ Ps_models.Models.jacobi; Ps_models.Models.seidel;
            Ps_models.Models.heat1d; Ps_models.Models.matmul;
            Ps_models.Models.binomial; Ps_models.Models.prefix_sum;
            Ps_models.Models.classify; Ps_models.Models.skewed ]);
    t "tree rendering matches Fig. 6 layout" (fun () ->
        let tp = Util.load Ps_models.Models.jacobi in
        let em = Util.first tp in
        let sc = Psc.schedule em in
        let s = Psc.flowchart_string sc in
        Alcotest.(check bool) "DO K present" true (Util.contains s "DO K (");
        Alcotest.(check bool) "DOALL I present" true (Util.contains s "DOALL I ("));
    t "dimension order follows the declaration (K before I before J)" (fun () ->
        let tp = Util.load Ps_models.Models.jacobi in
        let sc = Psc.schedule (Util.first tp) in
        let rec find_loop fc =
          List.find_map
            (function
              | Psc.Flowchart.D_loop l when l.Psc.Flowchart.lp_kind = Psc.Flowchart.Iterative ->
                Some l
              | Psc.Flowchart.D_loop l -> find_loop l.Psc.Flowchart.lp_body
              | _ -> None)
            fc
        in
        match find_loop sc.Psc.sc_flowchart with
        | Some l -> Alcotest.(check string) "outer loop" "K" l.Psc.Flowchart.lp_var
        | None -> Alcotest.fail "no iterative loop") ]

(* Multi-equation recursive component: two mutually dependent arrays in
   one MSCC must share the loop. *)
let mutual_tests =
  [ t "mutually recursive arrays schedule into one DO loop" (fun () ->
        let src =
          {|
Mutual: module (N: int): [y: real];
type
  T = 2 .. N;
var
  A: array [1 .. N] of real;
  B: array [1 .. N] of real;
define
  A[1] = 1.0;
  B[1] = 2.0;
  A[T] = B[T-1] + 1.0;
  B[T] = A[T-1] * 2.0;
  y = A[N] + B[N];
end Mutual;
|}
        in
        let s = compact src in
        Alcotest.(check bool) "one DO T with both eqs" true
          (Util.contains s "DO T (eq.3; eq.4)"
           || Util.contains s "DO T (eq.4; eq.3)"));
    t "mutually recursive arrays both get windows" (fun () ->
        let src =
          {|
Mutual: module (N: int): [y: real];
type
  T = 2 .. N;
var
  A: array [1 .. N] of real;
  B: array [1 .. N] of real;
define
  A[1] = 1.0;
  B[1] = 2.0;
  A[T] = B[T-1] + 1.0;
  B[T] = A[T-1] * 2.0;
  y = A[N] + B[N];
end Mutual;
|}
        in
        let ws = List.sort compare (Util.windows_of src) in
        Alcotest.(check (list (triple string int int))) "windows"
          [ ("A", 0, 2); ("B", 0, 2) ]
          ws) ]

let () =
  Alcotest.run "schedule"
    [ ("paper figures", fig_tests);
      ("models", model_tests);
      ("virtual dimensions", window_tests);
      ("step-3 rules", rule_tests);
      ("structure", structure_tests);
      ("mutual recursion", mutual_tests) ]
