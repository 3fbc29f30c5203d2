(* Interpreter tests: every model against a native OCaml reference,
   window on/off equivalence, parallel determinism, module calls, enum
   results, and input validation. *)

let t name f = Alcotest.test_case name `Quick f

let fill = Ps_models.Models.fill_value

(* --- Jacobi ------------------------------------------------------- *)

let m = 18 and maxk = 12

let native_jacobi () =
  let n = m + 2 in
  let cur =
    ref (Array.init n (fun i -> Array.init n (fun j -> fill ((i * n) + j))))
  in
  for _k = 2 to maxk do
    let prev = !cur in
    cur :=
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i = 0 || j = 0 || i = m + 1 || j = m + 1 then prev.(i).(j)
              else
                (prev.(i).(j - 1) +. prev.(i - 1).(j) +. prev.(i).(j + 1)
                 +. prev.(i + 1).(j))
                /. 4.))
  done;
  !cur

let native_seidel () =
  let n = m + 2 in
  let cur =
    ref (Array.init n (fun i -> Array.init n (fun j -> fill ((i * n) + j))))
  in
  for _k = 2 to maxk do
    let prev = !cur in
    let next = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i = 0 || j = 0 || i = m + 1 || j = m + 1 then next.(i).(j) <- prev.(i).(j)
        else
          next.(i).(j) <-
            (next.(i).(j - 1) +. next.(i - 1).(j) +. prev.(i).(j + 1)
             +. prev.(i + 1).(j))
            /. 4.
      done
    done;
    cur := next
  done;
  !cur

let check_grid out reference =
  let worst = ref 0.0 in
  for i = 0 to m + 1 do
    for j = 0 to m + 1 do
      let d = abs_float (Psc.Exec.read_real out [| i; j |] -. reference.(i).(j)) in
      if d > !worst then worst := d
    done
  done;
  Alcotest.(check bool) "matches native" true (!worst = 0.0)

let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk

let model_tests =
  [ t "jacobi equals the native stencil" (fun () ->
        let r = Util.run Ps_models.Models.jacobi inputs in
        check_grid (List.assoc "newA" r.Psc.Exec.outputs) (native_jacobi ()));
    t "seidel equals the native Gauss-Seidel sweep" (fun () ->
        let r = Util.run Ps_models.Models.seidel inputs in
        check_grid (List.assoc "newA" r.Psc.Exec.outputs) (native_seidel ()));
    t "heat1d equals the native iteration" (fun () ->
        let n = 40 and steps = 25 in
        let r =
          Util.run Ps_models.Models.heat1d
            [ ("U0", Ps_models.Models.line_input n);
              ("N", Psc.Exec.scalar_int n);
              ("steps", Psc.Exec.scalar_int steps) ]
        in
        let u = ref (Array.init (n + 2) (fun i -> fill i)) in
        for _tstep = 2 to steps do
          let prev = !u in
          u :=
            Array.init (n + 2) (fun x ->
                if x = 0 || x = n + 1 then prev.(x)
                else
                  prev.(x)
                  +. (0.25 *. (prev.(x - 1) -. (2.0 *. prev.(x)) +. prev.(x + 1))))
        done;
        let out = List.assoc "UT" r.Psc.Exec.outputs in
        for x = 0 to n + 1 do
          Util.checkf ~eps:0.0 "heat" !u.(x) (Psc.Exec.read_real out [| x |])
        done);
    t "binomial computes Pascal's triangle" (fun () ->
        let n = 12 in
        let r =
          Util.run Ps_models.Models.binomial [ ("N", Psc.Exec.scalar_int n) ]
        in
        let out = List.assoc "P" r.Psc.Exec.outputs in
        let rec choose n k =
          if k = 0 || k = n then 1 else choose (n - 1) (k - 1) + choose (n - 1) k
        in
        for k = 0 to n do
          Alcotest.(check int)
            (Printf.sprintf "C(%d,%d)" n k)
            (choose n k)
            (Psc.Exec.read_int out [| k |])
        done);
    t "prefix sum" (fun () ->
        let n = 33 in
        let x =
          Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> fill ix.(0))
        in
        let r =
          Util.run Ps_models.Models.prefix_sum
            [ ("X", x); ("N", Psc.Exec.scalar_int n) ]
        in
        let out = List.assoc "S" r.Psc.Exec.outputs in
        let acc = ref 0.0 in
        for i = 1 to n do
          acc := !acc +. fill i;
          Util.checkf ~eps:0.0 "prefix" !acc (Psc.Exec.read_real out [| i |])
        done);
    t "classify returns enums and a count" (fun () ->
        let n = 50 in
        let v = Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> fill ix.(0)) in
        let r =
          Util.run Ps_models.Models.classify
            [ ("V", v); ("N", Psc.Exec.scalar_int n) ]
        in
        let expected = ref 0 in
        for i = 1 to n do
          if fill i >= 0.7 then incr expected
        done;
        Alcotest.(check int) "nLarge" !expected (Util.output_int r "nLarge" [||]);
        (* The enum array holds ordinals 0..2. *)
        let c = List.assoc "C" r.Psc.Exec.outputs in
        for i = 1 to n do
          let ord = Psc.Exec.read_int c [| i |] in
          Alcotest.(check bool) "ordinal in range" true (ord >= 0 && ord <= 2)
        done) ]

let call_tests =
  [ t "driver module calls Relaxation and Scale" (fun () ->
        let r = Util.run ~name:"Driver" Ps_models.Models.two_module inputs in
        let reference = native_jacobi () in
        let out = List.assoc "Out" r.Psc.Exec.outputs in
        let worst = ref 0.0 in
        for i = 0 to m + 1 do
          for j = 0 to m + 1 do
            let d =
              abs_float
                (Psc.Exec.read_real out [| i; j |] -. (2.0 *. reference.(i).(j)))
            in
            if d > !worst then worst := d
          done
        done;
        Alcotest.(check bool) "scaled result" true (!worst = 0.0));
    t "multi-result module call" (fun () ->
        let src =
          {|
MinMax: module (a: int; b: int): [lo: int; hi: int];
define
  lo = min(a, b);
  hi = max(a, b);
end MinMax;

Use: module (x: int; y: int): [range: int];
var
  l: int;
  h: int;
define
  l, h = MinMax(x, y);
  range = h - l;
end Use;
|}
        in
        let r =
          Util.run ~name:"Use" src
            [ ("x", Psc.Exec.scalar_int 12); ("y", Psc.Exec.scalar_int 45) ]
        in
        Alcotest.(check int) "range" 33 (Util.output_int r "range" [||]));
    t "callee schedule memo is keyed by flag fingerprint" (fun () ->
        (* Regression: a process-wide callee-schedule cache keyed by
           module name only once served a run with different
           transformation flags a schedule built for the old flags.
           Callee schedules now live and die with their run; run one
           process under both flag sets and check the results. *)
        let run_driver ?collapse ?sink () =
          Util.run ?collapse ?sink ~name:"Driver" Ps_models.Models.two_module
            inputs
        in
        let out r = List.assoc "Out" r.Psc.Exec.outputs in
        let box = [ (0, m + 1); (0, m + 1) ] in
        let r_plain = run_driver () in
        let r_again = run_driver () in
        Alcotest.(check bool) "repeat is bit-equal" true
          (Util.max_diff (out r_plain) (out r_again) box = 0.0);
        (* Different flags: results still match (a stale schedule would
           break sink's window changes). *)
        let r_flags = run_driver ~collapse:true ~sink:true () in
        Alcotest.(check bool) "flag flip is bit-equal" true
          (Util.max_diff (out r_plain) (out r_flags) box = 0.0)) ]

let window_tests =
  [ t "windows do not change results (all recursive models)" (fun () ->
        List.iter
          (fun (src, ins, result, box) ->
            let r1 = Util.run ~use_windows:true src ins in
            let r2 = Util.run ~use_windows:false src ins in
            let d =
              Util.max_diff
                (List.assoc result r1.Psc.Exec.outputs)
                (List.assoc result r2.Psc.Exec.outputs)
                box
            in
            Alcotest.(check bool) "bit equal" true (d = 0.0))
          [ (Ps_models.Models.jacobi, inputs, "newA", [ (0, m + 1); (0, m + 1) ]);
            (Ps_models.Models.seidel, inputs, "newA", [ (0, m + 1); (0, m + 1) ]) ]);
    t "window reduces allocation to 2 planes" (fun () ->
        let r1 = Util.run ~use_windows:true Ps_models.Models.jacobi inputs in
        let r2 = Util.run ~use_windows:false Ps_models.Models.jacobi inputs in
        Alcotest.(check int) "windowed" (2 * (m + 2) * (m + 2))
          (List.assoc "A" r1.Psc.Exec.allocated);
        Alcotest.(check int) "full" (maxk * (m + 2) * (m + 2))
          (List.assoc "A" r2.Psc.Exec.allocated)) ]

let parallel_tests =
  [ t "parallel jacobi is deterministic (pools of 2, 3, 5)" (fun () ->
        let r0 = Util.run Ps_models.Models.jacobi inputs in
        List.iter
          (fun size ->
            let r =
              Psc.Pool.with_pool size (fun pool ->
                  Util.run ~pool Ps_models.Models.jacobi inputs)
            in
            let d =
              Util.max_diff
                (List.assoc "newA" r0.Psc.Exec.outputs)
                (List.assoc "newA" r.Psc.Exec.outputs)
                [ (0, m + 1); (0, m + 1) ]
            in
            Alcotest.(check bool) "bit equal" true (d = 0.0))
          [ 2; 3; 5 ]);
    t "parallel matmul is deterministic" (fun () ->
        let n = 16 in
        let a = Ps_models.Models.square_input n in
        let b = Ps_models.Models.square_input n in
        let ins = [ ("A", a); ("B", b); ("N", Psc.Exec.scalar_int n) ] in
        let r0 = Util.run Ps_models.Models.matmul ins in
        let r1 =
          Psc.Pool.with_pool 4 (fun pool -> Util.run ~pool Ps_models.Models.matmul ins)
        in
        let d =
          Util.max_diff
            (List.assoc "C" r0.Psc.Exec.outputs)
            (List.assoc "C" r1.Psc.Exec.outputs)
            [ (1, n); (1, n) ]
        in
        Alcotest.(check bool) "bit equal" true (d = 0.0)) ]

(* The paper's three executed kernels at the benchmark's sizes (Jacobi
   and the transformed Seidel at M = 64, maxK = 40; the transformed LCS at
   N = 512), sequential with bounds checks on, as `psc run` runs them.
   The closure compiler must keep an evaluation free of allocation: the
   bound covers the whole run, set-up (compilation, slab allocation)
   included, which is a few hundredths of a word per evaluation here.
   The evaluation counts pin the schedules: the work is unchanged. *)
let alloc_case name ?target ~sink_trim src inputs ~evaluations ~max_words =
  t (Printf.sprintf "%s allocates under %g words per evaluation" name max_words)
    (fun () ->
      let tp = Psc.load_string src in
      let tp, mname =
        match target with
        | None -> (tp, None)
        | Some target ->
          let tp, tr = Psc.hyperplane ~target tp in
          (tp, Some tr.Psc.Transform.tr_module.Psc.Ast.m_name)
      in
      let em = Psc.the_module ?name:mname tp in
      let sc = Psc.schedule ~sink:sink_trim ~trim:sink_trim em in
      let run stats =
        Psc.Exec.run
          ~opts:
            { Psc.Exec.default_opts with
              collect_stats = stats;
              sched_flags =
                { Psc.Exec.no_sched_flags with sf_sink = sink_trim; sf_trim = sink_trim } }
          ~flowchart:sc.Psc.sc_flowchart ~windows:sc.Psc.sc_windows ~prog:tp.Psc.prog em
          ~inputs
      in
      let evals = Option.get (run true).Psc.Exec.evaluations in
      Alcotest.(check int) "evaluations" evaluations evals;
      let w0 = Gc.minor_words () in
      ignore (run false);
      let per_eval = (Gc.minor_words () -. w0) /. float_of_int evals in
      if per_eval >= max_words then
        Alcotest.failf "%s: %.3f minor words per evaluation (bound %g)" name per_eval
          max_words)

let alloc_tests =
  let relax = Ps_models.Models.relaxation_inputs ~m:64 ~maxk:40 in
  let n = 512 in
  let str k = Psc.Exec.array_int ~dims:[ (1, n) ] (fun ix -> (ix.(0) * k) mod 4) in
  let lcs_inputs = [ ("X", str 7); ("Y", str 5); ("N", Psc.Exec.scalar_int n) ] in
  [ alloc_case "fig6" ~sink_trim:false Ps_models.Models.jacobi relax ~evaluations:178596
      ~max_words:1.0;
    alloc_case "h3" ~target:"A" ~sink_trim:true Ps_models.Models.seidel relax
      ~evaluations:178596 ~max_words:0.25;
    alloc_case "lcs" ~target:"L" ~sink_trim:true Ps_models.Models.lcs lcs_inputs
      ~evaluations:263170 ~max_words:0.1 ]

(* Rows: an innermost loop over one real equation runs a row at a time,
   cut where a guard may change and checked at each segment's two ends
   ([Compile.compile_store_real]).  Each case is a row's edge, checked
   against closed-form values, against the emitted C where a compiler
   is installed, or, for a trap, against the message a point-by-point
   run raised, pinned as text. *)
let c_agrees ~scalars src =
  let r =
    Ps_fuzz.Diff.check_source ~paths:[ Ps_fuzz.Diff.Seq; Ps_fuzz.Diff.Cc ] ~scalars src
  in
  Alcotest.(check (option string)) "C oracle" None r.Ps_fuzz.Diff.cr_verdict

let same_bits msg x y =
  if Int64.bits_of_float x <> Int64.bits_of_float y then
    Alcotest.failf "%s: %h <> %h" msg x y

let grid n = Psc.Exec.array_real ~dims:[ (0, n); (0, n) ] (fun ix -> fill ((ix.(0) * (n + 1)) + ix.(1)))

let row_tests =
  [ t "a read leaving its range at a row's last point traps with that point's message"
      (fun () ->
        (* Row I = 0 is the first to leave: its second read reaches
           X[0, 6] at J = 5, while the first and third stay in range. *)
        let src =
          {|
Edge: module (X: array [0 .. N, 0 .. N] of real; N: int): [Y: array [0 .. N, 0 .. N] of real];
type I, J = 0 .. N;
define
  Y[I, J] = (X[I, J] + X[I, J + I + 1] + X[I + 1, J]) / 3;
end Edge;
|}
        in
        match Util.run src [ ("X", grid 5); ("N", Psc.Exec.scalar_int 5) ] with
        | exception Psc.Error m ->
          Alcotest.(check string) "message"
            "subscript out of bounds: X: subscript 2 = 6 outside 0..5" m
        | _ -> Alcotest.fail "expected a trap");
    t "an = guard that holds at one interior point takes its branch there only" (fun () ->
        let src =
          {|
Spike: module (X: array [0 .. N, 0 .. N] of real; N: int): [Y: array [0 .. N, 0 .. N] of real];
type I, J = 0 .. N;
define
  Y[I, J] = if J = I + 1 then 1.0 else X[I, J] / 2;
end Spike;
|}
        in
        let n = 9 in
        let r = Util.run src [ ("X", grid n); ("N", Psc.Exec.scalar_int n) ] in
        for i = 0 to n do
          for j = 0 to n do
            let expected = if j = i + 1 then 1.0 else fill ((i * (n + 1)) + j) /. 2. in
            same_bits (Printf.sprintf "Y[%d, %d]" i j) expected (Util.output_real r "Y" [| i; j |])
          done
        done;
        c_agrees ~scalars:[ ("N", n) ] src);
    t "a windowed dimension indexed by the innermost loop runs point by point" (fun () ->
        (* S keeps a 2-plane window along I, its only dimension, so its
           store has no row form. *)
        let src =
          {|
WinRow: module (X: array [1 .. N] of real; N: int): [s: real];
type I = 2 .. N;
var S: array [1 .. N] of real;
define
  S[1] = X[1];
  S[I] = S[I - 1] + X[I];
  s = S[N];
end WinRow;
|}
        in
        let n = 40 in
        let x = Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> fill ix.(0)) in
        let r = Util.run src [ ("X", x); ("N", Psc.Exec.scalar_int n) ] in
        Alcotest.(check int) "window" 2 (List.assoc "S" r.Psc.Exec.allocated);
        let sum = ref (fill 1) in
        for i = 2 to n do
          sum := !sum +. fill i
        done;
        same_bits "s" !sum (Util.output_real r "s" [||]);
        c_agrees ~scalars:[ ("N", n) ] src);
    t "a read stepping backwards, and empty rows" (fun () ->
        let src =
          {|
Rev: module (V: array [0 .. N] of real; N: int; L: int):
  [Y: array [0 .. N] of real; Z: array [0 .. N, 1 .. L] of real];
type I = 0 .. N; J = 1 .. L;
define
  Y[I] = V[N - I] * 2.0;
  Z[I, J] = V[I] + V[J];
end Rev;
|}
        in
        let n = 6 in
        let v = Psc.Exec.array_real ~dims:[ (0, n) ] (fun ix -> fill ix.(0)) in
        List.iter
          (fun l ->
            let r =
              Util.run src
                [ ("V", v); ("N", Psc.Exec.scalar_int n); ("L", Psc.Exec.scalar_int l) ]
            in
            for i = 0 to n do
              same_bits "Y" (fill (n - i) *. 2.0) (Util.output_real r "Y" [| i |]);
              for j = 1 to l do
                same_bits "Z" (fill i +. fill j) (Util.output_real r "Z" [| i; j |])
              done
            done;
            Alcotest.(check int) "Z words" ((n + 1) * l) (List.assoc "Z" r.Psc.Exec.allocated);
            c_agrees ~scalars:[ ("N", n); ("L", l) ] src)
          [ 0; 3 ]) ]

let validation_tests =
  [ t "missing input is diagnosed" (fun () ->
        Util.expect_error ~substring:"missing input" (fun () ->
            Util.run Ps_models.Models.jacobi
              [ ("M", Psc.Exec.scalar_int m); ("maxK", Psc.Exec.scalar_int maxk) ]));
    t "wrong array shape is diagnosed" (fun () ->
        Util.expect_error ~substring:"dimension" (fun () ->
            Util.run Ps_models.Models.jacobi
              [ ("InitialA", Ps_models.Models.grid_input (m + 5));
                ("M", Psc.Exec.scalar_int m);
                ("maxK", Psc.Exec.scalar_int maxk) ]));
    t "out-of-bounds subscript is caught at run time" (fun () ->
        let src =
          {|
Oops: module (X: array[0 .. N] of real; N: int): [Y: array[0 .. N] of real];
type
  I = 0 .. N;
define
  Y[I] = X[I + 1];
end Oops;
|}
        in
        let n = 5 in
        let x = Psc.Exec.array_real ~dims:[ (0, n) ] (fun ix -> float_of_int ix.(0)) in
        Util.expect_error ~substring:"outside" (fun () ->
            Util.run src [ ("X", x); ("N", Psc.Exec.scalar_int n) ]));
    t "unknown input name is diagnosed" (fun () ->
        Util.expect_error (fun () ->
            Util.run Ps_models.Models.jacobi
              (("bogus", Psc.Exec.scalar_int 1) :: inputs)));
    t "an array input of the wrong element kind is diagnosed" (fun () ->
        (* LCS declares X an int array: reals given for it must stop the
           run, not be computed with in an int array. *)
        let n = 8 in
        let x = Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> float_of_int (ix.(0) mod 4)) in
        let y = Psc.Exec.array_int ~dims:[ (1, n) ] (fun ix -> ix.(0) mod 3) in
        Util.expect_error ~substring:"input X" (fun () ->
            Util.run Ps_models.Models.lcs [ ("X", x); ("Y", y); ("N", Psc.Exec.scalar_int n) ]));
    t "a scalar input of the wrong kind or shape is diagnosed" (fun () ->
        (* b is declared bool: an int given for it is a runtime error that
           names the input, not an exception from the store. *)
        let src =
          "B: module (b: bool; N: int): [s: int]; define s = if b then N else \
           0; end B;"
        in
        let n = Psc.Exec.scalar_int 3 in
        Util.expect_error ~substring:"input b: 1 given but bool declared" (fun () ->
            Util.run src [ ("b", Psc.Exec.scalar_int 1); ("N", n) ]);
        Alcotest.(check int) "bool given" 3
          (Util.output_int (Util.run src [ ("b", Psc.Exec.scalar_bool true); ("N", n) ]) "s" [||]);
        Util.expect_error ~substring:"input InitialA: expected" (fun () ->
            Util.run Ps_models.Models.jacobi
              (("InitialA", Psc.Exec.scalar_real 1.0) :: List.remove_assoc "InitialA" inputs))) ]

let () =
  Alcotest.run "exec"
    [ ("models vs native", model_tests);
      ("module calls", call_tests);
      ("windows", window_tests);
      ("parallel", parallel_tests);
      ("allocation", alloc_tests);
      ("rows", row_tests);
      ("validation", validation_tests) ]
