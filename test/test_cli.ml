(* End-to-end tests of the psc command-line driver: every subcommand is
   invoked as a subprocess on real files and its output inspected. *)

let t name f = Alcotest.test_case name `Quick f

let psc_exe = Util.psc_exe

let with_source ?(suffix = ".ps") src f =
  let file = Filename.temp_file "psc_cli" suffix in
  let oc = open_out file in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let run_cli args =
  let out = Filename.temp_file "psc_out" ".txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" psc_exe args out in
  let rc = Sys.command cmd in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (rc, text)

let expect_ok args checks =
  let rc, text = run_cli args in
  if rc <> 0 then Alcotest.failf "psc %s exited %d:\n%s" args rc text;
  List.iter
    (fun needle ->
      if not (Util.contains text needle) then
        Alcotest.failf "psc %s: output lacks %S:\n%s" args needle text)
    checks

let expect_fail args checks =
  let rc, text = run_cli args in
  if rc = 0 then Alcotest.failf "psc %s unexpectedly succeeded" args;
  List.iter
    (fun needle ->
      if not (Util.contains text needle) then
        Alcotest.failf "psc %s: error lacks %S:\n%s" args needle text)
    checks

(* Exactly exit code [rc], with [needle] in the output. *)
let expect_exit rc args needle =
  let got, text = run_cli args in
  if got <> rc || not (Util.contains text needle) then
    Alcotest.failf "psc %s: exit %d (want %d), output lacks %S?\n%s" args got
      rc needle text

(* What the emitted main() for [f] prints under [inputs] ("-i N=4"),
   built with cc and the fuzzer's C-oracle flags. *)
let c_harness inputs f =
  let rc, c = run_cli (Printf.sprintf "emit-c --main %s %s" inputs f) in
  Alcotest.(check int) "emit-c exit" 0 rc;
  with_source ~suffix:".c" c (fun cfile ->
      let exe = Filename.remove_extension cfile in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists exe then Sys.remove exe)
        (fun () ->
          Alcotest.(check int) "cc" 0
            (Sys.command
               (Printf.sprintf "cc -O1 -ffp-contract=off -o %s %s -lm" exe cfile));
          let ic = Unix.open_process_in exe in
          let out = In_channel.input_all ic in
          ignore (Unix.close_process_in ic);
          out))

let cli_tests =
  [ t "parse round-trips Fig. 1" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("parse " ^ f) [ "Relaxation: module"; "end Relaxation;" ]));
    t "check reports module statistics" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("check " ^ f) [ "module Relaxation: 3 equations, 1 locals" ]));
    t "lint is quiet on a clean module" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            let rc, text = run_cli ("lint " ^ f) in
            Alcotest.(check int) "exit 0" 0 rc;
            Alcotest.(check string) "no output" "" (String.trim text)));
    t "lint reports stable codes in text" (fun () ->
        with_source
          "T: module (x: real; u: real): [y: real]; define y = x; end T;"
          (fun f ->
            expect_ok ("lint " ^ f)
              [ "warning[W110]"; "u is never used"; "1 warning" ]));
    t "lint --json emits a JSON array" (fun () ->
        with_source
          "T: module (x: real; u: real): [y: real]; define y = x; end T;"
          (fun f ->
            expect_ok ("lint --json " ^ f)
              [ {|"code":"W110"|}; {|"severity":"warning"|} ]));
    t "lint --werror turns warnings into failure" (fun () ->
        with_source
          "T: module (x: real; u: real): [y: real]; define y = x; end T;"
          (fun f -> expect_fail ("lint --werror " ^ f) [ "warning[W110]" ]));
    t "check exits non-zero on an error diagnostic" (fun () ->
        with_source
          "T: module (x: real): [y: real]; var z: real; define y = x; end T;"
          (fun f -> expect_fail ("check " ^ f) [ "error[E001]"; "never defined" ]));
    t "schedule --verify-schedule accepts the pipeline" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("schedule --verify-schedule --sink --fuse --trim " ^ f)
              [ "schedule verified" ]));
    t "transform --verify-schedule validates the derivation" (fun () ->
        with_source Ps_models.Models.seidel (fun f ->
            expect_ok ("transform --verify-schedule --target A " ^ f)
              [ "hyperplane derivation verified"; "schedule verified" ]));
    t "graph lists the paper's edges" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("graph " ^ f) [ "A -> eq.3 (use) [K - 1, I, J - 1]" ]));
    t "graph --dot emits graphviz" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("graph --dot " ^ f) [ "digraph Relaxation" ]));
    t "schedule prints Fig. 6 and the window" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("schedule " ^ f)
              [ "DO K ("; "DOALL I ("; "A: dimension 1 is virtual, window = 2" ]));
    t "schedule --compact prints one line" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok
              ("schedule --compact " ^ f)
              [ "DO K (DOALL I (DOALL J (eq.3)))" ]));
    t "transform prints the sec. 4 derivation" (fun () ->
        with_source Ps_models.Models.seidel (fun f ->
            expect_ok
              ("transform --target A " ^ f)
              [ "Least solution: a = (2, 1, 1)"; "Kp = 2K + I + J";
                "window = 3" ]));
    t "emit-c produces annotated C" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok ("emit-c " ^ f)
              [ "void Relaxation"; "/* DOALL (concurrent) */";
                "/* DO (iterative) */" ]));
    t "run prints checksums and storage" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok
              ("run -i M=12 -i maxK=8 " ^ f)
              [ "newA checksum ="; "--- storage ---"; "A: 392 words" ]));
    t "run --no-windows allocates every plane" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok
              ("run --no-windows -i M=12 -i maxK=8 " ^ f)
              [ "A: 1568 words" ]));
    t "run --par matches the sequential checksum" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            let _, seq = run_cli ("run -i M=12 -i maxK=8 " ^ f) in
            let _, par = run_cli ("run --par 3 -i M=12 -i maxK=8 " ^ f) in
            let checksum text =
              String.split_on_char '\n' text
              |> List.find (fun l -> Util.contains l "checksum")
            in
            Alcotest.(check string) "same checksum" (checksum seq) (checksum par)));
    t "analyze reports parallelism" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_ok
              ("analyze -i M=12 -i maxK=8 " ^ f)
              [ "work        = 1764"; "parallelism = 196.00" ]));
    t "missing scalar input is diagnosed" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            expect_fail ("run -i M=12 " ^ f) [ "missing --input maxK" ]));
    t "syntax errors carry a location" (fun () ->
        with_source "R: module (x int): [y: int]; define y = x; end R;"
          (fun f -> expect_fail ("parse " ^ f) [ "syntax error"; "line 1" ]));
    t "unschedulable program suggests the transformation" (fun () ->
        with_source
          {|
C: module (N: int): [y: real];
type
  I = 1 .. N;
var
  A: array [0 .. N+1] of real;
define
  A[I] = A[I-1] + A[I+1];
  A[0] = 0.0;
  A[N+1] = 0.0;
  y = A[1];
end C;
|}
          (fun f ->
            expect_fail ("schedule " ^ f)
              [ "cannot be scheduled"; "hyperplane" ]));
    t "eqn translates equation notation" (fun () ->
        with_source
          "f(X[i], N) -> Y[i]\nwhere i = 1 .. N\nY_{i} = X_{i} * 2.0"
          (fun f ->
            expect_ok ("eqn " ^ f)
              [ "f: module (X : array [i] of real"; "DOALL i (" ]));
    t "eqn --ps prints only the module" (fun () ->
        with_source
          "f(X[i], N) -> Y[i]\nwhere i = 1 .. N\nY_{i} = X_{i} * 2.0"
          (fun f ->
            let rc, text = run_cli ("eqn --ps " ^ f) in
            Alcotest.(check int) "exit 0" 0 rc;
            Alcotest.(check bool) "no schedule" true
              (not (Util.contains text "DOALL"))));
    t "demo regenerates every figure" (fun () ->
        expect_ok "demo"
          [ "=== Fig. 1"; "=== Fig. 3"; "=== Fig. 5"; "=== Fig. 6"; "=== Fig. 7";
            "Least solution: a = (2, 1, 1)";
            "Ap: dimension 1 is virtual, window = 3" ]);
    t "fuzz smoke: a short interpreter-only campaign agrees" (fun () ->
        expect_ok "fuzz --seed 7 --count 5 --paths seq,nowin,steal,collapse"
          [ "fuzz: 5 cases, 5 agreed, 0 mismatches" ]);
    t "fuzz rejects an unknown path" (fun () ->
        expect_fail "fuzz --seed 1 --count 1 --paths warp" [ "unknown path" ]);
    t "traced schedule writes exactly one valid trace" (fun () ->
        (* Regression: the trace used to be flushed both by Fun.protect
           and an at_exit hook, appending two JSON objects. *)
        with_source Ps_models.Models.jacobi (fun f ->
            let tr = Filename.temp_file "psc_trace" ".json" in
            Fun.protect
              ~finally:(fun () -> if Sys.file_exists tr then Sys.remove tr)
              (fun () ->
                expect_ok (Printf.sprintf "schedule --trace %s %s" tr f) [];
                let ic = open_in tr in
                let text = really_input_string ic (in_channel_length ic) in
                close_in ic;
                let count_substring s sub =
                  let rec go i acc =
                    if i + String.length sub > String.length s then acc
                    else if String.sub s i (String.length sub) = sub then
                      go (i + 1) (acc + 1)
                    else go (i + 1) acc
                  in
                  go 0 0
                in
                Alcotest.(check int) "one trace object" 1
                  (count_substring text "\"traceEvents\"");
                expect_ok ("trace-check " ^ tr) [])));
    t "run without any scalar input names the first one" (fun () ->
        (* Array bounds are evaluated over the scalars, so an absent one
           is reported before any bound is computed. *)
        expect_exit 1 ("run " ^ Util.example "relaxation.ps")
          "missing --input M=INT");
    t "a policy file with a malformed number is E025" (fun () ->
        with_source Ps_models.Models.jacobi (fun f ->
            with_source ~suffix:".json"
              {|{"policy":1,"source":"static","host_cores":-,"nests":[]}|}
              (fun p ->
                expect_exit 1
                  (Printf.sprintf "run -i M=4 -i maxK=2 --policy-file %s %s" p f)
                  "error[E025]")));
    t "run refuses --policy static with a --policy-file" (fun () ->
        (* The static model would ignore the table, so the pair is a
           usage error, not a silent choice. *)
        with_source Ps_models.Models.jacobi (fun f ->
            with_source ~suffix:".json"
              {|{"policy":1,"source":"static","host_cores":1,"nests":[]}|}
              (fun p ->
                expect_exit 2
                  (Printf.sprintf
                     "run -i M=4 -i maxK=2 --policy static --policy-file %s %s" p f)
                  "exclude each other")));
    t "trace-check calls a malformed number an invalid trace" (fun () ->
        with_source ~suffix:".json"
          {|{"traceEvents":[{"name":"x","ph":"B","ts":1e,"pid":1,"tid":1}]}|}
          (fun f -> expect_exit 1 ("trace-check " ^ f) "invalid trace"));
    t "run fills an int array input as the emitted main() does" (fun () ->
        (* Regression: run filled every array input with reals, so X held
           the fill's fractions and s came out 2.  The C harness casts
           them to 0, and the server's run answers 0 too. *)
        with_source
          {|
S: module (X: array[I] of int; N: int): [s: int];
type I = 1 .. N; J = 0 .. N;
var P: array [J] of int;
define P[0] = 0; P[I] = P[I-1] + X[I] * 2; s = P[N];
end S;
|}
          (fun f ->
            expect_ok ("run -i N=4 " ^ f) [ "s = 0" ];
            with_source ~suffix:".json"
              (Printf.sprintf {|{"id":1,"op":"run","source_file":%s,"scalars":{"N":4}}|}
                 (Psc.Json.str f))
              (fun req ->
                expect_ok ("serve --stdio < " ^ req)
                  [ {|"outputs":[{"name":"s","kind":"scalar","elem":"int","value":"0"}]|} ]);
            if Lazy.force Ps_fuzz.Diff.have_cc then
              Alcotest.(check string) "C harness" "s 0\n" (c_harness "-i N=4" f)));
    t "run, tune and run --tune report a subscript out of range" (fun () ->
        (* The tuner's replays check subscripts as run does; unchecked,
           this read escaped its array and killed the process. *)
        with_source Util.out_of_range_src (fun f ->
            List.iter
              (fun cmd ->
                expect_exit 1 (Printf.sprintf "%s -i N=4 %s" cmd f)
                  Util.out_of_range_error)
              [ "run"; "tune"; "run --tune" ]));
    t "an input shaped by a local is a located semantic error" (fun () ->
        (* Inputs are shaped before any equation runs.  Regression: run
           died on an uncaught exception, the server answered it under
           id null without the trace_id, and emit-c printed C that
           named an undeclared n. *)
        with_source
          "S: module (N: int; X: array [I] of real): [s: real]; type I = 1 .. \
           n; var n: int; define n = N * 2; s = X[1]; end S;"
          (fun f ->
            let msg =
              "semantic error: the bounds of input X name n, which is not an \
               input (line 1"
            in
            expect_exit 1 ("run -i N=3 " ^ f) msg;
            expect_exit 1 ("emit-c " ^ f) msg;
            with_source ~suffix:".json"
              (Printf.sprintf
                 {|{"id":7,"op":"run","source_file":%s,"scalars":{"N":3},"trace_id":"tb-7"}|}
                 (Psc.Json.str f))
              (fun req ->
                expect_ok ("serve --stdio < " ^ req)
                  [ {|"trace_id":"tb-7","id":7,"ok":false|}; msg ])));
    t "run seeds a bool scalar input as the emitted main() does" (fun () ->
        (* The C harness declares b an int and tests its truth value;
           run and the server must seed it the same way, and the server's
           answer must carry the request's id and trace_id. *)
        with_source
          "B: module (b: bool; N: int): [s: int]; define s = if b then N else \
           0; end B;"
          (fun f ->
            expect_ok ("run -i N=3 -i b=1 " ^ f) [ "s = 3" ];
            with_source ~suffix:".json"
              (Printf.sprintf
                 {|{"id":7,"op":"run","source_file":%s,"scalars":{"N":3,"b":1},"trace_id":"tb-7"}|}
                 (Psc.Json.str f))
              (fun req ->
                expect_ok ("serve --stdio < " ^ req)
                  [ {|"trace_id":"tb-7","id":7,"ok":true|};
                    {|"outputs":[{"name":"s","kind":"scalar","elem":"int","value":"3"}]|} ]);
            if Lazy.force Ps_fuzz.Diff.have_cc then
              Alcotest.(check string) "C harness" "s 3\n"
                (c_harness "-i N=3 -i b=1" f)));
    t "fuzz --replay of a missing directory reports it as run does" (fun () ->
        (* Regression: an uncaught Sys_error from the directory test,
           exit 125. *)
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "psc_no_such_corpus" in
        expect_exit 1 ("fuzz --replay " ^ dir) ("psc: " ^ dir ^ ": No such file or directory"));
    t "fuzz --replay of a missing file reports it as run does" (fun () ->
        let f = Filename.concat (Filename.get_temp_dir_name ()) "psc_no_such_entry.ps" in
        expect_exit 1 ("fuzz --replay " ^ f) ("psc: " ^ f ^ ": No such file or directory");
        expect_exit 1 ("run " ^ f) ("psc: " ^ f ^ ": No such file or directory")) ]

let () = Alcotest.run "cli" [ ("cli", cli_tests) ]
