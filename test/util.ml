(* Shared helpers for the test suites. *)

let load = Psc.load_string

let first t = Psc.default_module t

(* Schedule a source string and return the compact flowchart. *)
let compact_schedule ?(sink = false) src =
  let t = load src in
  let em = first t in
  let sc = Psc.schedule ~sink em in
  Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart

let windows_of ?(sink = false) src =
  let t = load src in
  let sc = Psc.schedule ~sink (first t) in
  List.map
    (fun (w : Psc.Schedule.window) ->
      (w.Psc.Schedule.w_data, w.Psc.Schedule.w_dim, w.Psc.Schedule.w_size))
    sc.Psc.sc_windows

(* Run a module and return the outputs. *)
let run ?pool ?sink ?fuse ?trim ?collapse ?use_windows ?stats ?name src inputs =
  let t = load src in
  Psc.run ?pool ?sink ?fuse ?trim ?collapse ?use_windows ?stats ?name t ~inputs

let output_real r name idx =
  Psc.Exec.read_real (List.assoc name r.Psc.Exec.outputs) idx

let output_int r name idx =
  Psc.Exec.read_int (List.assoc name r.Psc.Exec.outputs) idx

(* Maximum absolute difference between two real array outputs over the
   given index box (inclusive bounds per dimension). *)
let max_diff out1 out2 (box : (int * int) list) =
  let n = List.length box in
  let idx = Array.make n 0 in
  let worst = ref 0.0 in
  let rec go p =
    if p = n then begin
      let d =
        abs_float (Psc.Exec.read_real out1 idx -. Psc.Exec.read_real out2 idx)
      in
      if d > !worst then worst := d
    end
    else
      let lo, hi = List.nth box p in
      for v = lo to hi do
        idx.(p) <- v;
        go (p + 1)
      done
  in
  go 0;
  !worst

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Assert that [f ()] raises a [Psc.Error] whose message contains
   [substring]. *)
let expect_error ?(substring = "") f =
  match f () with
  | exception Psc.Error m ->
    if substring <> "" && not (contains m substring) then
      Alcotest.failf "error %S does not mention %S" m substring
  | _ -> Alcotest.fail "expected Psc.Error"

(* A read far outside its array's declared range, under [-i N=4]: every
   execution path, the tuner's replays included, must report it. *)
let out_of_range_src =
  "S: module (N: int): [s: real]; type I = 1 .. N; var A: array [I] of real; \
   define A[I] = 1.0; s = A[N + 5000000]; end S;"

let out_of_range_error =
  "subscript out of bounds: A: subscript 1 = 5000004 outside 1..4"

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let checkf ?(eps = 1e-12) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: %.17g <> %.17g" msg a b

(* --- subprocesses and the JSON they answer ------------------------------ *)

let field k j =
  match Psc.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let num = function Psc.Json.Num f -> f | _ -> Alcotest.fail "expected a number"

let str = function Psc.Json.Str s -> s | _ -> Alcotest.fail "expected a string"

let bool_ = function Psc.Json.Bool b -> b | _ -> Alcotest.fail "expected a bool"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Tests run from _build/default/test, by hand from the repo root: a
   built executable or an example found from either. *)
let built dir name =
  let path root = Printf.sprintf "%s%s/%s" root dir name in
  match List.find_opt Sys.file_exists (List.map path [ "_build/default/"; "../"; "./" ]) with
  | Some p -> p
  | None -> Printf.sprintf "dune exec %s/%s --" dir name

let psc_exe = built "bin" "psc_main.exe"

let example name =
  List.find Sys.file_exists [ "../examples/ps/" ^ name; "examples/ps/" ^ name ]

let corpus name = List.find Sys.file_exists [ "corpus/" ^ name; "test/corpus/" ^ name ]

(* A recurrence along J under a DOALL over I, as in
   test/corpus/doall_window.ps: a window on dimension I would be one
   plane shared by every concurrent I. *)
let doall_window =
  {|
W: module (M: int; N: int): [r: real];
type I = 1 .. M; J = 1 .. N;
var A: array [I, J] of real;
define
  A[I, J] = if J = 1 then I * 1.0 else A[I, J-1] + 1.0;
  r = A[M, N];
end W;
|}
