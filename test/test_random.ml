(* Differential fuzzing over randomly generated PS recurrences.

   Programs are 1-D stencil sweeps over a time axis with randomized
   coefficients, offsets, boundary handling, and an optional same-sweep
   (west) reference that forces the space loop iterative.  Each generated
   program is pushed through the whole pipeline and its executions
   compared pairwise:

   - windowed store vs full allocation (bit-equal),
   - domain-pool DOALL execution vs sequential (bit-equal),
   - fused schedule vs plain (bit-equal),
   - runtime evaluation count vs the analytic work,
   - when the program is fully iterative: the hyperplane-transformed
     module (with sinking and trimming) vs the original (bit-equal).

   No independent oracle is needed: disagreement between any two paths
   is a bug in one of them. *)

let t name f = Alcotest.test_case name `Quick f

type stencil = {
  west : float option;   (* A[S, X-1]: same sweep -> DO X *)
  prev_c : float;        (* A[S-1, X] *)
  prev_w : float option; (* A[S-1, X-1] *)
  prev_e : float option; (* A[S-1, X+1] *)
  bias : float;
  n : int;
  steps : int;
}

let gen_stencil : stencil QCheck.Gen.t =
  let open QCheck.Gen in
  let coeff = float_range 0.05 0.45 in
  let* west = opt coeff in
  let* prev_c = coeff in
  let* prev_w = opt coeff in
  let* prev_e = opt coeff in
  let* bias = float_range (-0.2) 0.2 in
  let* n = int_range 3 24 in
  let* steps = int_range 2 12 in
  return { west; prev_c; prev_w; prev_e; bias; n; steps }

let source_of (s : stencil) : string =
  let term c ref_ = Printf.sprintf "%.3f * %s" c ref_ in
  let terms =
    List.filter_map Fun.id
      [ Option.map (fun c -> term c "A[S, X-1]") s.west;
        Some (term s.prev_c "A[S-1, X]");
        Option.map (fun c -> term c "A[S-1, X-1]") s.prev_w;
        Option.map (fun c -> term c "A[S-1, X+1]") s.prev_e ]
  in
  Printf.sprintf
    {|
R: module (Init: array[X] of real; N: int; T: int): [Out: array[X] of real];
type
  X = 0 .. N+1;
  S = 2 .. T;
var
  A: array [1 .. T] of array[X] of real;
define
  A[1] = Init;
  Out = A[T];
  A[S,X] = if (X = 0) or (X = N+1)
           then A[S-1,X]
           else %s + %.3f;
end R;
|}
    (String.concat " + " terms)
    s.bias

let scalars_of (s : stencil) = [ ("N", s.n); ("T", s.steps) ]

(* The inputs the emitted main() builds. *)
let inputs_of tp (s : stencil) =
  Psc.default_inputs (Psc.default_module tp) ~scalars:(scalars_of s)

let out_box (s : stencil) = [ (0, s.n + 1) ]

let arb_stencil =
  QCheck.make gen_stencil ~print:(fun s -> source_of s)

let bit_equal s r1 r2 =
  Util.max_diff
    (List.assoc "Out" r1.Psc.Exec.outputs)
    (List.assoc "Out" r2.Psc.Exec.outputs)
    (out_box s)
  = 0.0

let schedule_shape_prop =
  QCheck.Test.make ~count:150 ~name:"space loop kind follows the west reference"
    arb_stencil (fun s ->
      let tp = Psc.load_string (source_of s) in
      let sc = Psc.schedule (Psc.default_module tp) in
      let compact =
        Psc.Flowchart.to_compact_string (Psc.default_module tp) sc.Psc.sc_flowchart
      in
      match s.west with
      | Some _ -> Util.contains compact "DO S (DO X (eq.3))"
      | None -> Util.contains compact "DO S (DOALL X (eq.3))")

let window_prop =
  QCheck.Test.make ~count:120 ~name:"windowed equals full allocation"
    arb_stencil (fun s ->
      let tp = Psc.load_string (source_of s) in
      let inputs = inputs_of tp s in
      let r1 = Psc.run ~use_windows:true tp ~inputs in
      let r2 = Psc.run ~use_windows:false tp ~inputs in
      List.assoc "A" r1.Psc.Exec.allocated = 2 * (s.n + 2)
      && bit_equal s r1 r2)

let parallel_prop =
  QCheck.Test.make ~count:40 ~name:"pool execution equals sequential"
    arb_stencil (fun s ->
      let tp = Psc.load_string (source_of s) in
      let inputs = inputs_of tp s in
      let r1 = Psc.run tp ~inputs in
      let r2 = Psc.Pool.with_pool 3 (fun pool -> Psc.run ~pool tp ~inputs) in
      bit_equal s r1 r2)

let fuse_prop =
  QCheck.Test.make ~count:120 ~name:"fused schedule equals plain"
    arb_stencil (fun s ->
      let tp = Psc.load_string (source_of s) in
      let inputs = inputs_of tp s in
      let r1 = Psc.run tp ~inputs in
      let r2 = Psc.run ~fuse:true tp ~inputs in
      bit_equal s r1 r2)

let work_prop =
  QCheck.Test.make ~count:120 ~name:"runtime evaluations equal analytic work"
    arb_stencil (fun s ->
      let tp = Psc.load_string (source_of s) in
      let r = Psc.run ~stats:true tp ~inputs:(inputs_of tp s) in
      let c = Psc.work_span tp ~env:(scalars_of s) in
      Option.get r.Psc.Exec.evaluations = int_of_float c.Psc.Analysis.work)

let hyperplane_prop =
  QCheck.Test.make ~count:60
    ~name:"hyperplane + sink + trim preserves iterative stencils" arb_stencil
    (fun s ->
      (* Force a same-sweep reference so the transform is meaningful. *)
      let s = { s with west = Some (Option.value s.west ~default:0.25) } in
      let tp = Psc.load_string (source_of s) in
      let inputs = inputs_of tp s in
      match Psc.hyperplane ~target:"A" tp with
      | exception Psc.Error _ -> QCheck.assume_fail ()
      | tp', tr ->
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let r1 = Psc.run tp ~inputs in
        let r2 = Psc.run ~name ~sink:true ~trim:true tp' ~inputs in
        bit_equal s r1 r2)

(* Generated C vs interpreter, on random programs (small count: each case
   costs a compiler invocation).  Without a C compiler the C path skips. *)
let c_differential_prop =
  QCheck.Test.make ~count:8 ~name:"generated C equals the interpreter"
    arb_stencil (fun s ->
      let r =
        Ps_fuzz.Diff.check_source ~pool_size:1
          ~paths:[ Ps_fuzz.Diff.Seq; Ps_fuzz.Diff.Cc ]
          ~scalars:(scalars_of s) (source_of s)
      in
      r.Ps_fuzz.Diff.cr_verdict = None)

(* A couple of deterministic deep cases kept out of qcheck so failures
   stay reproducible in CI logs. *)
let pinned_cases =
  [ t "west-only stencil (pure carried dependence in X)" (fun () ->
        let s =
          { west = Some 0.4; prev_c = 0.3; prev_w = None; prev_e = None;
            bias = 0.05; n = 12; steps = 8 }
        in
        let tp = Psc.load_string (source_of s) in
        let inputs = inputs_of tp s in
        let r1 = Psc.run tp ~inputs in
        let tp', tr = Psc.hyperplane ~target:"A" tp in
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let r2 = Psc.run ~name ~sink:true ~trim:true tp' ~inputs in
        Alcotest.(check bool) "equal" true (bit_equal s r1 r2));
    t "full stencil with every term" (fun () ->
        let s =
          { west = Some 0.2; prev_c = 0.2; prev_w = Some 0.2; prev_e = Some 0.2;
            bias = -0.1; n = 20; steps = 10 }
        in
        let tp = Psc.load_string (source_of s) in
        let inputs = inputs_of tp s in
        let r1 = Psc.run ~use_windows:true tp ~inputs in
        let r2 = Psc.run ~use_windows:false ~fuse:true tp ~inputs in
        Alcotest.(check bool) "equal" true (bit_equal s r1 r2)) ]

let () =
  Alcotest.run "random"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ schedule_shape_prop; window_prop; parallel_prop; fuse_prop;
           work_prop; hyperplane_prop; c_differential_prop ]);
      ("pinned", pinned_cases) ]
