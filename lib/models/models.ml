(* PS source of the paper's worked examples and of additional workloads
   used by the examples, tests and benchmarks.

   [jacobi] is the Relaxation module of Fig. 1 verbatim (modulo OCR
   cleanup); [seidel] is the same module with equation 3 replaced by the
   "more standard relaxation" of §4 (equation 2 of the paper), whose
   natural schedule is fully iterative and which the hyperplane
   transformation re-parallelizes. *)

(* Fig. 1: all stencil reads from iteration K-1 -> inner DOALLs. *)
let jacobi =
  {|
(*$m+v+x+t-*)
Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
  [newA: array [I, J] of real];
type
  I, J = 0 .. M+1;
  K = 2 .. maxK;
var
  A: array [1 .. maxK] of array[I,J] of real;
  (* A denotes the succession of grids *)
define
  (*eq.1*) A[1] = InitialA;          (* the first grid is input *)
  (*eq.2*) newA = A[maxK];           (* the grid returned is from the last iteration *)
  (*eq.3*) A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                      then A[K-1,I,J]        (* carry over boundary points *)
                      else ( A[K-1,I,J-1]
                           + A[K-1,I-1,J]
                           + A[K-1,I,J+1]
                           + A[K-1,I+1,J] ) / 4;
end Relaxation;
|}

(* §4, equation 2: west/north neighbours read from the current sweep. *)
let seidel =
  {|
Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
  [newA: array [I, J] of real];
type
  I, J = 0 .. M+1;
  K = 2 .. maxK;
var
  A: array [1 .. maxK] of array[I,J] of real;
define
  A[1] = InitialA;
  newA = A[maxK];
  A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
             then A[K-1,I,J]
             else ( A[K,I,J-1]
                  + A[K,I-1,J]
                  + A[K-1,I,J+1]
                  + A[K-1,I+1,J] ) / 4;
end Relaxation;
|}

(* 1-D heat diffusion: one time axis, one space axis, DOALL inner. *)
let heat1d =
  {|
Heat1D: module (U0: array[X] of real; N: int; steps: int):
  [UT: array[X] of real];
type
  X = 0 .. N+1;
  T = 2 .. steps;
var
  U: array [1 .. steps] of array[X] of real;
define
  U[1] = U0;
  UT = U[steps];
  U[T,X] = if (X = 0) or (X = N+1)
           then U[T-1,X]
           else U[T-1,X] + 0.25 * (U[T-1,X-1] - 2.0 * U[T-1,X] + U[T-1,X+1]);
end Heat1D;
|}

(* Matrix product as a recursive accumulation: the reduction axis is the
   only iterative loop, the two result axes are DOALL. *)
let matmul =
  {|
MatMul: module (A: array[I,L] of real; B: array[L,J] of real; N: int):
  [C: array[I,J] of real];
type
  I, J = 1 .. N;
  L = 1 .. N;
  K = 1 .. N;
var
  S: array [0 .. N] of array[I,J] of real;
define
  S[0,I,J] = 0.0;
  S[K,I,J] = S[K-1,I,J] + A[I,K] * B[K,J];
  C = S[N];
end MatMul;
|}

(* Pascal's triangle: one iterative axis, one DOALL axis. *)
let binomial =
  {|
Binomial: module (N: int): [P: array[R] of int];
type
  R = 0 .. N;
  Lvl = 1 .. N;
var
  T: array [0 .. N] of array[R] of int;
define
  T[0,R] = if R = 0 then 1 else 0;
  T[Lvl,R] = if (R = 0) then 1
             else T[Lvl-1,R-1] + T[Lvl-1,R];
  P = T[N];
end Binomial;
|}

(* First-order linear recurrence: no parallel dimension at all. *)
let prefix_sum =
  {|
Prefix: module (X: array[I] of real; N: int): [S: array[I] of real];
type
  I = 1 .. N;
  I2 = 2 .. N;
var
  Acc: array [I] of real;
define
  Acc[1] = X[1];
  Acc[I2] = Acc[I2-1] + X[I2];
  S = Acc;
end Prefix;
|}

(* A program with two modules: the main one calls Relaxation for a fixed
   number of sweeps and rescales the result. *)
let two_module =
  {|
Scale: module (G: array[I,J] of real; M: int; F: real):
  [H: array[I,J] of real];
type
  I, J = 0 .. M+1;
define
  H[I,J] = F * G[I,J];
end Scale;

Driver: module (InitialA: array[I,J] of real; M: int; maxK: int):
  [Out: array[I,J] of real];
type
  I, J = 0 .. M+1;
var
  Mid: array[I,J] of real;
define
  Mid = Relaxation(InitialA, M, maxK);
  Out = Scale(Mid, M, 2.0);
end Driver;

Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
  [newA: array [I, J] of real];
type
  I, J = 0 .. M+1;
  K = 2 .. maxK;
var
  A: array [1 .. maxK] of array[I,J] of real;
define
  A[1] = InitialA;
  newA = A[maxK];
  A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
             then A[K-1,I,J]
             else ( A[K-1,I,J-1] + A[K-1,I-1,J]
                  + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
end Relaxation;
|}

(* Enumerations: classify values into buckets, then histogram them with a
   recursive count — enum elements in arrays, comparisons on enums. *)
let classify =
  {|
Classify: module (V: array[I] of real; N: int):
  [C: array[I] of Kind; nLarge: int];
type
  I = 1 .. N;
  I2 = 2 .. N;
  Kind = (Small, Medium, Large);
var
  Cnt: array [0 .. N] of int;
define
  C[I] = if V[I] < 0.3 then Small
         else if V[I] < 0.7 then Medium
         else Large;
  Cnt[0] = 0;
  Cnt[I] = Cnt[I-1] + (if C[I] = Large then 1 else 0);
  nLarge = Cnt[N];
end Classify;
|}

(* A 3-D sweep whose only valid dimension order is not the declaration
   order: the scheduler must skip dimension I (offset +1) and choose K. *)
let skewed =
  {|
Skewed: module (Init: array[I,J] of real; M: int; maxK: int):
  [Res: array[I,J] of real];
type
  I, J = 0 .. M+1;
  K = 2 .. maxK;
var
  W: array [1 .. maxK] of array[I,J] of real;
define
  W[1] = Init;
  Res = W[maxK];
  W[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
             then W[K-1,I,J]
             else 0.5 * (W[K-1,I+1,J] + W[K-1,I,J-1]);
end Skewed;
|}

(* Records with per-field equations: a particle state advanced through
   time.  Each field of S is defined by its own equation (the paper's
   record/field relationship appears as path-annotated definitions in the
   dependency graph); the time dimension still windows to two planes. *)
let particles =
  {|
Particles: module (X0: array[P] of real; V0: array[P] of real;
                   N: int; steps: int):
  [XT: array[P] of real];
type
  P = 1 .. N;
  T = 2 .. steps;
  State = record x : real; v : real end;
var
  S: array [1 .. steps] of array[P] of State;
define
  S[1, P].x = X0[P];
  S[1, P].v = V0[P];
  S[T, P].x = S[T-1, P].x + 0.1 * S[T-1, P].v;
  S[T, P].v = S[T-1, P].v * 0.99;
  XT[P] = S[steps, P].x;
end Particles;
|}

(* Longest common subsequence: a 2-D recurrence whose natural schedule is
   fully iterative (both dimensions carry dependences); the hyperplane
   method finds t = I + J and exposes anti-diagonal (wavefront)
   parallelism — a second, independent exercise of paper §4. *)
let lcs =
  {|
LCS: module (X: array[Ipos] of int; Y: array[Jpos] of int; N: int):
  [len: int];
type
  Jz = 0 .. N;
  Ipos, Jpos = 1 .. N;
var
  L: array [0 .. N, 0 .. N] of int;
define
  L[0, Jz] = 0;
  L[Ipos, 0] = 0;
  L[Ipos, Jpos] = if X[Ipos] = Y[Jpos]
                  then L[Ipos-1, Jpos-1] + 1
                  else max(L[Ipos-1, Jpos], L[Ipos, Jpos-1]);
  len = L[N, N];
end LCS;
|}

let strided_copy =
  {|
StridedCopy: module (A: array[Ipos] of real; N: int):
  [B: array [Ipos] of real];
type
  Ipos = 1 .. N;
  Init = 1 .. 2;
  Rest = 3 .. N;
var
  C: array [Ipos] of real;
define
  C[Init] = A[Init];
  C[Rest] = C[Rest - 2] + A[Rest];
  B = C;
end StridedCopy;
|}

let param_recurrence =
  {|
ParamRecurrence: module (A: array[Ipos] of real; N: int; K: int):
  [B: array [Ipos] of real];
type
  Ipos = 1 .. N;
  Init = 1 .. K;
  Rest = K + 1 .. N;
var
  C: array [Ipos] of real;
define
  C[Init] = A[Init];
  C[Rest] = C[Rest - K] + A[Rest];
  B = C;
end ParamRecurrence;
|}

(* ------------------------------------------------------------------ *)
(* Deterministic input fill shared with the generated-C harness: must
   match ps_fill in Ps_codegen.Emit.emit_main exactly. *)

let fill_value (q : int) : float =
  let x = Int64.add (Int64.mul (Int64.of_int q) 2654435761L) 12345L in
  Int64.to_float (Int64.unsigned_rem x 1000L) /. 1000.0

(* Number the points of [build]'s row-major walk ([Value.iter_box]):
   point q, counting from 0, holds [f q].  With [fill_value] this is the
   emitted main()'s input fill. *)
let numbered build ~dims f =
  let q = ref (-1) in
  build ~dims (fun _ ->
      incr q;
      f !q)

let filled dims = numbered Ps_interp.Exec.array_real ~dims fill_value

(* Standard grid input for the relaxation modules: (M+2) x (M+2). *)
let grid_input m = filled [ (0, m + 1); (0, m + 1) ]

let line_input n = filled [ (0, n + 1) ]

let square_input n = filled [ (1, n); (1, n) ]

let relaxation_inputs ~m ~maxk =
  [ ("InitialA", grid_input m);
    ("M", Ps_interp.Exec.scalar_int m);
    ("maxK", Ps_interp.Exec.scalar_int maxk) ]
