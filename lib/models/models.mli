(** PS source of the paper's worked examples and additional workloads,
    shared by the CLI demo, the examples, the tests and the benchmark
    harness. *)

val jacobi : string
(** Fig. 1 verbatim: Jacobi-style relaxation — every stencil read from
    iteration K-1.  Schedules to Fig. 6; A's first dimension windows to
    2 planes. *)

val seidel : string
(** §4's "more standard relaxation": west/north neighbours read from the
    current sweep.  Schedules to the fully iterative Fig. 7; the
    hyperplane transformation re-parallelizes it. *)

val heat1d : string
(** 1-D heat diffusion: one time axis (DO), one space axis (DOALL). *)

val matmul : string
(** Matrix product as a recursive accumulation: the reduction axis is
    the only iterative loop. *)

val binomial : string
(** Pascal's triangle: one iterative level axis, one DOALL row axis. *)

val prefix_sum : string
(** First-order linear recurrence: no parallel dimension at all. *)

val two_module : string
(** Three modules: a Driver calling Relaxation and Scale — whole-array
    module-call equations. *)

val classify : string
(** Enumerations: classify reals into buckets, count one bucket with a
    recursive accumulator; a multi-result module. *)

val particles : string
(** Record states advanced through time, one equation per field
    ([S[T,P].x = ...]); the time dimension still windows to 2 planes. *)

val lcs : string
(** Longest common subsequence: a 2-D recurrence carrying dependences in
    both dimensions; the hyperplane method finds t = I + J (anti-diagonal
    wavefronts). *)

val skewed : string
(** A stencil whose reads mix I+1 / J-1 offsets but stay on iteration
    K-1: still a DOALL nest under an iterative K. *)

val strided_copy : string
(** A constant stride-2 recurrence [C[Rest] = C[Rest - 2] + ...]: the
    symbolic distance analysis schedules it as DOGROUP(2), two
    independent residue classes (mirrors examples/ps/strided_copy.ps). *)

val param_recurrence : string
(** A parameter-stride recurrence [C[Rest] = C[Rest - K] + ...]:
    schedules as DOINSPECT(K) — the runtime inspector checks K >= 1 and
    partitions into K residue classes (mirrors
    examples/ps/param_recurrence.ps). *)

(** {1 Deterministic inputs} *)

val fill_value : int -> float
(** The LCG fill shared bit-for-bit with the generated-C harness
    ({!Ps_codegen.Emit.emit_main}): flat index to a value in [0, 1). *)

val numbered :
  (dims:(int * int) list -> (int array -> 'a) -> Ps_interp.Value.value) ->
  dims:(int * int) list ->
  (int -> 'a) ->
  Ps_interp.Value.value
(** [numbered build ~dims f] builds an array over the inclusive bounds
    [dims] with [build] ({!Ps_interp.Exec.array_real} or
    {!Ps_interp.Exec.array_int}) whose [q]th point in row-major order
    ({!Ps_interp.Value.iter_box}), counting from 0, holds [f q].
    [numbered Exec.array_real ~dims fill_value] is the emitted main()'s
    input fill. *)

val grid_input : int -> Ps_interp.Value.value
(** [(M+2) x (M+2)] real grid over [0 .. M+1], filled as the emitted
    main() fills it. *)

val line_input : int -> Ps_interp.Value.value
(** [0 .. N+1] real line, filled likewise. *)

val square_input : int -> Ps_interp.Value.value
(** [1..N x 1..N] real matrix, filled likewise. *)

val relaxation_inputs : m:int -> maxk:int -> (string * Ps_interp.Value.value) list
(** The full input binding for {!jacobi} / {!seidel}. *)
