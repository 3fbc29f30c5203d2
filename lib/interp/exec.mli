(** Flowchart execution.

    The schedule is compiled into nested closures: DO loops run on the
    calling domain in index order; DOALL loops go to the domain pool,
    chunked, with a private frame per chunk (only the outermost DOALL of
    a nest is a fork point; its policy decision may flatten the whole
    band under it).  Compilation of each top-level component is
    deferred to just before it executes, so arrays whose bounds depend on
    computed scalar locals allocate after those scalars exist — sound by
    the scheduler's topological component order. *)

exception Runtime_error of string

type sched_flags = {
  sf_sink : bool;
  sf_fuse : bool;
  sf_trim : bool;
  sf_collapse : bool;
}
(** The transformation passes the run was asked for.  Callee modules
    reached through module-call equations are scheduled under the same
    passes. *)

val no_sched_flags : sched_flags

type opts = {
  pool : Ps_runtime.Pool.t option;  (** [None]: fully sequential *)
  use_windows : bool;               (** honor virtual-dimension windows *)
  collect_stats : bool;             (** count equation evaluations *)
  sched_flags : sched_flags;        (** passes applied to callee schedules *)
  policy : Ps_sched.Policy.table option;
      (** Per-nest schedule shapes.  With a pool, every fork point runs
          one {!Ps_sched.Policy.decision}: its entry in this table, else
          {!Ps_sched.Policy.default} (fork, steal, flatten only a band
          marked by [--collapse]).  A decision with [d_par = false]
          compiles the nest sequentially, [d_collapse] flattens the
          {!Ps_sched.Collapse.band} under the fork, and the
          chunk/steal/wake settings go to the pool per job.  Policies
          never change results. *)
}

val default_opts : opts
(** Sequential, windowed, no statistics, no policy. *)

type run_result = {
  outputs : (string * Value.value) list;  (** module results, in order *)
  allocated : (string * int) list;        (** words per data item, sorted *)
  evaluations : int option;               (** equation evaluations, if counted *)
  row_evaluations : int option;
      (** those run a row at a time ({!Compile.row}), if counted *)
}

val run :
  ?opts:opts ->
  flowchart:Ps_sched.Flowchart.t ->
  windows:Ps_sched.Schedule.window list ->
  prog:Ps_sem.Elab.eprogram ->
  Ps_sem.Elab.emodule ->
  inputs:(string * Value.value) list ->
  run_result
(** Execute a module's [flowchart] with the storage [windows] (both as
    {!Ps_sched.Passes.schedule} produced them; [[]] allocates every
    dimension in full).  [prog] supplies callee modules; each callee is
    scheduled on its first call and its schedule kept until the run
    returns, shared with the run's nested calls.  Inputs are
    validated against the declared shapes and element kinds.
    @raise Runtime_error on missing/ill-shaped inputs or evaluation
    faults; @raise Value.Bounds on a subscript outside its declared
    range. *)

(** {1 Input builders and output readers} *)

val scalar_int : int -> Value.value

val scalar_real : float -> Value.value

val scalar_bool : bool -> Value.value

val array_real : dims:(int * int) list -> (int array -> float) -> Value.value
(** [array_real ~dims f] builds an array over the inclusive bounds
    [dims], filling each point from [f] in {!Value.iter_box} order. *)

val array_int : dims:(int * int) list -> (int array -> int) -> Value.value

val read_real : Value.value -> int array -> float

val read_int : Value.value -> int array -> int
