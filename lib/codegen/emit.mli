(** C code generation (paper §1: "a compiler which generates C code").

    Emission is driven by the flowchart: subrange descriptors become for
    loops annotated [/* DO (iterative) */] or [/* DOALL (concurrent) */]
    (every fork candidate, {!Ps_sched.Policy.index}, also gets an OpenMP
    pragma), node descriptors become assignments.  Virtual dimensions
    allocate their window and subscript through [% window] (§3.4).

    Unsupported constructs (module calls, record types) raise
    {!Unsupported}; enumerations become [#define]d integers. *)

exception Unsupported of string

val emit_module :
  ?windows:Ps_sched.Schedule.window list ->
  Ps_sem.Elab.emodule ->
  Ps_sched.Flowchart.t ->
  string
(** The kernel: a C function taking inputs (const pointers / scalars)
    and result out-parameters, allocating windowed locals internally. *)

val emit_main :
  ?windows:Ps_sched.Schedule.window list ->
  Ps_sem.Elab.emodule ->
  Ps_sched.Flowchart.t ->
  scalars:(string * int) list ->
  string
(** The kernel plus a [main] that fills array inputs with the
    deterministic generator shared with
    {!Ps_models.Models.fill_value} and prints one checksum line per
    result — the basis of the C-vs-interpreter differential tests.
    @raise Unsupported if a scalar input has no value in [scalars]. *)

val c_name : string -> string
(** Identifier sanitation (C keywords get a [ps_] prefix). *)
