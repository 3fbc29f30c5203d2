(** Static lints over a module and its dependency graph.

    Reported through {!Ps_diag.Diag} with stable codes:

    - [W110] a data item (parameter or local) is never read;
    - [W111] an equation feeds only unused data;
    - [E020] a subscript provably escapes the declared bounds of a
      dimension for some iteration — decided symbolically with
      {!Ps_sem.Linexpr}, refining index ranges through [if] guards such
      as the boundary tests of the paper's Relaxation module;
    - [W112] a recursively indexed dimension stays fully allocated, with
      the reason virtualization (paper §3.4) fails — a forward
      reference, a non-affine subscript, an outside read of other than
      the final plane, a write that would clobber the window, the
      at-most-one-window rule, or a DOGROUP upgrade;
    - [W113] the basic scheduling algorithm cannot order the module (the
      hyperplane transformation of §4 may apply);
    - [W115] a subscript demoted to [Opaque] that the symbolic distance
      solver could classify (the inferred linear form is in the
      message) — a guard against classifier drift;
    - [W116] an inspector/executor schedule whose runtime distance test
      the declared ranges already decide, so the partition could be
      static;
    - [W120] a DOALL fork candidate ({!Ps_sched.Policy.index}) has a
      constant trip count below the runtime pool's wake threshold, so it
      runs effectively sequentially.

    All lints are advisory except [E020]; none alter the pipeline. *)

val usage : Ps_graph.Dgraph.t -> Ps_diag.Diag.t list
(** Unused data items ([W110]) and dead equations ([W111]). *)

val subscripts : Ps_sem.Elab.emodule -> Ps_diag.Diag.t list
(** Symbolically out-of-bounds subscripts ([E020]). *)

val virtualization : Ps_sched.Schedule.result -> Ps_diag.Diag.t list
(** The scheduler's window refusals ({!Ps_sched.Schedule.refused}),
    each with the §3.4 rule it acted on ([W112]). *)

val wake_check :
  Ps_sem.Elab.emodule -> Ps_sched.Schedule.result -> Ps_diag.Diag.t list
(** DOALL fork candidates ({!Ps_sched.Policy.index}) whose constant trip
    count is below {!Ps_runtime.Pool.wake_threshold} ([W120]). *)

val opaque_classifiable : Ps_sem.Elab.emodule -> Ps_diag.Diag.t list
(** Subscripts labelled [Opaque] that are linear in exactly one equation
    index, the class the distance solver handles ([W115]). *)

val inspector_static :
  Ps_sem.Elab.emodule -> Ps_sched.Schedule.result -> Ps_diag.Diag.t list
(** Inspector loops whose distance the declared ranges already prove
    positive ([W116]). *)

val module_ : Ps_sem.Elab.emodule -> Ps_diag.Diag.t list
(** Every lint over one module: builds the graph, and schedules the
    module for the virtualization lint — an unschedulable module yields
    [W113] instead of failing. *)
