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

val module_ : Ps_sem.Elab.emodule -> Ps_diag.Diag.t list
(** Every lint over one module: builds the graph, and schedules the
    module for the virtualization lint — an unschedulable module yields
    [W113] instead of failing. *)
