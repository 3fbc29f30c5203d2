(** DOALL nest collapsing.

    A perfectly nested DOALL band — a DOALL whose body is exactly one
    descriptor, itself a DOALL — may be flattened into one combined
    iteration space.  Legality per axis is the DOALL guarantee the
    scheduler already established (dependence distance zero across every
    axis of the band).  Whether a band is flattened is a per-nest policy
    decision; the marks set here ({!Flowchart.loop.lp_collapse}) give
    the no-table default and the C collapse clause.  {!Verify} checks
    that marks sit only on perfect pairs. *)

val band : Flowchart.loop -> Flowchart.loop list
(** The perfect DOALL band headed at a loop, outermost first: the loop,
    then, while the current loop is DOALL with exactly one DOALL loop as
    its body, that loop.  The interpreter, the cost model and the
    emitter all size a band by this. *)

val collapsible : Flowchart.loop -> bool
(** The loop heads a band of at least two loops. *)

val mark : Flowchart.t -> Flowchart.t
(** Mark every collapsible band head, bottom-up; a depth-[k] perfect
    DOALL nest gets [k-1] marks (each non-innermost header). *)

val count : Flowchart.t -> int
(** Number of collapse marks present. *)
