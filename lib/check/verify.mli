(** Schedule legality verification (translation validation).

    The scheduler, the fusion / trimming / sinking passes, and the
    hyperplane transformation are trusted nowhere else in the pipeline:
    this module re-derives, from the dependency graph alone, the claim
    that a flowchart may legally execute — and rejects any flowchart for
    which it cannot prove it.

    Checked, per dependence edge of the graph (paper §3.3–§4):

    - a [DOALL] dimension carries no dependence: along every shared
      parallel loop the producer and consumer iterations coincide
      (identity subscripts, distance 0);
    - a [DO] dimension carries only backward references ([I - c],
      [c >= 0]): the distance at the first iterative loop that carries
      the dependence is positive, and no loop sees a negative distance
      first (a read of a future iteration);
    - a dependence carried by no loop is satisfied by emission order:
      the producer's straight-line code precedes the consumer's;
    - every equation appears exactly once, with every index variable
      bound by an enclosing loop (or solved subscript);
    - every virtual-dimension window holds at least
      [max dependence offset + 1] planes (§3.4).

    The checks are conservative: every flowchart produced by
    [Schedule] — before or after [--sink], [--fuse], [--trim], or the
    hyperplane transformation — verifies cleanly, and any single
    corruption (a DO flipped to DOALL, a shrunk window, a reordered
    body) is reported with the offending edge, loop, and source span.
    Dependences a sinking [SOLVE] descriptor discharges dynamically are
    skipped: [Sink] proves that obligation symbolically when it fires. *)

val flowchart :
  ?windows:Ps_sched.Schedule.window list ->
  Ps_graph.Dgraph.t ->
  Ps_sched.Flowchart.t ->
  Ps_diag.Diag.t list
(** Verify a flowchart (plus its storage windows) against the dependency
    graph it was scheduled from.  Returns the violations; an empty list
    means the schedule is proved legal. *)

val transform : Ps_hyper.Transform.t -> Ps_diag.Diag.t list
(** Verify a hyperplane derivation: the time vector must satisfy every
    Lamport dependence inequality strictly ([a . d >= 1] edge-by-edge),
    and the coordinate change must be unimodular with a consistent
    inverse (paper §4). *)

val policy_table :
  ?host_cores:int ->
  Ps_sched.Policy.table ->
  Ps_sched.Flowchart.t ->
  Ps_diag.Diag.t list
(** Verify a scheduling-policy table against the flowchart it will steer:
    structural well-formedness (E025 — unknown nest key, collapse on a
    nest that heads no perfect DOALL band, a chunk floor below 1) plus, when
    [host_cores] is given, staleness (W121 — the table was tuned for a
    different core count).  Policies are advisory shape, never legality:
    the interpreter only forks nests the scheduler proved parallel and
    only flattens perfect DOALL bands, so these diagnostics protect
    measurements, not results. *)
