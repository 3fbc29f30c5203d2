(** The scheduling algorithm of paper §3.3 with the virtual-dimension
    analysis of §3.4.

    [Schedule-Graph] concatenates, in topological order, the flowcharts
    of the graph's maximal strongly connected components;
    [Schedule-Component] picks an unscheduled dimension whose subscripts
    are all of class "I" or "I - constant" in a consistent position,
    deletes the "I - constant" edges, emits a DO loop if any were deleted
    and a DOALL otherwise, and recurses on the remaining subgraph.

    When a loop that carries a dependence (a DO) is scheduled, a local
    array's dimension under it is marked virtual — allocated as a window
    instead of its full extent — by {!window}.  A DOALL dimension is
    never windowed: its iterations run at once, so no plane can be
    reused.  At most one dimension per array is windowed (the outermost
    scheduled one): a second window is unsound for references like
    [L[I-1, J]] that need the previous outer plane's full inner extent.
    Every dimension so examined and left fully allocated is recorded
    with its reason in [r_refusals].

    When step 3 rejects every dimension, a symbolic fallback solves the
    aligned [Affine]/[Linear] subscript pairs for dependence distances
    ({!Ps_graph.Distance}): all-independent distances give a DOALL,
    exact distances with gcd [g >= 2] a group-partitioned
    [DOGROUP(g)] (the residue classes mod [g] are mutually
    independent), and a single parameter-form distance [d] over scalar
    inputs an inspector/executor [DOINSPECT(d)] whose legality test
    [d >= 1] runs at loop entry.  A basic-path DO whose carried
    distances share a modulus [g >= 2] is likewise upgraded to
    [DOGROUP(g)]. *)

exception Unschedulable of { reason : string; component : string list }
(** Step 2a: no dimension qualifies and the component has several nodes.
    The hyperplane transformation (§4) may still apply. *)

type window = {
  w_data : string;
  w_dim : int;   (** 0-based dimension position *)
  w_size : int;  (** planes to allocate *)
}

(** Why §3.4 leaves a dimension fully allocated.  An edge is the
    access that broke the rule. *)
type refusal =
  | One_window of int
      (** the array already has a window, on this (outer) dimension *)
  | Grouped of int
      (** the loop runs as [DOGROUP(g)], whose residue classes do not
          reuse planes in sweep order *)
  | Read_inside of Ps_graph.Dgraph.edge
      (** rule 1: a read from inside is not "I" or "I - constant" *)
  | Read_outside of Ps_graph.Dgraph.edge
      (** rule 2: a read from outside is not the final plane *)
  | Write_inside of Ps_graph.Dgraph.edge
      (** a write from inside does not march with the loop *)
  | Write_outside of Ps_graph.Dgraph.edge
      (** a write from outside is not a boundary plane within the
          startup window *)

type refused = {
  rf_data : string;
  rf_dim : int;  (** 0-based dimension position *)
  rf_why : refusal;
}

type component_trace = {
  ct_nodes : string list;
  ct_flowchart : Flowchart.t;
}
(** One row of the paper's Fig. 5: an outermost MSCC and its flowchart. *)

type result = {
  r_flowchart : Flowchart.t;
  r_windows : window list;
  r_refusals : refused list;
      (** the dimensions §3.4 examined and refused, in scheduling order *)
  r_components : component_trace list;
  r_graph : Ps_graph.Dgraph.t;
}

val schedule : Ps_sem.Elab.emodule -> result
(** Build the dependency graph and schedule it.
    @raise Unschedulable per step 2a. *)

val schedule_graph_of : Ps_graph.Dgraph.t -> result
(** Schedule an already-built graph. *)

val window :
  Ps_graph.Dgraph.t ->
  inside:int list ->
  ?exempt:int ->
  string ->
  int ->
  (int, refusal) Stdlib.result
(** [window g ~inside d p] applies §3.4 to dimension [p] of array [d]:
    the number of planes to allocate, or the first rule that fails.
    [inside] lists the equations of the loop's component; [exempt] is
    an equation whose reads are already accounted for (a sunk
    extraction).  Precondition: the loop scanning [p] carries a
    dependence (a DO) — the function does not check the loop kind.
    - Reads: from inside, "I" or "I - c" (rule 1; the window is the
      largest [c] plus one); from outside, only the final plane
      (rule 2).
    - Writes: from inside, the producing write at offset 0; from
      outside, a boundary plane within the startup window. *)
