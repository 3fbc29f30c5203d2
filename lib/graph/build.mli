(** Dependency-graph construction from an elaborated module (paper §3.1;
    Fig. 3 is the result for the Relaxation module). *)

val build : Ps_sem.Elab.emodule -> Dgraph.t
(** Build the graph: a Use edge per array reference (with classified
    subscripts), a Def edge per left-hand side, and Bound edges from
    every variable occurring in a subrange bound to the data items and
    equations whose extents depend on it.  Scalar Use edges and Bound
    edges are deduplicated. *)

val collect_refs :
  Ps_sem.Elab.emodule ->
  Ps_lang.Ast.expr ->
  (string * Ps_lang.Ast.expr list) list ->
  (string * Ps_lang.Ast.expr list) list
(** Accumulate every data reference in an expression (bare variables are
    references with no subscripts; subscript expressions are searched
    too; the latest reference comes first).  The one reading of an
    expression's references: the graph's Use edges come from it, and
    [Sink], [Ineq] and lint W115 filter it. *)
