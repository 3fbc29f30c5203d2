(** Renderers for dependency graphs: an ASCII listing (the textual
    equivalent of Fig. 3) and Graphviz DOT. *)

val listing : Dgraph.t -> string
(** Nodes with their dimensions, edges with their labels. *)

val to_dot : Dgraph.t -> string
(** Graphviz source: ellipses for data, boxes for equations, dashed
    edges for bound dependencies. *)
