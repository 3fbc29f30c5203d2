(** The dependency graph G = (N, E) of paper §3.1.

    Nodes are the data items and equations of a module; directed edges
    run from producer to consumer. *)

type node =
  | Data of string
  | Eq of int  (** equation id, see {!Ps_sem.Elab.eq.q_id} *)

module Node : sig
  type t = node

  val compare : t -> t -> int

  val equal : t -> t -> bool
end

module NodeSet : Set.S with type elt = node

module NodeMap : Map.S with type key = node

type edge_kind =
  | Use   (** Data -> Eq: the equation reads the data *)
  | Def   (** Eq -> Data: the equation defines the data *)
  | Bound (** subrange-bound dependency (Data -> Data or Data -> Eq) *)

type edge = {
  e_src : node;
  e_dst : node;
  e_kind : edge_kind;
  e_subs : Label.sub_exp array;
      (** per-dimension subscript classes, aligned with the data
          endpoint's dimensions; empty for scalars and Bound edges *)
}

type t = {
  g_nodes : node list;  (** declaration order: data items then equations *)
  g_edges : edge list;
  g_module : Ps_sem.Elab.emodule;
}

val nodes : t -> node list

val edges : t -> edge list

val node_name : t -> node -> string
(** "A" for data, "eq.3" for equations. *)
