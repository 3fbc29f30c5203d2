(* The dependency graph G = (N, E) of paper §3.1.

   Nodes are the data items and the equations of a module.  A directed
   edge runs from producer to consumer: from every variable used in an
   equation's right-hand side to the equation, from the equation to the
   variable it defines, and from every variable appearing in a subrange
   bound to each data item whose extent depends on it. *)

type node =
  | Data of string
  | Eq of int

module Node = struct
  type t = node

  let compare (a : t) (b : t) =
    match a, b with
    | Data x, Data y -> String.compare x y
    | Eq x, Eq y -> Int.compare x y
    | Data _, Eq _ -> -1
    | Eq _, Data _ -> 1

  let equal a b = compare a b = 0
end

module NodeSet = Set.Make (Node)
module NodeMap = Map.Make (Node)

type edge_kind =
  | Use   (* Data -> Eq: the equation reads the data *)
  | Def   (* Eq -> Data: the equation defines the data *)
  | Bound (* Data -> Data or Data -> Eq: subrange-bound dependency *)

type edge = {
  e_src : node;
  e_dst : node;
  e_kind : edge_kind;
  e_subs : Label.sub_exp array;
      (* Per-dimension subscript classes, aligned with the dimensions of
         the data endpoint ([e_src] for Use, [e_dst] for Def); empty for
         scalars and Bound edges. *)
}

type t = {
  g_nodes : node list;          (* declaration order: datas then equations *)
  g_edges : edge list;
  g_module : Ps_sem.Elab.emodule;
}

let nodes g = g.g_nodes

let edges g = g.g_edges

let node_name g = function
  | Data d -> d
  | Eq id -> (Ps_sem.Elab.eq_exn g.g_module id).Ps_sem.Elab.q_name
