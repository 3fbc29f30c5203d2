(* Renderers for dependency graphs: an ASCII listing of nodes and labelled
   edges (the textual equivalent of Fig. 3) and Graphviz DOT output. *)

open Dgraph

let kind_str = function Use -> "use" | Def -> "def" | Bound -> "bound"

let pp_subs ppf subs =
  if Array.length subs > 0 then
    Fmt.pf ppf " [%a]"
      (Fmt.array ~sep:(Fmt.any ", ") Label.pp)
      subs

let pp_edge g ppf e =
  Fmt.pf ppf "%s -> %s (%s)%a" (node_name g e.e_src) (node_name g e.e_dst)
    (kind_str e.e_kind) pp_subs e.e_subs

let pp_listing ppf (g : t) =
  let em = g.g_module in
  Fmt.pf ppf "@[<v>Dependency graph for module %s@," em.Ps_sem.Elab.em_name;
  Fmt.pf ppf "Nodes:@,";
  List.iter
    (fun n ->
      match n with
      | Data d ->
        let data = Ps_sem.Elab.data_exn em d in
        let dims = Ps_sem.Stypes.dims data.Ps_sem.Elab.d_ty in
        if dims = [] then Fmt.pf ppf "  %s (scalar)@," d
        else
          Fmt.pf ppf "  %s (dims: %a)@," d
            (Fmt.list ~sep:(Fmt.any ", ")
               (fun ppf (sr : Ps_sem.Stypes.subrange) ->
                 Fmt.string ppf sr.Ps_sem.Stypes.sr_name))
            dims
      | Eq id ->
        let q = Ps_sem.Elab.eq_exn em id in
        Fmt.pf ppf "  %s (indices: %a)@," q.Ps_sem.Elab.q_name
          (Fmt.list ~sep:(Fmt.any ", ")
             (fun ppf (ix : Ps_sem.Elab.index) -> Fmt.string ppf ix.Ps_sem.Elab.ix_var))
          q.Ps_sem.Elab.q_indices)
    g.g_nodes;
  Fmt.pf ppf "Edges:@,";
  List.iter (fun e -> Fmt.pf ppf "  %a@," (pp_edge g) e) g.g_edges;
  Fmt.pf ppf "@]"

let listing g = Fmt.str "%a" pp_listing g

let dot_escape s =
  String.map (fun c -> if c = '"' then '\'' else c) s

let to_dot (g : t) =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph %s {\n" (dot_escape g.g_module.Ps_sem.Elab.em_name);
  pf "  rankdir=TB;\n";
  List.iter
    (fun n ->
      match n with
      | Data d -> pf "  \"%s\" [shape=ellipse];\n" (dot_escape d)
      | Eq id ->
        pf "  \"%s\" [shape=box];\n" (dot_escape (node_name g (Eq id))))
    g.g_nodes;
  List.iter
    (fun e ->
      let label =
        if Array.length e.e_subs = 0 then
          match e.e_kind with Bound -> "bound" | _ -> ""
        else
          String.concat ", "
            (Array.to_list (Array.map Label.to_string e.e_subs))
      in
      let style = match e.e_kind with Bound -> " style=dashed" | Use | Def -> "" in
      pf "  \"%s\" -> \"%s\" [label=\"%s\"%s];\n"
        (dot_escape (node_name g e.e_src))
        (dot_escape (node_name g e.e_dst))
        (dot_escape label) style)
    g.g_edges;
  pf "}\n";
  Buffer.contents buf
