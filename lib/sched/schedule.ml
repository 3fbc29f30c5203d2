(* The scheduling algorithm of paper §3.3.

   Two mutually recursive procedures:

   - [Schedule-Graph] takes a (sub)graph, finds its maximal strongly
     connected components, and concatenates the flowcharts of the
     components in topological order.

   - [Schedule-Component] schedules one MSCC: it picks an unscheduled
     dimension whose subrange appears in a consistent position in every
     node of the component and whose subscript expressions are all of
     class "I" or "I - constant" (step 3); deletes the "I - constant"
     edges (step 4), which is sound because a reference to A[I - c] reads
     a value produced c iterations earlier; emits an iterative loop if any
     edge was deleted and a parallel loop otherwise (step 6); and recurses
     on the remaining subgraph (step 7).

   Virtual-dimension analysis (§3.4) runs at the moment a loop that
   carries a dependence is scheduled: a local array's scheduled
   dimension is virtual — allocated as a small window instead of its
   full extent — when every use is either an I/I-const reference from
   inside the component or an upper-bound reference from outside, and
   no write would clobber the window.  Each refusal is recorded with
   its reason, which is what W112 reports. *)

open Ps_sem
open Ps_graph
open Ps_graph.Dgraph

exception Unschedulable of { reason : string; component : string list }

type window = {
  w_data : string;
  w_dim : int;   (* 0-based dimension position *)
  w_size : int;  (* number of planes to allocate *)
}

type refusal =
  | One_window of int
  | Grouped of int
  | Read_inside of Dgraph.edge
  | Read_outside of Dgraph.edge
  | Write_inside of Dgraph.edge
  | Write_outside of Dgraph.edge

type refused = { rf_data : string; rf_dim : int; rf_why : refusal }

type component_trace = {
  ct_nodes : string list;
  ct_flowchart : Flowchart.t;
}

type result = {
  r_flowchart : Flowchart.t;
  r_windows : window list;
  r_refusals : refused list;
  r_components : component_trace list;  (* outermost MSCCs, as in Fig. 5 *)
  r_graph : Dgraph.t;
}

(* ------------------------------------------------------------------ *)

type state = {
  st_graph : Dgraph.t;
  st_em : Elab.emodule;
  (* Index variables already consumed by enclosing loops, per equation. *)
  st_scheduled : (int, string list) Hashtbl.t;
  (* Loop-variable renamings accumulated per equation. *)
  st_aliases : (int, (string * string) list) Hashtbl.t;
  st_windows : window list ref;
  st_refusals : refused list ref;
}

let scheduled st id = try Hashtbl.find st.st_scheduled id with Not_found -> []

let mark_scheduled st id v =
  Hashtbl.replace st.st_scheduled id (v :: scheduled st id)

let add_alias st id ~from ~to_ =
  if not (String.equal from to_) then
    Hashtbl.replace st.st_aliases id
      ((from, to_) :: (try Hashtbl.find st.st_aliases id with Not_found -> []))

let unscheduled_indices st (q : Elab.eq) =
  let done_ = scheduled st q.Elab.q_id in
  List.filter (fun ix -> not (List.mem ix.Elab.ix_var done_)) q.Elab.q_indices

let eq_ids_of_component (c : Scc.component) =
  List.filter_map (function Eq id -> Some id | Data _ -> None) c.Scc.c_nodes

let data_of_component (c : Scc.component) =
  List.filter_map (function Data d -> Some d | Eq _ -> None) c.Scc.c_nodes

let component_names st (c : Scc.component) =
  List.map (Dgraph.node_name st.st_graph) c.Scc.c_nodes

(* ------------------------------------------------------------------ *)
(* Candidate dimension validation (step 3). *)

type chosen = {
  ch_subrange : string;                  (* subrange (type) name *)
  ch_loop_var : string;                  (* canonical loop variable *)
  ch_range : Stypes.subrange;
  ch_eq_vars : (int * string) list;      (* per-equation index variable *)
  ch_data_pos : (string * int) list;     (* aligned dimension per data node *)
}

(* Find, for data node [d], the dimension position aligned with the chosen
   index variables, using the intra-component Def edges.  The symbolic
   path ([~symbolic:true]) also aligns on [Label.Linear] defs — strided
   or parameter-shifted writes the distance analyzer can solve over. *)
let aligned_position ~symbolic (c : Scc.component) eq_vars d =
  let positions =
    List.filter_map
      (fun e ->
        match e.e_kind, e.e_src, e.e_dst with
        | Def, Eq q, Data d' when String.equal d d' -> (
          match List.assoc_opt q eq_vars with
          | None -> None
          | Some v ->
            let pos = ref None in
            Array.iteri
              (fun i sub ->
                match sub with
                | Label.Affine { var; _ } when String.equal var v -> pos := Some i
                | Label.Linear { var; _ } when symbolic && String.equal var v ->
                  pos := Some i
                | _ -> ())
              e.e_subs;
            (match !pos with None -> Some (Error ()) | Some p -> Some (Ok p)))
        | _ -> None)
      c.Scc.c_edges
  in
  (* Every defining equation must index [d] by the chosen variable, and
     all at the same position. *)
  let rec collapse acc = function
    | [] -> acc
    | Error () :: _ -> None
    | Ok p :: rest -> (
      match acc with
      | None -> None
      | Some None -> collapse (Some (Some p)) rest
      | Some (Some p') -> if p = p' then collapse acc rest else None)
  in
  match collapse (Some None) positions with
  | Some (Some p) -> Some p
  | Some None | None -> None

(* Subrange [s] for component [c] before any use is checked: each
   equation's one unscheduled index over [s], and the aligned dimension
   of every data node in the component; [None] if an equation has no
   such index or several, or a data node does not align. *)
let align_candidate ~symbolic st (c : Scc.component) (s : string) : chosen option =
  let eq_vars =
    List.map
      (fun id ->
        let q = Elab.eq_exn st.st_em id in
        let matching =
          List.filter
            (fun ix -> String.equal ix.Elab.ix_range.Stypes.sr_name s)
            (unscheduled_indices st q)
        in
        (id, matching))
      (eq_ids_of_component c)
  in
  if List.exists (fun (_, m) -> List.length m <> 1) eq_vars then None
  else
    let eq_vars = List.map (fun (id, m) -> (id, (List.hd m).Elab.ix_var)) eq_vars in
    let id0, v0 = List.hd eq_vars in
    let range =
      (List.find
         (fun ix -> String.equal ix.Elab.ix_range.Stypes.sr_name s)
         (Elab.eq_exn st.st_em id0).Elab.q_indices)
        .Elab.ix_range
    in
    let rec align acc = function
      | [] ->
        Some
          { ch_subrange = s;
            ch_loop_var = v0;
            ch_range = range;
            ch_eq_vars = eq_vars;
            ch_data_pos = List.rev acc }
      | d :: rest -> (
        match aligned_position ~symbolic c eq_vars d with
        | Some p -> align ((d, p) :: acc) rest
        | None -> None)
    in
    align [] (data_of_component c)

(* Try to choose subrange [s] for component [c]; [None] if the paper's
   step-3 conditions fail. *)
let try_candidate st (c : Scc.component) (s : string) : chosen option =
  match align_candidate ~symbolic:false st c s with
  | None -> None
  | Some ch ->
    (* Step 3: every intra-component use must be "I" or "I - constant"
       in this dimension. *)
    let ok =
      List.for_all
        (fun e ->
          match e.e_kind, e.e_src, e.e_dst with
          | Use, Data d, Eq q -> (
            match List.assoc_opt d ch.ch_data_pos with
            | None -> true (* data without the dimension: not constrained *)
            | Some p -> (
              let v = List.assoc q ch.ch_eq_vars in
              match e.e_subs.(p) with
              | Label.Affine { var; offset; _ } ->
                String.equal var v && offset <= 0
              | Label.Linear _ (* the symbolic fallback's class *)
              | Label.Const_low | Label.Const_mid _ | Label.Const_high
              | Label.Slice | Label.Opaque -> false))
          | _ -> true)
        c.Scc.c_edges
    in
    if ok then Some ch else None

(* ------------------------------------------------------------------ *)
(* Symbolic candidate validation: the distance-analysis fallback tried
   when step 3 rejects every dimension.  Subscripts may be in either
   aligned class (Affine or Linear); per-dimension dependence distances
   decide both which edges are carried (deletable) and the loop flavor:

   - every distance independent or 0        -> DOALL;
   - exact distances with gcd g >= 2        -> DOGROUP(g), the residue
     classes mod g are mutually independent (Kale-Patil grouping);
   - exact distances with gcd 1             -> DO;
   - one parameter form d over scalar inputs -> DOINSPECT(d), a runtime
     inspector tests d >= 1 before running the d groups;
   - anything unknown, negative, or mixed   -> reject the candidate. *)

(* Aligned def labels of data node [d] at dimension [p], from the
   intra-component Def edges. *)
let defs_at (c : Scc.component) d p =
  List.filter_map
    (fun e ->
      match e.e_kind, e.e_src, e.e_dst with
      | Def, Eq _, Data d' when String.equal d d' -> (
        match e.e_subs.(p) with
        | (Label.Affine _ | Label.Linear _) as l -> Some l
        | _ -> None)
      | _ -> None)
    c.Scc.c_edges

(* Is every variable of the form a scalar int module parameter?  The
   inspector must be evaluable at loop entry from the inputs alone. *)
let input_scalar_form st (l : Linexpr.t) =
  List.for_all
    (fun (v, _) ->
      match Elab.find_data st.st_em v with
      | Some { Elab.d_kind = Elab.Input; d_ty = Stypes.Scalar Stypes.Sint; _ } ->
        true
      | _ -> false)
    l.Linexpr.terms

let try_candidate_symbolic st (c : Scc.component) (s : string) :
    (chosen * Flowchart.loop_kind * Dgraph.edge list) option =
  match align_candidate ~symbolic:true st c s with
  | None -> None
  | Some ch -> (
    let bounds = Distance.bounds_of_subrange ch.ch_range in
    let assumptions =
      Distance.facts (List.map snd st.st_em.Elab.em_subranges)
    in
    let exception Reject in
    try
      let all = ref [] in
      let deleted = ref [] in
      List.iter
        (fun e ->
          match e.e_kind, e.e_src, e.e_dst with
          | Use, Data d, Eq q -> (
            match List.assoc_opt d ch.ch_data_pos with
            | None -> () (* data without the dimension: not constrained *)
            | Some p ->
              let v = List.assoc q ch.ch_eq_vars in
              let use = e.e_subs.(p) in
              (match Label.linear_parts use with
               | Some (uv, _, _, _) when String.equal uv v -> ()
               | _ -> raise Reject);
              let ds =
                List.map
                  (fun def -> Distance.solve ?bounds ~assumptions ~def ~use ())
                  (defs_at c d p)
              in
              if ds = [] then raise Reject;
              List.iter
                (function
                  | Distance.Exact k when k < 0 -> raise Reject
                  | Distance.Unknown -> raise Reject
                  | _ -> ())
                ds;
              all := ds @ !all;
              (* Carried (deletable) iff no same-iteration dependence
                 remains on this edge. *)
              if not (List.mem (Distance.Exact 0) ds) then
                deleted := e :: !deleted)
          | _ -> ())
        c.Scc.c_edges;
      let exacts =
        List.filter_map
          (function Distance.Exact k when k <> 0 -> Some k | _ -> None)
          !all
      in
      let forms =
        List.filter_map (function Distance.Form l -> Some l | _ -> None) !all
      in
      let kind =
        match forms, exacts with
        | [], [] -> Flowchart.Parallel
        | [], ks ->
          let g = List.fold_left Distance.gcd 0 ks in
          if g >= 2 then Flowchart.Grouped g else Flowchart.Iterative
        | f0 :: rest, [] ->
          if List.for_all (Linexpr.equal f0) rest && input_scalar_form st f0
          then Flowchart.Inspected (Linexpr.to_expr f0)
          else raise Reject
        | _ :: _, _ :: _ ->
          (* Mixing constant and parameter distances: no single runtime
             modulus makes both partitions line up. *)
          raise Reject
      in
      Some (ch, kind, !deleted)
    with Reject -> None)

(* When the basic path schedules an iterative loop, the gcd of the
   carried (deleted-edge) distances may still partition the iterations:
   gcd g >= 2 upgrades DO to DOGROUP(g).  [None] unless every carried
   distance is an exact positive constant, every kept dependence is
   distance 0, and the gcd reaches 2. *)
let basic_group_modulus (c : Scc.component) (ch : chosen) deleted =
  let exception No in
  try
    let g = ref 0 in
    List.iter
      (fun e ->
        match e.e_kind, e.e_src, e.e_dst with
        | Use, Data d, Eq _ -> (
          match List.assoc_opt d ch.ch_data_pos with
          | None -> ()
          | Some p ->
            let carried = List.memq e deleted in
            List.iter
              (fun def ->
                match Distance.solve ~def ~use:e.e_subs.(p) () with
                | Distance.Exact 0 -> if carried then raise No
                | Distance.Exact k when carried && k > 0 ->
                  g := Distance.gcd !g k
                | Distance.Independent -> ()
                | _ -> raise No)
              (defs_at c d p))
        | _ -> ())
      c.Scc.c_edges;
    if !g >= 2 then Some !g else None
  with No -> None

(* Candidate subranges in first-appearance order over the component's
   equations ("pick an unscheduled node dimension", step 2). *)
let candidates st (c : Scc.component) =
  let eqs = eq_ids_of_component c in
  let names =
    List.concat_map
      (fun id ->
        List.map
          (fun ix -> ix.Elab.ix_range.Stypes.sr_name)
          (unscheduled_indices st (Elab.eq_exn st.st_em id)))
      eqs
  in
  let rec uniq seen = function
    | [] -> []
    | x :: rest ->
      if List.mem x seen then uniq seen rest else x :: uniq (x :: seen) rest
  in
  uniq [] names

(* ------------------------------------------------------------------ *)
(* Virtual-dimension analysis (§3.4).

   [window] is the one statement of the rule, shared with [Sink].  It
   applies to a dimension whose loop carries a dependence (a DO): a
   DOALL runs its planes at once, so every iteration needs its own.
   Reads come first: rule 1, an I/I-const reference from inside, or
   rule 2, the final plane read from outside.  Then the write side:
   with [window] planes a slot is reused every [window] iterations, so
   a write is safe only as the producing write itself (offset 0,
   inside, marching with the loop) or as a boundary plane from outside
   within the startup window: planes [lo .. lo + window - 1] are read
   back at most [window - 1] iterations later, before their slots come
   round again.  Any other write (an LCS-style base column L[I, 0],
   say, a DOALL in another component sweeping the dimension) would be
   overwritten before its readers run. *)

let window (g : Dgraph.t) ~inside ?exempt d p : (int, refusal) Stdlib.result =
  let exception Refused of refusal in
  let exempt q = match exempt with Some x -> x = q | None -> false in
  try
    let max_back = ref 0 in
    List.iter
      (fun e ->
        match e.e_kind, e.e_src, e.e_dst with
        | Use, Data d', Eq q when String.equal d d' && not (exempt q) -> (
          let inside = List.mem q inside in
          match e.e_subs.(p), inside with
          | Label.Affine { offset; _ }, true when offset <= 0 ->
            if -offset > !max_back then max_back := -offset
          | Label.Const_high, false -> ()
          | _ -> raise (Refused (if inside then Read_inside e else Read_outside e)))
        | _ -> ())
      (Dgraph.edges g);
    let window = !max_back + 1 in
    List.iter
      (fun e ->
        match e.e_kind, e.e_dst with
        | Def, Data d' when String.equal d d' -> (
          let inside = match e.e_src with Eq q -> List.mem q inside | Data _ -> false in
          match e.e_subs.(p), inside with
          | Label.Affine { offset = 0; _ }, true | Label.Const_low, false -> ()
          | Label.Const_mid k, false when k < window -> ()
          | _ -> raise (Refused (if inside then Write_inside e else Write_outside e)))
        | _ -> ())
      (Dgraph.edges g);
    Ok window
  with Refused r -> Error r

(* Run when the basic path schedules a loop that carries a dependence.
   At most one dimension per array is windowed: windowing a second,
   inner dimension is unsound — a reference such as L[I-1, J] (previous
   outer plane, same inner position) needs the previous plane's full
   inner extent, which a second window would have partially
   overwritten.  The paper's worked example never windows two
   dimensions (the spatial ones are disqualified by their I+1
   subscripts), so §3.4 does not address the interaction; we keep the
   outermost window only.  A loop upgraded to DOGROUP keeps no window:
   residue classes do not reuse planes in sweep order. *)
let analyze_virtual st (c : Scc.component) (ch : chosen) kind =
  let inside = eq_ids_of_component c in
  List.iter
    (fun d ->
      match Elab.find_data st.st_em d, List.assoc_opt d ch.ch_data_pos with
      | Some { Elab.d_kind = Elab.Local; _ }, Some p -> (
        let verdict =
          match List.find_opt (fun w -> String.equal w.w_data d) !(st.st_windows) with
          | Some w -> Error (One_window w.w_dim)
          | None -> (
            match window st.st_graph ~inside d p, kind with
            | Ok _, Flowchart.Grouped g -> Error (Grouped g)
            | v, _ -> v)
        in
        match verdict with
        | Ok w_size ->
          st.st_windows := { w_data = d; w_dim = p; w_size } :: !(st.st_windows)
        | Error rf_why ->
          st.st_refusals := { rf_data = d; rf_dim = p; rf_why } :: !(st.st_refusals))
      | _ -> ())
    (data_of_component c)

(* ------------------------------------------------------------------ *)
(* The two mutually recursive procedures. *)

let rec schedule_graph st (sg : Scc.subgraph) ~(trace : component_trace list ref option)
    : Flowchart.t =
  let comps = Scc.components sg in
  List.concat_map
    (fun comp ->
      let fc = schedule_component st sg comp in
      (match trace with
       | Some tr ->
         tr := { ct_nodes = component_names st comp; ct_flowchart = fc } :: !tr
       | None -> ());
      fc)
    comps

and schedule_component st (sg : Scc.subgraph) (comp : Scc.component) : Flowchart.t =
  match comp.Scc.c_nodes with
  (* Step 1: a lone data node contributes nothing. *)
  | [ Data _ ] -> []
  | _ -> (
    let eqs = eq_ids_of_component comp in
    if eqs = [] then
      raise
        (Unschedulable
           { reason = "cycle among data bounds";
             component = component_names st comp });
    (* Step 2: pick an unscheduled dimension satisfying step 3. *)
    let rec first_valid = function
      | [] -> None
      | s :: rest -> (
        match try_candidate st comp s with
        | Some ch -> Some ch
        | None -> first_valid rest)
    in
    match first_valid (candidates st comp) with
    | None -> (
      match comp.Scc.c_nodes with
      | [ Eq id ] when unscheduled_indices st (Elab.eq_exn st.st_em id) = [] ->
        (* Step 2b: no dimensions left, a single node: emit it. *)
        let aliases =
          try Hashtbl.find st.st_aliases id with Not_found -> []
        in
        [ Flowchart.D_eq { er_id = id; er_aliases = aliases } ]
      | _ -> (
        (* Step 2a fallback: the symbolic distance analysis.  No
           virtual-dimension analysis on this path — windows assume the
           strictly sequential plane reuse of a DO loop, which grouped
           and inspected execution orders do not provide. *)
        let rec first_symbolic = function
          | [] -> None
          | s :: rest -> (
            match try_candidate_symbolic st comp s with
            | Some r -> Some r
            | None -> first_symbolic rest)
        in
        match first_symbolic (candidates st comp) with
        | Some (ch, kind, deleted) -> emit_loop st sg comp ch ~kind ~deleted
        | None ->
          (* The equations cannot be scheduled by this algorithm.  (The
             hyperplane transformation of §4 may still apply.) *)
          raise
            (Unschedulable
               { reason =
                   "no dimension has all subscripts of the form 'I' or \
                    'I - constant' in a consistent position";
                 component = component_names st comp })))
    | Some ch ->
      (* Step 4: delete the "I - constant" edges. *)
      let deleted =
        List.filter
          (fun e ->
            match e.e_kind, e.e_src, e.e_dst with
            | Use, Data d, Eq q -> (
              match List.assoc_opt d ch.ch_data_pos with
              | None -> false
              | Some p -> (
                match e.e_subs.(p) with
                | Label.Affine { var; offset; _ } ->
                  String.equal var (List.assoc q ch.ch_eq_vars) && offset < 0
                | _ -> false))
            | _ -> false)
          comp.Scc.c_edges
      in
      (* Step 6: iterative iff recursive edges were deleted — unless the
         carried distances share a modulus g >= 2, in which case the
         residue classes mod g are independent and the loop runs as a
         group-partitioned DOALL. *)
      let kind =
        if deleted = [] then Flowchart.Parallel
        else
          match basic_group_modulus comp ch deleted with
          | Some g -> Flowchart.Grouped g
          | None -> Flowchart.Iterative
      in
      (* §3.4 applies only where the loop carries a dependence. *)
      if deleted <> [] then analyze_virtual st comp ch kind;
      emit_loop st sg comp ch ~kind ~deleted)

(* Steps 5 and 7, shared by the basic and symbolic paths: mark the
   dimension scheduled, drop the carried edges, schedule the remaining
   subgraph, and wrap it in the loop descriptor. *)
and emit_loop st sg comp (ch : chosen) ~kind ~deleted : Flowchart.t =
  List.iter
    (fun (id, v) ->
      mark_scheduled st id v;
      add_alias st id ~from:v ~to_:ch.ch_loop_var)
    ch.ch_eq_vars;
  let inner = Scc.component_subgraph sg comp in
  let inner = Scc.remove_edges inner deleted in
  let body = schedule_graph st inner ~trace:None in
  [ Flowchart.D_loop
      { lp_var = ch.ch_loop_var;
        lp_range = ch.ch_range;
        lp_kind = kind;
        lp_collapse = false;
        lp_body = body } ]

(* ------------------------------------------------------------------ *)

let schedule_graph_of (g : Dgraph.t) : result =
  Ps_obs.Trace.with_span "schedule.graph" @@ fun () ->
  let em = g.g_module in
  let st =
    { st_graph = g;
      st_em = em;
      st_scheduled = Hashtbl.create 16;
      st_aliases = Hashtbl.create 16;
      st_windows = ref [];
      st_refusals = ref [] }
  in
  let trace = ref [] in
  let fc = schedule_graph st (Scc.full_subgraph g) ~trace:(Some trace) in
  { r_flowchart = fc;
    r_windows = List.rev !(st.st_windows);
    r_refusals = List.rev !(st.st_refusals);
    r_components = List.rev !trace;
    r_graph = g }

let schedule (em : Elab.emodule) : result = schedule_graph_of (Build.build em)
