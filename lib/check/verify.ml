(* Independent re-derivation of schedule legality from the dependency
   graph (paper §3.3-§4).

   The verifier never inspects how a flowchart was produced.  It walks
   the descriptor tree once to learn, for every equation occurrence, its
   emission position and enclosing binders; then, for every (definition
   edge, use edge) pair of every data item, it computes the dependence
   distance level by level down the shared loop nest and applies the
   classical legality rules: the first nonzero distance must be positive
   and must land on an iterative loop; a dependence no loop carries must
   be satisfied by emission order.

   Conservatism: a distance the labels cannot decide (an opaque or
   sliced subscript in a shared dimension) is a verification failure,
   not a pass — except under a SOLVE descriptor, whose producing pass
   (Sink) discharges exactly that obligation symbolically before
   emitting it. *)

module Diag = Ps_diag.Diag
module Loc = Ps_lang.Loc
open Ps_sem
open Ps_graph
open Ps_graph.Dgraph
module Fc = Ps_sched.Flowchart
module Schedule = Ps_sched.Schedule
module Label = Ps_graph.Label

(* ------------------------------------------------------------------ *)
(* Equation occurrences in a flowchart. *)

type occ = {
  oc_seq : int;                         (* emission order *)
  oc_binders : Fc.binder list;          (* outermost first *)
  oc_aliases : (string * string) list;  (* eq index var -> loop var *)
}

let occs_of fc =
  let tbl : (int, occ list) Hashtbl.t = Hashtbl.create 32 in
  Fc.iter_eqs
    (fun ~binders ~seq er ->
      let o =
        { oc_seq = seq; oc_binders = binders; oc_aliases = er.Fc.er_aliases }
      in
      let prev = try Hashtbl.find tbl er.Fc.er_id with Not_found -> [] in
      Hashtbl.replace tbl er.Fc.er_id (prev @ [ o ]))
    fc;
  tbl

let under_solve o =
  List.exists (function Fc.B_solve _ -> true | Fc.B_loop _ -> false) o.oc_binders

let resolve aliases v = Option.value (List.assoc_opt v aliases) ~default:v

(* Two binder occurrences are the same loop instance exactly when they
   are the same descriptor record: the traversal hands each loop's body
   the one record built for it. *)
let same_binder a b =
  match a, b with
  | Fc.B_loop l1, Fc.B_loop l2 -> l1 == l2
  | Fc.B_solve s1, Fc.B_solve s2 -> s1 == s2
  | _ -> false

let rec shared_binders bs1 bs2 =
  match bs1, bs2 with
  | b1 :: r1, b2 :: r2 when same_binder b1 b2 -> b1 :: shared_binders r1 r2
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Dependence distance along one loop variable.

   The producer writes d[... f_d(vd) ...] and the consumer reads
   d[... f_u(vu) ...] in the dimension(s) the loop controls; equal
   elements mean the consumed value was produced some iterations
   earlier, and the symbolic solver ({!Ps_graph.Distance}) decides how
   many.  [Unrelated] when the loop controls no dimension of the
   definition (e.g. a fixed boundary plane); [Known] for an exact
   constant distance; [Symbolic] for a parameter-form distance (the
   inspector/executor obligation); [Indep] when the solver proves the
   two subscripts never meet; [Unknown] when a label is not affine in
   the loop variable or the solver cannot classify the pair. *)

type dist = Unrelated | Known of int | Symbolic of Linexpr.t | Indep | Unknown

let distance ?bounds ?(assumptions = []) ~(def : edge) ~def_aliases
    ~(use : edge) ~use_aliases lv =
  let aligned aliases sub =
    match Label.linear_parts sub with
    | Some (v, _, _, _) when String.equal (resolve aliases v) lv -> true
    | _ -> false
  in
  let found = ref [] in
  Array.iteri
    (fun p sub ->
      if aligned def_aliases sub then begin
        let d =
          if p >= Array.length use.e_subs then Unknown
          else if aligned use_aliases use.e_subs.(p) then
            match
              Ps_graph.Distance.solve ?bounds ~assumptions ~def:sub
                ~use:use.e_subs.(p) ()
            with
            | Ps_graph.Distance.Exact k -> Known k
            | Ps_graph.Distance.Form f -> Symbolic f
            | Ps_graph.Distance.Independent -> Indep
            | Ps_graph.Distance.Unknown -> Unknown
          else Unknown
        in
        found := d :: !found
      end)
    def.e_subs;
  match !found with
  | [] -> Unrelated
  | l ->
    if List.exists (function Unknown -> true | _ -> false) l then Unknown
      (* One dimension where the subscripts provably never meet makes
         the whole pair independent, whatever the other dimensions do. *)
    else if List.exists (function Indep -> true | _ -> false) l then Indep
    else (
      match List.sort_uniq compare l with [ d ] -> d | _ -> Unknown)

(* ------------------------------------------------------------------ *)

let flowchart ?(windows = []) (g : Dgraph.t) (fc : Fc.t) : Diag.t list =
  Ps_obs.Trace.with_span "verify" @@ fun () ->
  let em = g.g_module in
  (* Subrange non-emptiness facts sharpen the solver's disjointness
     test; they never change an Exact answer. *)
  let assumptions = Distance.facts (List.map snd em.Elab.em_subranges) in
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let occs = occs_of fc in
  let occ_of id =
    match Hashtbl.find_opt occs id with Some (o :: _) -> Some o | _ -> None
  in
  let eq_name id =
    match Elab.find_eq em id with Some q -> q.Elab.q_name | None -> Fmt.str "eq.%d" (id + 1)
  in
  let eq_loc id =
    match Elab.find_eq em id with Some q -> q.Elab.q_loc | None -> Loc.dummy
  in
  (* --- structural coverage ------------------------------------------ *)
  (* Ids appearing in the flowchart must name equations of the module. *)
  Hashtbl.iter
    (fun id os ->
      (match Elab.find_eq em id with
       | None ->
         report
           (Diag.diag Diag.Missing_equation Loc.dummy
              "the flowchart mentions eq.%d, which the module does not define"
              (id + 1))
       | Some _ -> ());
      if List.length os > 1 then
        report
          (Diag.diag Diag.Duplicate_equation (eq_loc id)
             "%s appears %d times in the flowchart (single assignment emits \
              each equation once)"
             (eq_name id) (List.length os)))
    occs;
  List.iter
    (fun (q : Elab.eq) ->
      match occ_of q.Elab.q_id with
      | None ->
        report
          (Diag.diag Diag.Missing_equation q.Elab.q_loc
             "%s is missing from the flowchart" q.Elab.q_name)
      | Some o ->
        (* Every index variable must be bound by an enclosing binder. *)
        let bound = List.map Fc.binder_var o.oc_binders in
        List.iter
          (fun (ix : Elab.index) ->
            let lv = resolve o.oc_aliases ix.Elab.ix_var in
            if not (List.mem lv bound) then
              report
                (Diag.diag Diag.Unbound_index q.Elab.q_loc
                   "index %s of %s is bound by no enclosing loop" ix.Elab.ix_var
                   q.Elab.q_name))
          q.Elab.q_indices)
    em.Elab.em_eqs;
  (* --- collapse marks ----------------------------------------------- *)
  (* A collapse mark licenses flattening the loop with the one DOALL
     directly inside it, so it may only sit on a *perfect* DOALL pair:
     both loops Parallel, nothing between the headers.  Legality of the
     flattened order then follows from the per-axis DOALL checks below
     (every dependence distance across each axis is 0 or the axis would
     be rejected as carrying). *)
  let rec check_marks descs =
    List.iter
      (function
        | Fc.D_loop l ->
          (if l.Fc.lp_collapse then
             let ok =
               l.Fc.lp_kind = Fc.Parallel
               && (match l.Fc.lp_body with
                  | [ Fc.D_loop inner ] -> inner.Fc.lp_kind = Fc.Parallel
                  | _ -> false)
             in
             if not ok then
               report
                 (Diag.diag Diag.Bad_collapse Loc.dummy
                    "loop %s is marked collapsible but is not the head of a \
                     perfect DOALL pair"
                    l.Fc.lp_var));
          check_marks l.Fc.lp_body
        | Fc.D_solve s -> check_marks s.Fc.sv_body
        | Fc.D_data _ | Fc.D_eq _ -> ())
      descs
  in
  check_marks fc;
  (* --- dependence legality ------------------------------------------ *)
  let def_edges_of =
    let tbl : (string, edge) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun e ->
        match e.e_kind, e.e_dst with
        | Def, Data d -> Hashtbl.add tbl d e
        | _ -> ())
      (Dgraph.edges g);
    fun d -> Hashtbl.find_all tbl d
  in
  let check_pair ~(def : edge) ~(use : edge) ~data =
    match def.e_src, use.e_dst with
    | Eq producer, Eq consumer -> (
      match occ_of producer, occ_of consumer with
      | Some po, Some co ->
        let loc = eq_loc consumer in
        let pname = eq_name producer and cname = eq_name consumer in
        let shared = shared_binders po.oc_binders co.oc_binders in
        (* Scan the shared nest outermost-in until the dependence is
           carried, violated, or exhausted. *)
        let rec scan = function
          | [] ->
            (* Carried by no loop: emission order must satisfy it. *)
            if po.oc_seq >= co.oc_seq then
              report
                (Diag.diag Diag.Order_violation loc
                   "%s reads %s from %s in the same iteration, but %s is \
                    emitted %s"
                   cname data pname pname
                   (if po.oc_seq = co.oc_seq then "as the same descriptor"
                    else "later"))
          | Fc.B_solve _ :: rest ->
            (* Both run under the same solved subscript: same value on
               both sides, distance 0. *)
            scan rest
          | Fc.B_loop l :: rest -> (
            match
              distance
                ?bounds:(Distance.bounds_of_subrange l.Fc.lp_range)
                ~assumptions ~def ~def_aliases:po.oc_aliases ~use
                ~use_aliases:co.oc_aliases l.Fc.lp_var
            with
            | Unrelated | Known 0 -> scan rest
            | Indep -> () (* the subscripts never meet: nothing to satisfy *)
            | Known k when k > 0 -> (
              match l.Fc.lp_kind with
              | Fc.Iterative -> () (* carried here; inner levels are free *)
              | Fc.Grouped gm ->
                (* Residue classes mod gm run concurrently, index order
                   within each; a carried distance stays inside its
                   class exactly when the modulus divides it. *)
                if k mod gm <> 0 then
                  report
                    (Diag.diag Diag.Bad_group_partition loc
                       "DOGROUP(%d) loop %s does not partition its \
                        dependences: %s reads %s produced %d iteration%s \
                        earlier by %s, and %d does not divide %d"
                       gm l.Fc.lp_var cname data k
                       (if k = 1 then "" else "s")
                       pname gm k)
              | Fc.Inspected _ ->
                (* The runtime modulus is unconstrained, so only a zero
                   distance is safe under the inspected partition. *)
                report
                  (Diag.diag Diag.Bad_group_partition loc
                     "inspected loop %s carries a constant dependence: %s \
                      reads %s produced %d iteration%s earlier by %s, which \
                      the runtime modulus need not divide"
                     l.Fc.lp_var cname data k
                     (if k = 1 then "" else "s")
                     pname)
              | Fc.Parallel ->
                report
                  (Diag.diag Diag.Doall_carried loc
                     "DOALL loop %s carries a dependence: %s reads %s \
                      produced %d iteration%s earlier by %s"
                     l.Fc.lp_var cname data k
                     (if k = 1 then "" else "s")
                     pname))
            | Known k ->
              (* k < 0: the consumer reads a plane the producer has not
                 written yet at any legal interleaving of this loop. *)
              report
                (Diag.diag
                   (match l.Fc.lp_kind with
                    | Fc.Parallel -> Diag.Doall_carried
                    | Fc.Iterative | Fc.Grouped _ | Fc.Inspected _ ->
                      Diag.Negative_dependence)
                   loc
                   "%s loop %s runs %s before the iteration of %s that \
                    produces the %s it reads (offset %+d)"
                   (Fc.kind_name l.Fc.lp_kind) l.Fc.lp_var cname pname data
                   (-k))
            | Symbolic f -> (
              (* A parameter-form distance needs a runtime inspection of
                 exactly that form: the inspector rejects d < 1, and the
                 partition into d residue classes trivially satisfies a
                 carried distance of d. *)
              match l.Fc.lp_kind with
              | Fc.Inspected e -> (
                match Linexpr.of_expr e with
                | Some le when Linexpr.equal le f -> ()
                | _ ->
                  report
                    (Diag.diag Diag.Inspector_missing loc
                       "loop %s inspects %s, but %s reads %s produced %a \
                        iterations earlier by %s"
                       l.Fc.lp_var
                       (Ps_lang.Pretty.expr_to_string e)
                       cname data Linexpr.pp f pname))
              | Fc.Iterative | Fc.Parallel | Fc.Grouped _ ->
                report
                  (Diag.diag Diag.Inspector_missing loc
                     "%s loop %s carries a parameter-dependent dependence \
                      (%s reads %s produced %a iterations earlier by %s) \
                      but performs no runtime inspection"
                     (Fc.kind_name l.Fc.lp_kind) l.Fc.lp_var cname data
                     Linexpr.pp f pname))
            | Unknown ->
              if under_solve co then
                (* A sunk extraction: Sink proved the solved subscript
                   stays inside the already-computed window. *)
                ()
              else
                report
                  (Diag.diag Diag.Unverifiable_dependence loc
                     "cannot verify the dependence of %s on %s through %s: \
                      a subscript in the dimension of loop %s is not affine \
                      in the loop variable"
                     cname data pname l.Fc.lp_var))
        in
        scan shared
      | _ -> () (* missing occurrences already reported *))
    | _ -> ()
  in
  List.iter
    (fun (use : edge) ->
      match use.e_kind, use.e_src with
      | Use, Data d ->
        List.iter (fun def -> check_pair ~def ~use ~data:d) (def_edges_of d)
      | Bound, Data d -> (
        (* A bound must be available before the consumer's loops start:
           every producer of the bound datum is emitted earlier and
           shares no loop with the consumer. *)
        match use.e_dst with
        | Eq consumer -> (
          match occ_of consumer with
          | None -> ()
          | Some co ->
            List.iter
              (fun (def : edge) ->
                match def.e_src with
                | Eq producer -> (
                  match occ_of producer with
                  | None -> ()
                  | Some po ->
                    if shared_binders po.oc_binders co.oc_binders <> [] then
                      report
                        (Diag.diag Diag.Order_violation (eq_loc consumer)
                           "loop bound %s is computed by %s inside a loop \
                            shared with %s"
                           d (eq_name producer) (eq_name consumer))
                    else if po.oc_seq >= co.oc_seq then
                      report
                        (Diag.diag Diag.Order_violation (eq_loc consumer)
                           "loop bound %s is computed by %s after %s uses it"
                           d (eq_name producer) (eq_name consumer)))
                | Data _ -> ())
              (def_edges_of d))
        | Data _ -> ())
      | _ -> ())
    (Dgraph.edges g);
  (* --- storage windows (§3.4) --------------------------------------- *)
  List.iter
    (fun (w : Schedule.window) ->
      let loc =
        match Elab.find_data em w.Schedule.w_data with
        | Some d -> d.Elab.d_loc
        | None -> Loc.dummy
      in
      let needed = ref 1 in
      List.iter
        (fun (e : edge) ->
          match e.e_kind, e.e_src with
          | Use, Data d
            when String.equal d w.Schedule.w_data
                 && Array.length e.e_subs > w.Schedule.w_dim -> (
            let consumer_occ =
              match e.e_dst with Eq q -> occ_of q | Data _ -> None
            in
            match e.e_subs.(w.Schedule.w_dim) with
            | Label.Affine { offset; _ } when offset <= 0 ->
              if 1 - offset > !needed then needed := 1 - offset
            | Label.Affine { offset; _ } ->
              report
                (Diag.diag Diag.Window_underflow loc
                   "dimension %d of %s is windowed, but a use reads %d \
                    plane%s ahead"
                   (w.Schedule.w_dim + 1) w.Schedule.w_data offset
                   (if offset = 1 then "" else "s"))
            | Label.Const_high -> () (* the final plane survives the loop *)
            | Label.Linear _ | Label.Const_low | Label.Const_mid _
            | Label.Slice | Label.Opaque ->
              if
                match consumer_occ with
                | Some o -> under_solve o
                | None -> false
              then () (* discharged by the sinking pass *)
              else
                report
                  (Diag.diag Diag.Unverified_window loc
                     "dimension %d of %s is windowed, but a use subscript is \
                      not affine in the loop variable; the window cannot be \
                      verified"
                     (w.Schedule.w_dim + 1) w.Schedule.w_data))
          | _ -> ())
        (Dgraph.edges g);
      if w.Schedule.w_size < !needed then
        report
          (Diag.diag Diag.Window_underflow loc
             "dimension %d of %s has window = %d, but a dependence reaches %d \
              plane%s back (needs %d)"
             (w.Schedule.w_dim + 1) w.Schedule.w_data w.Schedule.w_size
             (!needed - 1)
             (if !needed = 2 then "" else "s")
             !needed);
      (* --- write side --------------------------------------------- *)
      (* A windowed dimension reuses a plane's slot every w_size
         iterations, so every write must either march in step with the
         producing loop (aligned, offset 0, under the *same* loop
         record as the aligned reads) or fill a startup plane within
         the first w_size slots before the loop runs.  An aligned
         write under a different loop — e.g. a DOALL in another
         component sweeping the dimension — pushes the whole extent
         through the window before the readers run. *)
      let binder_of id var =
        match occ_of id with
        | None -> None
        | Some o ->
          let v = resolve o.oc_aliases var in
          List.find_map
            (function
              | Fc.B_loop l when String.equal l.Fc.lp_var v -> Some l
              | Fc.B_loop _ | Fc.B_solve _ -> None)
            o.oc_binders
      in
      let aligned = ref [] in
      let record_aligned q var =
        match binder_of q var with
        | Some l -> aligned := (q, l) :: !aligned
        | None ->
          report
            (Diag.diag Diag.Unbound_index (eq_loc q)
               "%s subscripts dimension %d of windowed %s with %s, but no \
                enclosing loop binds it"
               (eq_name q) (w.Schedule.w_dim + 1) w.Schedule.w_data var)
      in
      List.iter
        (fun (e : edge) ->
          match e.e_kind, e.e_src, e.e_dst with
          | Def, Eq q, Data d
            when String.equal d w.Schedule.w_data
                 && Array.length e.e_subs > w.Schedule.w_dim -> (
            match e.e_subs.(w.Schedule.w_dim) with
            | Label.Affine { var; offset = 0; _ } -> record_aligned q var
            | Label.Affine { offset; _ } ->
              report
                (Diag.diag Diag.Window_clobber (eq_loc q)
                   "dimension %d of %s is windowed, but %s writes it at \
                    offset %d from the loop variable"
                   (w.Schedule.w_dim + 1) w.Schedule.w_data (eq_name q) offset)
            | Label.Const_low -> ()
            | Label.Const_mid k ->
              if k >= w.Schedule.w_size then
                report
                  (Diag.diag Diag.Window_clobber (eq_loc q)
                     "dimension %d of %s is windowed with %d plane%s, but %s \
                      writes boundary plane lower+%d, outside the startup \
                      window"
                     (w.Schedule.w_dim + 1) w.Schedule.w_data w.Schedule.w_size
                     (if w.Schedule.w_size = 1 then "" else "s")
                     (eq_name q) k)
            | Label.Linear _ | Label.Const_high | Label.Slice | Label.Opaque ->
              report
                (Diag.diag Diag.Unverified_window (eq_loc q)
                   "dimension %d of %s is windowed, but %s writes it with a \
                    subscript the verifier cannot place (class \"%s\")"
                   (w.Schedule.w_dim + 1) w.Schedule.w_data (eq_name q)
                   (Label.class_name e.e_subs.(w.Schedule.w_dim))))
          | Use, Data d, Eq q
            when String.equal d w.Schedule.w_data
                 && Array.length e.e_subs > w.Schedule.w_dim -> (
            match e.e_subs.(w.Schedule.w_dim) with
            | Label.Affine { var; offset; _ } when offset <= 0 -> (
              match occ_of q with
              | Some o when under_solve o -> () (* discharged by Sink *)
              | _ -> record_aligned q var)
            | _ -> ())
          | _ -> ())
        (Dgraph.edges g);
      (match !aligned with
       | [] -> ()
       | (q0, l0) :: rest ->
         (* Planes are reused only by a sequential sweep. *)
         (match l0.Fc.lp_kind with
          | Fc.Iterative -> ()
          | k ->
            report
              (Diag.diag Diag.Window_clobber (eq_loc q0)
                 "dimension %d of %s is windowed, but %s marches it under %s \
                  %s, not a DO, so its planes are live at once"
                 (w.Schedule.w_dim + 1) w.Schedule.w_data (eq_name q0)
                 (Fc.kind_name k) l0.Fc.lp_var));
         List.iter
           (fun (q, l) ->
             if not (l == l0) then
               report
                 (Diag.diag Diag.Window_clobber (eq_loc q)
                    "dimension %d of %s is windowed, but %s and %s access it \
                     under different loops, so the window is overwritten \
                     between them"
                    (w.Schedule.w_dim + 1) w.Schedule.w_data (eq_name q)
                    (eq_name q0)))
           rest))
    windows;
  Diag.sort !diags

(* ------------------------------------------------------------------ *)
(* Scheduling-policy tables.

   A policy is advisory shape, not legality: the interpreter only forks
   nests the scheduler proved parallel and only flattens perfect DOALL
   bands ([Collapse.band]), whatever the table says.  So the check here is
   structural well-formedness (E025) plus staleness (W121): a table
   tuned for a different host core count carries chunk and wake numbers
   that do not transfer, and the run falls back to the static model. *)

let policy_table ?host_cores (tp : Ps_sched.Policy.table) (fc : Fc.t) :
    Diag.t list =
  let loc = Loc.dummy in
  let bad =
    List.map
      (fun m -> Diag.diag Diag.Bad_policy loc "%s" m)
      (Ps_sched.Policy.validate tp fc)
  in
  let stale =
    match host_cores with
    | Some cores when Ps_sched.Policy.stale tp ~host_cores:cores ->
      [ Diag.diag Diag.Policy_stale loc
          "policy table was tuned for %d cores but this host has %d; falling \
           back to the static cost model"
          tp.Ps_sched.Policy.t_host_cores cores ]
    | _ -> []
  in
  Diag.sort (bad @ stale)

(* ------------------------------------------------------------------ *)
(* Hyperplane derivations (§4): the Lamport inequalities, edge by edge. *)

let transform (tr : Ps_hyper.Transform.t) : Diag.t list =
  let module T = Ps_hyper.Transform in
  let module Imatrix = Ps_hyper.Imatrix in
  let module Solve = Ps_hyper.Solve in
  let loc = tr.T.tr_module.Ps_lang.Ast.m_loc in
  let vec v =
    "(" ^ String.concat ", " (List.map string_of_int (Array.to_list v)) ^ ")"
  in
  let diags = ref [] in
  List.iter
    (fun d ->
      diags :=
        Diag.diag Diag.Hyperplane_violation loc
          "time vector %s does not strictly increase along dependence %s \
           of %s (a . d <= 0)"
          (vec tr.T.tr_time) (vec d) tr.T.tr_target
        :: !diags)
    (Solve.violations tr.T.tr_time tr.T.tr_vectors);
  let n = Imatrix.dim tr.T.tr_matrix in
  let det = Imatrix.det tr.T.tr_matrix in
  if det <> 1 && det <> -1 then
    diags :=
      Diag.diag Diag.Non_unimodular loc
        "the coordinate change for %s has determinant %d (must be +-1 so the \
         image lattice is exactly the integer lattice)"
        tr.T.tr_target det
      :: !diags
  else if
    not (Imatrix.equal (Imatrix.mul tr.T.tr_matrix tr.T.tr_inverse) (Imatrix.identity n))
  then
    diags :=
      Diag.diag Diag.Non_unimodular loc
        "the recorded inverse of the coordinate change for %s is wrong \
         (T . Tinv is not the identity)"
        tr.T.tr_target
      :: !diags;
  (* The matrix's first row must be the time vector itself. *)
  if Array.to_list (Imatrix.row tr.T.tr_matrix 0) <> Array.to_list tr.T.tr_time then
    diags :=
      Diag.diag Diag.Non_unimodular loc
        "the first row of the coordinate change for %s is not the time vector"
        tr.T.tr_target
      :: !diags;
  Diag.sort !diags
