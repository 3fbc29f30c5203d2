(* Lints: unused data, dead equations, out-of-bounds subscripts, and
   virtualization failures.

   The out-of-bounds check is the only symbolic one.  A subscript is
   reported exactly when the lint can *prove* some iteration escapes the
   declared bounds: each index variable contributes its extreme bound by
   the sign of its coefficient, and the resulting worst case is compared
   against the dimension's bounds with a Farkas certificate under the
   module's subrange non-emptiness facts.  Guards refine the ranges —
   the paper's Relaxation module reads A[K,I,J-1] legally only because
   the else branch of "J = 0 or ..." implies J >= 1, so the lint tracks
   equality and comparison tests against (provable) range boundaries
   through if expressions. *)

module Diag = Ps_diag.Diag
module Ast = Ps_lang.Ast
open Ps_sem
open Ps_graph
open Ps_graph.Dgraph
module Schedule = Ps_sched.Schedule
module Label = Ps_graph.Label

(* ------------------------------------------------------------------ *)
(* Unused data and dead equations. *)

let usage (g : Dgraph.t) : Diag.t list =
  let em = g.g_module in
  let read = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.e_kind, e.e_src with
      | (Use | Bound), Data d -> Hashtbl.replace read d ()
      | _ -> ())
    (Dgraph.edges g);
  let unused_name n = not (Hashtbl.mem read n) in
  let unused =
    List.filter_map
      (fun (d : Elab.data) ->
        if unused_name d.Elab.d_name then
          Some
            (Diag.diag Diag.Unused_data d.Elab.d_loc
               "%s is never used (module %s)" d.Elab.d_name em.Elab.em_name)
        else None)
      (em.Elab.em_params @ em.Elab.em_locals)
  in
  let dead =
    List.filter_map
      (fun (q : Elab.eq) ->
        let only_unused_locals =
          q.Elab.q_defs <> []
          && List.for_all
               (fun (df : Elab.def) ->
                 match Elab.find_data em df.Elab.df_data with
                 | Some d ->
                   d.Elab.d_kind = Elab.Local && unused_name d.Elab.d_name
                 | None -> false)
               q.Elab.q_defs
        in
        if only_unused_locals then
          Some
            (Diag.diag Diag.Dead_equation q.Elab.q_loc
               "%s defines only %s, which nothing reads" q.Elab.q_name
               (String.concat ", "
                  (List.map (fun df -> df.Elab.df_data) q.Elab.q_defs)))
        else None)
      em.Elab.em_eqs
  in
  unused @ dead

(* ------------------------------------------------------------------ *)
(* Out-of-bounds subscripts. *)

type bound = { b_lo : Linexpr.t; b_hi : Linexpr.t }

(* Refine the tracked index ranges through one guard, in the given
   polarity.  Refinements must only *tighten* a range (otherwise the
   worst case could be overestimated and a legal read reported), so a
   comparison bound is adopted only when it is provably inside the
   current one, and a disequality shaves an endpoint only when it
   provably equals it. *)
let rec refine (env : (string * bound) list) (c : Ast.expr) (polarity : bool) =
  let tighten v f =
    match List.assoc_opt v env with
    | None -> env
    | Some b -> (v, f b) :: List.remove_assoc v env
  in
  let shave_ne v (x : Linexpr.t) =
    tighten v (fun b ->
        if Linexpr.diff_const x b.b_lo = Some 0 then
          { b with b_lo = Linexpr.add_const 1 b.b_lo }
        else if Linexpr.diff_const x b.b_hi = Some 0 then
          { b with b_hi = Linexpr.add_const (-1) b.b_hi }
        else b)
  in
  let clamp_hi v (x : Linexpr.t) =
    tighten v (fun b ->
        match Linexpr.diff_const b.b_hi x with
        | Some d when d >= 0 -> { b with b_hi = x }
        | _ -> b)
  in
  let clamp_lo v (x : Linexpr.t) =
    tighten v (fun b ->
        match Linexpr.diff_const x b.b_lo with
        | Some d when d >= 0 -> { b with b_lo = x }
        | _ -> b)
  in
  let as_var_cmp a b =
    match (a : Ast.expr).Ast.e with
    | Ast.Var v when List.mem_assoc v env -> (
      match Linexpr.of_expr b with
      | Some x when not (List.mem_assoc v x.Linexpr.terms) -> Some (v, x)
      | _ -> None)
    | _ -> None
  in
  match c.Ast.e with
  | Ast.Unop (Ast.Not, a) -> refine env a (not polarity)
  | Ast.Binop (Ast.And, a, b) when polarity -> refine (refine env a true) b true
  | Ast.Binop (Ast.Or, a, b) when not polarity ->
    refine (refine env a false) b false
  | Ast.Binop (((Ast.Eq | Ast.Ne) as op), a, b) -> (
    let eq_holds = (op = Ast.Eq) = polarity in
    match as_var_cmp a b, as_var_cmp b a with
    | Some (v, x), _ | None, Some (v, x) ->
      if eq_holds then tighten v (fun _ -> { b_lo = x; b_hi = x })
      else shave_ne v x
    | None, None -> env)
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
    (* Normalize to [v OP x] with the variable on the left. *)
    let flipped =
      match op with
      | Ast.Lt -> Ast.Gt
      | Ast.Le -> Ast.Ge
      | Ast.Gt -> Ast.Lt
      | Ast.Ge -> Ast.Le
      | _ -> op
    in
    let negated = function
      | Ast.Lt -> Ast.Ge
      | Ast.Le -> Ast.Gt
      | Ast.Gt -> Ast.Le
      | Ast.Ge -> Ast.Lt
      | op -> op
    in
    match as_var_cmp a b, as_var_cmp b a with
    | None, None -> env
    | cmp, cmp_flipped ->
      let v, x, op =
        match cmp, cmp_flipped with
        | Some (v, x), _ -> (v, x, op)
        | None, Some (v, x) -> (v, x, flipped)
        | None, None -> assert false
      in
      let op = if polarity then op else negated op in
      (match op with
       | Ast.Le -> clamp_hi v x
       | Ast.Lt -> clamp_hi v (Linexpr.add_const (-1) x)
       | Ast.Ge -> clamp_lo v x
       | Ast.Gt -> clamp_lo v (Linexpr.add_const 1 x)
       | _ -> env))
  | _ -> env

(* Worst-case value of a linear subscript over the tracked ranges:
   each tracked variable contributes the endpoint selected by the sign
   of its coefficient; other variables stay symbolic. *)
let extreme ~(hi : bool) (env : (string * bound) list) (l : Linexpr.t) =
  List.fold_left
    (fun acc (v, c) ->
      let term =
        match List.assoc_opt v env with
        | Some b ->
          if (c > 0) = hi then Linexpr.scale c b.b_hi
          else Linexpr.scale c b.b_lo
        | None -> Linexpr.scale c (Linexpr.of_var v)
      in
      Linexpr.add acc term)
    (Linexpr.of_int l.Linexpr.const)
    l.Linexpr.terms

let subscripts (em : Elab.emodule) : Diag.t list =
  let facts = Sa_check.range_facts em in
  let is_data n = Elab.find_data em n <> None in
  let diags = ref [] in
  let check_ref (q : Elab.eq) env name (subs : Ast.expr list) =
    let dims = Stypes.dims (Elab.data_exn em name).Elab.d_ty in
    List.iteri
      (fun i sub ->
        match List.nth_opt dims i with
        | None -> ()
        | Some (sr : Stypes.subrange) -> (
          match
            ( Linexpr.of_expr sub,
              Linexpr.of_expr sr.Stypes.sr_lo,
              Linexpr.of_expr sr.Stypes.sr_hi )
          with
          | Some l, Some dlo, Some dhi ->
            let prove g = Linexpr.prove_nonneg ~assumptions:facts g in
            let too_high =
              (* max(sub) >= hi + 1 for some iteration *)
              prove
                (Linexpr.add_const (-1) (Linexpr.sub (extreme ~hi:true env l) dhi))
            in
            let too_low =
              prove
                (Linexpr.add_const (-1) (Linexpr.sub dlo (extreme ~hi:false env l)))
            in
            if too_high || too_low then
              diags :=
                Diag.diag Diag.Out_of_bounds q.Elab.q_loc
                  "subscript %d of %s in %s (%s) can %s the declared range \
                   %s .. %s"
                  (i + 1) name q.Elab.q_name
                  (Ps_lang.Pretty.expr_to_string sub)
                  (if too_high then "exceed" else "fall below")
                  (Ps_lang.Pretty.expr_to_string sr.Stypes.sr_lo)
                  (Ps_lang.Pretty.expr_to_string sr.Stypes.sr_hi)
                :: !diags
          | _ -> ()))
      subs
  in
  let rec walk q env (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> ()
    | Ast.Index ({ Ast.e = Ast.Var x; _ }, subs) when is_data x ->
      check_ref q env x subs;
      List.iter (walk q env) subs
    | Ast.Index (b, subs) ->
      walk q env b;
      List.iter (walk q env) subs
    | Ast.Field (b, _) -> walk q env b
    | Ast.Call (_, args) -> List.iter (walk q env) args
    | Ast.Unop (_, a) -> walk q env a
    | Ast.Binop (_, a, b) ->
      walk q env a;
      walk q env b
    | Ast.If (c, t, f) ->
      walk q env c;
      walk q (refine env c true) t;
      walk q (refine env c false) f
  in
  List.iter
    (fun (q : Elab.eq) ->
      let env =
        List.filter_map
          (fun (ix : Elab.index) ->
            match
              ( Linexpr.of_expr ix.Elab.ix_range.Stypes.sr_lo,
                Linexpr.of_expr ix.Elab.ix_range.Stypes.sr_hi )
            with
            | Some b_lo, Some b_hi -> Some (ix.Elab.ix_var, { b_lo; b_hi })
            | _ -> None)
          q.Elab.q_indices
      in
      walk q env q.Elab.q_rhs)
    em.Elab.em_eqs;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Virtualization failures (§3.4): the scheduler's own refusals, each
   with the rule it acted on. *)

let virtualization (r : Schedule.result) : Diag.t list =
  let em = r.Schedule.r_graph.g_module in
  List.map
    (fun (rf : Schedule.refused) ->
      let name = rf.Schedule.rf_data and dim = rf.Schedule.rf_dim in
      let cls (e : edge) = Label.class_name e.e_subs.(dim) in
      let why =
        match rf.Schedule.rf_why with
        | Schedule.One_window w ->
          Printf.sprintf
            "the at-most-one-window rule keeps only the outermost scheduled \
             dimension virtual (dimension %d)"
            (w + 1)
        | Schedule.Grouped g ->
          Printf.sprintf
            "its loop runs as DOGROUP(%d), whose residue classes do not reuse \
             planes in sweep order"
            g
        | Schedule.Read_inside e -> (
          match e.e_subs.(dim) with
          | Label.Affine { offset; _ } when offset > 0 ->
            Printf.sprintf
              "a forward reference (class \"%s\") needs a plane not yet \
               computed"
              (cls e)
          | _ ->
            Printf.sprintf
              "a reference of class \"%s\" inside its component is not a \
               window access"
              (cls e))
        | Schedule.Read_outside e ->
          Printf.sprintf
            "it is read outside its component at other than the final plane \
             (class \"%s\")"
            (cls e)
        | Schedule.Write_inside e ->
          Printf.sprintf
            "a write of class \"%s\" inside its component does not march \
             with the loop"
            (cls e)
        | Schedule.Write_outside e ->
          Printf.sprintf
            "it is written outside its component (class \"%s\"), which would \
             be clobbered by the window"
            (cls e)
      in
      Diag.diag Diag.No_virtualization (Elab.data_exn em name).Elab.d_loc
        "dimension %d of %s is recursively indexed but stays fully allocated: \
         %s"
        (dim + 1) name why)
    r.Schedule.r_refusals

(* ------------------------------------------------------------------ *)
(* Fork candidates too small to parallelize (W120).

   The runtime pool never wakes parked workers for a job whose span is
   below [Pool.wake_threshold] — waking costs more than the loop — so a
   DOALL fork candidate ([Policy.index]) with a provably constant trip
   count under that bound executes on the calling domain alone.  The
   profiler observes this dynamically ("parallel loop ran
   sequentially"); this lint catches it statically.  Loops nested in a
   candidate are not flagged: they run sequentially inside each
   worker's chunk by design. *)

let wake_check (em : Elab.emodule) (r : Schedule.result) : Diag.t list =
  let module Fc = Ps_sched.Flowchart in
  let const_of e =
    match Linexpr.of_expr e with
    | Some l when l.Linexpr.terms = [] -> Some l.Linexpr.const
    | _ -> None
  in
  List.filter_map
    (fun (c : Ps_sched.Policy.candidate) ->
      let l = c.Ps_sched.Policy.c_loop in
      match
        ( l.Fc.lp_kind,
          const_of l.Fc.lp_range.Stypes.sr_lo,
          const_of l.Fc.lp_range.Stypes.sr_hi )
      with
      | Fc.Parallel, Some lo, Some hi
        when hi >= lo && hi - lo + 1 < Ps_runtime.Pool.wake_threshold ->
        let loc =
          match Fc.equations l.Fc.lp_body with
          | id :: _ -> (Elab.eq_exn em id).Elab.q_loc
          | [] -> em.Elab.em_ast.Ast.m_loc
        in
        Some
          (Diag.diag Diag.Sequential_doall loc
             "DOALL %s has a constant trip count of %d, below the pool's wake \
              threshold (%d): it will not wake parked workers and runs \
              effectively sequentially"
             l.Fc.lp_var (hi - lo + 1) Ps_runtime.Pool.wake_threshold)
      | _ -> None)
    (Ps_sched.Policy.index r.Schedule.r_flowchart)

(* ------------------------------------------------------------------ *)
(* Distance-analysis lints (W115/W116).

   W115 guards the classifier against demotion drift: a subscript whose
   label is [Opaque] even though it is a linear form in exactly one
   equation index — the class the symbolic distance solver handles — is
   reported with the inferred form, so a lost classification shows up as
   a lint instead of a silently sequential schedule.  W116 flags a
   redundant inspector: when the declared ranges already prove the
   inspected distance positive, the runtime test always passes and the
   partition could be decided statically. *)

let opaque_classifiable (em : Elab.emodule) : Diag.t list =
  let is_data n = Elab.find_data em n <> None in
  let diags = ref [] in
  let check_ref (q : Elab.eq) name (subs : Ast.expr list) =
    let dims = Stypes.dims (Elab.data_exn em name).Elab.d_ty in
    let is_index v =
      List.exists
        (fun (ix : Elab.index) -> String.equal ix.Elab.ix_var v)
        q.Elab.q_indices
    in
    List.iteri
      (fun i sub ->
        match List.nth_opt dims i with
        | None -> ()
        | Some sr -> (
          match Label.classify q sr sub with
          | Label.Opaque -> (
            match Linexpr.of_expr sub with
            | Some l
              when List.length
                     (List.filter (fun (v, _) -> is_index v) l.Linexpr.terms)
                   = 1 ->
              diags :=
                Diag.diag Diag.Opaque_classifiable q.Elab.q_loc
                  "subscript %d of %s in %s is demoted to \"other\", but the \
                   distance solver could classify its linear form %a"
                  (i + 1) name q.Elab.q_name Linexpr.pp l
                :: !diags
            | _ -> ())
          | _ -> ()))
      subs
  in
  let rec walk q (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> ()
    | Ast.Index ({ Ast.e = Ast.Var x; _ }, subs) when is_data x ->
      check_ref q x subs;
      List.iter (walk q) subs
    | Ast.Index (b, subs) ->
      walk q b;
      List.iter (walk q) subs
    | Ast.Field (b, _) -> walk q b
    | Ast.Call (_, args) -> List.iter (walk q) args
    | Ast.Unop (_, a) -> walk q a
    | Ast.Binop (_, a, b) ->
      walk q a;
      walk q b
    | Ast.If (c, t, f) ->
      walk q c;
      walk q t;
      walk q f
  in
  List.iter (fun (q : Elab.eq) -> walk q q.Elab.q_rhs) em.Elab.em_eqs;
  List.rev !diags

let inspector_static (em : Elab.emodule) (r : Schedule.result) : Diag.t list =
  let module Fc = Ps_sched.Flowchart in
  let facts =
    Ps_graph.Distance.facts (List.map snd em.Elab.em_subranges)
  in
  let diags = ref [] in
  let rec walk (descs : Fc.t) =
    List.iter
      (fun d ->
        match d with
        | Fc.D_loop l ->
          (match l.Fc.lp_kind with
           | Fc.Inspected e -> (
             match Linexpr.of_expr e with
             | Some le
               when Linexpr.prove_nonneg ~assumptions:facts
                      (Linexpr.add_const (-1) le) ->
               diags :=
                 Diag.diag Diag.Inspector_static em.Elab.em_ast.Ast.m_loc
                   "loop %s inspects distance %s at run time, but the \
                    declared ranges already prove it positive: the schedule \
                    could be decided statically"
                   l.Fc.lp_var
                   (Ps_lang.Pretty.expr_to_string e)
                 :: !diags
             | _ -> ())
           | Fc.Iterative | Fc.Parallel | Fc.Grouped _ -> ());
          walk l.Fc.lp_body
        | Fc.D_solve s -> walk s.Fc.sv_body
        | Fc.D_data _ | Fc.D_eq _ -> ())
      descs
  in
  walk r.Schedule.r_flowchart;
  List.rev !diags

(* ------------------------------------------------------------------ *)

let module_ (em : Elab.emodule) : Diag.t list =
  let g = Ps_graph.Build.build em in
  let sched =
    match Schedule.schedule_graph_of g with
    | r -> virtualization r @ wake_check em r @ inspector_static em r
    | exception Schedule.Unschedulable { reason; component } ->
      [ Diag.diag Diag.Unschedulable em.Elab.em_ast.Ast.m_loc
          "module %s cannot be scheduled: %s (component {%s}); the \
           hyperplane transformation of sec. 4 may apply"
          em.Elab.em_name reason
          (String.concat ", " component) ]
  in
  usage g @ subscripts em @ opaque_classifiable em @ sched
