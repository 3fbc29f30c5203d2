(* Loop merging — the improvement the paper lists as ongoing work (§5:
   "Improvement of the scheduler to better merge iterative loops"; see
   also its discussion of [11], which combines non-recursively related
   equations that depend on the same subscripts).

   The component-at-a-time scheduler emits one loop nest per MSCC, so two
   equations over the same subranges that are not recursively related end
   up in separate nests (eq.1 and eq.2 of Fig. 6 both scan I x J).  This
   pass merges adjacent sibling loops when it is legal:

   - both loops run over the same subrange (equal bounds);
   - for every dependence from an equation inside the first loop (or from
     a data item it defines) to an equation inside the second, the
     subscript in the merged dimension is the aligned index variable
     itself ("I") or "I - c" with c >= 0 — i.e. iteration i of the second
     body needs values produced at iteration <= i of the first, which the
     fused body order satisfies;
   - the merged loop is DOALL only if both were DOALL and every cross
     dependence in the merged dimension is exact ("I"): a DOALL may not
     read earlier iterations of its fused partner.

   Merging proceeds bottom-up, so two-deep nests (DOALL I (DOALL J ...))
   fuse completely. *)

open Ps_sem
open Ps_graph

type stats = { mutable merged : int }

(* Equations (transitively) contained in a descriptor. *)
let eqs_of d = Flowchart.equations [ d ]

(* Data items defined by the given equations. *)
let outputs_of em eq_ids =
  List.concat_map
    (fun id ->
      List.map (fun df -> df.Elab.df_data) (Elab.eq_exn em id).Elab.q_defs)
    eq_ids
  |> List.sort_uniq String.compare

let same_range (a : Stypes.subrange) (b : Stypes.subrange) =
  Ps_lang.Ast.equal_expr a.Stypes.sr_lo b.Stypes.sr_lo
  && Ps_lang.Ast.equal_expr a.Stypes.sr_hi b.Stypes.sr_hi

(* Cross-dependence check: every use by [later_eqs] of data defined by
   [earlier_eqs] must be "I" or "I - c" in the fused dimension.  Returns
   [None] if illegal, [Some exact] where [exact] says all offsets were 0. *)
let cross_deps_ok g em ~earlier_eqs ~later_eqs ~var1 ~var2 =
  let earlier_out = outputs_of em earlier_eqs in
  let exact = ref true in
  let ok =
    List.for_all
      (fun e ->
        match e.Dgraph.e_kind, e.Dgraph.e_src, e.Dgraph.e_dst with
        | Dgraph.Use, Dgraph.Data d, Dgraph.Eq tgt
          when List.mem d earlier_out && List.mem tgt later_eqs -> (
          match Flowchart.aligned_dim em earlier_eqs ~data:d ~var:var1 with
          | None -> false (* the merged dim does not index this data *)
          | Some p -> (
            match e.Dgraph.e_subs.(p) with
            | Label.Affine { var; offset; _ }
              when String.equal var var2 && offset <= 0 ->
              if offset <> 0 then exact := false;
              true
            | _ -> false))
        | _ -> true)
      (Dgraph.edges g)
  in
  if ok then Some !exact else None

(* Rename an index variable throughout a descriptor list: loop variables
   stay as they are; equations get an alias added. *)
let rec realias ~from ~to_ (fc : Flowchart.t) : Flowchart.t =
  if String.equal from to_ then fc
  else
    List.map
      (function
        | Flowchart.D_eq er ->
          Flowchart.D_eq
            { er with
              Flowchart.er_aliases =
                (* Redirect anything aliased to [from], and [from]
                   itself. *)
                ((from, to_)
                 :: List.map
                      (fun (a, b) ->
                        if String.equal b from then (a, to_) else (a, b))
                      er.Flowchart.er_aliases) }
        | Flowchart.D_loop l ->
          Flowchart.D_loop { l with Flowchart.lp_body = realias ~from ~to_ l.Flowchart.lp_body }
        | Flowchart.D_solve s ->
          Flowchart.D_solve
            { s with
              Flowchart.sv_rhs =
                Ps_lang.Ast.subst_vars [ (from, Ps_lang.Ast.var_e to_) ] s.Flowchart.sv_rhs;
              sv_body = realias ~from ~to_ s.Flowchart.sv_body }
        | Flowchart.D_data _ as d -> d)
      fc

(* Data read by the equations of a descriptor (through the graph). *)
let reads_of g eq_ids =
  List.filter_map
    (fun e ->
      match e.Dgraph.e_kind, e.Dgraph.e_src, e.Dgraph.e_dst with
      | Dgraph.Use, Dgraph.Data d, Dgraph.Eq tgt when List.mem tgt eq_ids -> Some d
      | _ -> None)
    (Dgraph.edges g)
  |> List.sort_uniq String.compare

(* Two descriptor groups are independent when neither reads what the
   other defines — then a later loop may slide left across the earlier
   descriptor to meet its fusion partner. *)
let independent g em d_eqs l_eqs =
  let d_out = outputs_of em d_eqs and l_out = outputs_of em l_eqs in
  let d_reads = reads_of g d_eqs and l_reads = reads_of g l_eqs in
  (not (List.exists (fun x -> List.mem x d_out) l_reads))
  && not (List.exists (fun x -> List.mem x l_out) d_reads)

let rec fuse_list g em stats (fc : Flowchart.t) : Flowchart.t =
  (* First fuse inside every loop, then try to merge adjacent siblings. *)
  let fc =
    List.map
      (function
        | Flowchart.D_loop l ->
          Flowchart.D_loop { l with Flowchart.lp_body = fuse_list g em stats l.Flowchart.lp_body }
        | Flowchart.D_solve s ->
          Flowchart.D_solve { s with Flowchart.sv_body = fuse_list g em stats s.Flowchart.sv_body }
        | (Flowchart.D_eq _ | Flowchart.D_data _) as d -> d)
      fc
  in
  (* Try to absorb, into [l1], the first later loop with the same range
     that can legally slide left across the intervening descriptors.
     Descriptors the partner loop depends on are hoisted in front of the
     fused loop when they are independent of [l1] and of everything else
     in between; the rest must be independent of the partner. *)
  let try_absorb l1 rest =
    let earlier_eqs = Flowchart.equations l1.Flowchart.lp_body in
    let rec scan skipped = function
      | [] -> None
      | (Flowchart.D_loop l2 as d) :: after
        when same_range l1.Flowchart.lp_range l2.Flowchart.lp_range -> (
        let later_eqs = Flowchart.equations l2.Flowchart.lp_body in
        let skipped_in_order = List.rev skipped in
        let hoist, stay =
          List.partition
            (fun d' -> not (independent g em (eqs_of d') later_eqs))
            skipped_in_order
        in
        let movable =
          (* The partner must slide across [stay]; the hoisted producers
             must slide across [l1] and across [stay]. *)
          List.for_all
            (fun d' ->
              let de = eqs_of d' in
              independent g em de earlier_eqs
              && List.for_all (fun s -> independent g em (eqs_of s) de) stay)
            hoist
        in
        let legal =
          if movable then
            cross_deps_ok g em ~earlier_eqs ~later_eqs ~var1:l1.Flowchart.lp_var
              ~var2:l2.Flowchart.lp_var
          else None
        in
        match legal with
        | Some exact -> (
          let kind =
            match l1.Flowchart.lp_kind, l2.Flowchart.lp_kind with
            | Flowchart.Parallel, Flowchart.Parallel when exact ->
              Some Flowchart.Parallel
            | Flowchart.Iterative, Flowchart.Iterative -> Some Flowchart.Iterative
            | _ -> None
          in
          match kind with
          | Some kind ->
            let body2 =
              realias ~from:l2.Flowchart.lp_var ~to_:l1.Flowchart.lp_var
                l2.Flowchart.lp_body
            in
            let fused =
              { l1 with
                Flowchart.lp_kind = kind;
                lp_body = l1.Flowchart.lp_body @ body2 }
            in
            Some (hoist, fused, stay @ after)
          | None -> scan (d :: skipped) after)
        | None -> scan (d :: skipped) after)
      | d :: after -> scan (d :: skipped) after
    in
    scan [] rest
  in
  let rec merge = function
    | Flowchart.D_loop l1 :: rest -> (
      match try_absorb l1 rest with
      | Some (hoist, fused, rest') ->
        stats.merged <- stats.merged + 1;
        hoist
        @ merge
            (Flowchart.D_loop
               { fused with
                 Flowchart.lp_body = fuse_list g em stats fused.Flowchart.lp_body }
             :: rest')
      | None -> Flowchart.D_loop l1 :: merge rest)
    | d :: rest -> d :: merge rest
    | [] -> []
  in
  merge fc

(* Entry point: fuse a schedule.  Returns the rewritten flowchart and how
   many merges were performed. *)
let apply (em : Elab.emodule) (g : Dgraph.t) (fc : Flowchart.t) :
    Flowchart.t * int =
  Ps_obs.Trace.with_span "schedule.fuse" @@ fun () ->
  let stats = { merged = 0 } in
  let fc = fuse_list g em stats fc in
  (fc, stats.merged)
