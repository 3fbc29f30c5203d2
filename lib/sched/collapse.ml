(* DOALL nest collapsing.

   The hyperplane transformation (and plain scheduling of independent
   recurrences) produces perfectly nested DOALL bands — [DOALL I (DOALL
   J (eq...))] — but a runtime that parallelizes only the outermost axis
   of such a band sees just the outer trip count: a [DOALL I(3) (DOALL
   J(10^6))] nest offers three units of work to the pool, and the
   triangular wavefront spaces of §4 offer trip counts that vary from 1
   to N per time step.  Collapsing flattens the band into one combined
   iteration space so the pool balances over the *product* of the trip
   counts, the standard loop-collapsing transformation (cf. OpenMP's
   [collapse] clause).

   The band is purely structural ([band]):

   - the loop is DOALL, and
   - its body is exactly one descriptor, itself a DOALL loop

   (i.e. the nest is *perfect*: no equations or data placements sit
   between the two headers, so interchanging or flattening the axes
   cannot reorder any computation relative to the band).  Legality of
   executing the flattened space in any order is exactly the DOALL
   guarantee the scheduler (and the [Verify] translation validator)
   already established per axis: every dependence distance across each
   axis of the band is zero.

   Whether a band is flattened is a per-nest policy decision; this pass
   only *marks* the heads of collapsible bands ([lp_collapse]) under
   [--collapse].  The marks are the no-table default (flatten where
   marked), the C back end's licence for an OpenMP collapse clause, and
   the [DOALL*] of the printed flowchart.  [Verify.flowchart] rejects
   marks placed on anything but a perfect DOALL pair (E021), so a
   corrupted flowchart cannot smuggle an iterative loop into a band. *)

let is_parallel (l : Flowchart.loop) = l.Flowchart.lp_kind = Flowchart.Parallel

let rec band (l : Flowchart.loop) : Flowchart.loop list =
  match l.Flowchart.lp_body with
  | [ Flowchart.D_loop inner ] when is_parallel l && is_parallel inner ->
    l :: band inner
  | _ -> [ l ]

let collapsible (l : Flowchart.loop) =
  match band l with _ :: _ :: _ -> true | _ -> false

let rec mark_descs (descs : Flowchart.t) : Flowchart.t =
  List.map mark_desc descs

and mark_desc (d : Flowchart.descriptor) : Flowchart.descriptor =
  match d with
  | Flowchart.D_loop l ->
    let body = mark_descs l.Flowchart.lp_body in
    let l = { l with Flowchart.lp_body = body } in
    Flowchart.D_loop { l with Flowchart.lp_collapse = collapsible l }
  | Flowchart.D_solve s ->
    Flowchart.D_solve { s with Flowchart.sv_body = mark_descs s.Flowchart.sv_body }
  | (Flowchart.D_data _ | Flowchart.D_eq _) as d -> d

let mark (fc : Flowchart.t) : Flowchart.t =
  Ps_obs.Trace.with_span "schedule.collapse" (fun () -> mark_descs fc)

let rec count (fc : Flowchart.t) =
  List.fold_left
    (fun acc d ->
      match d with
      | Flowchart.D_loop l ->
        acc + (if l.Flowchart.lp_collapse then 1 else 0) + count l.Flowchart.lp_body
      | Flowchart.D_solve s -> acc + count s.Flowchart.sv_body
      | Flowchart.D_data _ | Flowchart.D_eq _ -> acc)
    0 fc
