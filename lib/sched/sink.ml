(* Extraction sinking — the paper's "unrotate back into the return
   parameter" (§4, final paragraph).

   After the hyperplane transformation, the result-extraction equation
   reads the transformed array A' with a multi-variable subscript in the
   time dimension (newA[I, J] = A'[2·maxK + I + J, maxK, I]).  Scheduled
   naively, it runs after the DO loop over the time axis, which forces A'
   to be fully allocated: virtual-dimension rule 2 does not apply because
   the outside reference is not an upper-bound subscript.

   This pass moves such an extraction *into* the iterative loop: on
   iteration K' it copies exactly the hyperplane { f(indices) = K' } that
   was just computed, by solving f for one index variable instead of
   scanning.  With the offending outside reference eliminated, the time
   dimension of A' becomes virtual after all, by the scheduler's own
   §3.4 rule ([Schedule.window]), with the window the paper states
   (three planes for the worked example).

   The pass is sound only if every point of the extraction's index space
   is covered by some iteration, i.e. the range of f over the index space
   lies inside the loop's bounds; this is discharged symbolically with
   the subrange non-emptiness facts (a bounded Farkas certificate). *)

open Ps_sem

type sunk = {
  sk_eq : int;               (* the extraction equation *)
  sk_loop_var : string;      (* the iterative loop it was sunk into *)
  sk_data : string;          (* the windowed array it reads *)
  sk_dim : int;              (* the virtual dimension *)
  sk_window : int;           (* window size enabled by the sink *)
  sk_solved_var : string;    (* index variable eliminated by solving f *)
}

type result = {
  s_flowchart : Flowchart.t;
  s_windows : Schedule.window list;
  s_sunk : sunk list;
}

(* ---------------------------------------------------------------- *)

(* The descriptor shape we can sink: a nest of parallel loops around a
   single equation.  Returns (loop vars outermost-first, the equation). *)
let rec extraction_shape (d : Flowchart.descriptor) =
  match d with
  | Flowchart.D_eq er -> Some ([], er)
  | Flowchart.D_loop { lp_kind = Flowchart.Parallel; lp_var; lp_range; lp_body = [ inner ]; _ } -> (
    match extraction_shape inner with
    | Some (vars, er) -> Some ((lp_var, lp_range) :: vars, er)
    | None -> None)
  | Flowchart.D_loop _ | Flowchart.D_data _ | Flowchart.D_solve _ -> None

(* Locate the dimension of [data] that the loop variable [lp_var] scans,
   from a defining equation's subscripts. *)
let loop_dim_of em body_eq_ids ~data ~lp_var =
  List.find_map
    (fun id ->
      let q = Elab.eq_exn em id in
      List.find_map
        (fun (df : Elab.def) ->
          if not (String.equal df.Elab.df_data data) then None
          else
            let rec find p = function
              | [] -> None
              | Elab.Sub_index ix :: _ when String.equal ix.Elab.ix_var lp_var ->
                Some p
              | _ :: rest -> find (p + 1) rest
            in
            find 0 df.Elab.df_subs)
        q.Elab.q_defs)
    body_eq_ids

(* ---------------------------------------------------------------- *)

let apply (em : Elab.emodule) (sched : Schedule.result) : result =
  Ps_obs.Trace.with_span "schedule.sink" @@ fun () ->
  let facts = Sa_check.range_facts em in
  let graph = sched.Schedule.r_graph in
  let windows = ref sched.Schedule.r_windows in
  let sunk = ref [] in
  (* Try to sink extraction [ext] (shape already matched) into loop [l].
     Returns the augmented loop on success. *)
  let try_sink (l : Flowchart.loop) (loop_vars : (string * Stypes.subrange) list)
      (er : Flowchart.eq_ref) : Flowchart.loop option =
    let q = Elab.eq_exn em er.Flowchart.er_id in
    let body_eq_ids = Flowchart.equations l.Flowchart.lp_body in
    (* Candidate arrays: local data read by q and defined only inside l. *)
    let q_refs = Ps_graph.Build.collect_refs em q.Elab.q_rhs [] in
    let used = List.sort_uniq String.compare (List.map fst q_refs) in
    let candidate data =
      match Elab.find_data em data with
      | Some d when d.Elab.d_kind = Elab.Local -> (
        (* Defined only inside the loop? *)
        let defs =
          List.filter_map
            (fun (q' : Elab.eq) ->
              if List.exists (fun df -> String.equal df.Elab.df_data data) q'.Elab.q_defs
              then Some q'.Elab.q_id
              else None)
            em.Elab.em_eqs
        in
        if not (List.for_all (fun id -> List.mem id body_eq_ids) defs) then None
        else
          (* Other reads of q must be inputs. *)
          let others =
            List.filter
              (fun nm ->
                (not (String.equal nm data))
                && (match Elab.find_data em nm with
                    | Some d -> d.Elab.d_kind <> Elab.Input
                    | None -> true))
              used
          in
          if others <> [] then None
          else (
            match loop_dim_of em body_eq_ids ~data ~lp_var:l.Flowchart.lp_var with
            | None -> None
            | Some p -> Some (data, p)))
      | _ -> None
    in
    match List.find_map candidate used with
    | None -> None
    | Some (data, p) -> (
      (* Every reference of q to data must agree on a single linear f at
         dimension p, involving at least one of q's index variables. *)
      let refs =
        List.filter_map
          (fun (nm, subs) -> if String.equal nm data then Some subs else None)
          q_refs
      in
      let q_index_vars = List.map (fun ix -> ix.Elab.ix_var) q.Elab.q_indices in
      let f_of subs =
        if List.length subs <= p then None
        else
          match Linexpr.of_expr (List.nth subs p) with
          | Some f when List.exists (fun (v, _) -> List.mem v q_index_vars) f.Linexpr.terms ->
            Some f
          | _ -> None
      in
      match refs with
      | [] -> None
      | subs0 :: rest -> (
        match f_of subs0 with
        | None -> None
        | Some f ->
          if
            not
              (List.for_all
                 (fun subs ->
                   match f_of subs with
                   | Some f' -> Linexpr.equal f f'
                   | None -> false)
                 rest)
          then None
          else
            (* Coverage: range of f over q's index space inside the loop
               bounds. *)
            let lin e = Linexpr.of_expr e in
            let range_of_var v =
              List.find_map
                (fun (ix : Elab.index) ->
                  if String.equal ix.Elab.ix_var v then
                    match
                      lin ix.Elab.ix_range.Stypes.sr_lo, lin ix.Elab.ix_range.Stypes.sr_hi
                    with
                    | Some lo, Some hi -> Some (lo, hi)
                    | _ -> None
                  else None)
                q.Elab.q_indices
            in
            let f_min = ref (Linexpr.of_int f.Linexpr.const) in
            let f_max = ref (Linexpr.of_int f.Linexpr.const) in
            let ok = ref true in
            List.iter
              (fun (v, c) ->
                match range_of_var v with
                | Some (lo, hi) ->
                  let a = Linexpr.scale c lo and b = Linexpr.scale c hi in
                  if c >= 0 then begin
                    f_min := Linexpr.add !f_min a;
                    f_max := Linexpr.add !f_max b
                  end
                  else begin
                    f_min := Linexpr.add !f_min b;
                    f_max := Linexpr.add !f_max a
                  end
                | None ->
                  (* A parameter term: contributes equally to both ends. *)
                  let t = Linexpr.scale c (Linexpr.of_var v) in
                  f_min := Linexpr.add !f_min t;
                  f_max := Linexpr.add !f_max t)
              f.Linexpr.terms;
            let loop_lo = lin l.Flowchart.lp_range.Stypes.sr_lo in
            let loop_hi = lin l.Flowchart.lp_range.Stypes.sr_hi in
            (match loop_lo, loop_hi with
             | Some lo, Some hi ->
               if
                 not
                   (Linexpr.prove_nonneg ~assumptions:facts
                      (Linexpr.sub !f_min lo)
                    && Linexpr.prove_nonneg ~assumptions:facts
                         (Linexpr.sub hi !f_max))
               then ok := false
             | None, _ | _, None -> ok := false);
            if not !ok then None
            else
              (* Pick the innermost index variable with coefficient +-1. *)
              let solvable =
                List.rev q_index_vars
                |> List.find_map (fun v ->
                       match List.assoc_opt v f.Linexpr.terms with
                       | Some c when abs c = 1 -> Some (v, c)
                       | _ -> None)
              in
              match solvable with
              | None -> None
              | Some (u, c) -> (
                (* u = c * (loop_var - (f - c*u)) *)
                let rest_f =
                  Linexpr.sub f (Linexpr.scale c (Linexpr.of_var u))
                in
                let solved =
                  Linexpr.scale c
                    (Linexpr.sub (Linexpr.of_var l.Flowchart.lp_var) rest_f)
                in
                let u_range =
                  List.find
                    (fun (ix : Elab.index) -> String.equal ix.Elab.ix_var u)
                    q.Elab.q_indices
                in
                (* Rebuild the nest: parallel loops over the remaining
                   index variables, then the solve. *)
                let remaining =
                  List.filter (fun (v, _) -> not (String.equal v u)) loop_vars
                in
                let inner =
                  Flowchart.D_solve
                    { sv_var = u;
                      sv_range = u_range.Elab.ix_range;
                      sv_rhs = Linexpr.to_expr solved;
                      sv_body = [ Flowchart.D_eq er ] }
                in
                let nest =
                  List.fold_right
                    (fun (v, range) body ->
                      Flowchart.D_loop
                        { lp_var = v;
                          lp_range = range;
                          lp_kind = Flowchart.Parallel;
                          lp_collapse = false;
                          lp_body = [ body ] })
                    remaining inner
                in
                (* The §3.4 rule of [Schedule.window], with the loop
                   body as the inside and the sunk reader exempt.
                   Sinking fixes a rule-2 violation, not a write outside
                   the producing loop: those still clobber the window. *)
                match
                  Schedule.window graph ~inside:body_eq_ids ~exempt:q.Elab.q_id
                    data p
                with
                | Error _ -> None
                | Ok window ->
                  let w =
                    { Schedule.w_data = data; w_dim = p; w_size = window }
                  in
                  windows :=
                    w
                    :: List.filter
                         (fun (w' : Schedule.window) ->
                           not
                             (String.equal w'.Schedule.w_data data
                              && w'.Schedule.w_dim = p))
                         !windows;
                  sunk :=
                    { sk_eq = q.Elab.q_id;
                      sk_loop_var = l.Flowchart.lp_var;
                      sk_data = data;
                      sk_dim = p;
                      sk_window = window;
                      sk_solved_var = u }
                    :: !sunk;
                  Some { l with Flowchart.lp_body = l.Flowchart.lp_body @ [ nest ] })))
  in
  (* Scan the top level: for each iterative loop, try to absorb each later
     extraction-shaped descriptor. *)
  let rec scan (fc : Flowchart.t) : Flowchart.t =
    match fc with
    | [] -> []
    | Flowchart.D_loop ({ lp_kind = Flowchart.Iterative; _ } as l) :: rest ->
      let l = ref l in
      let rest =
        List.filter_map
          (fun d ->
            match extraction_shape d with
            | Some (loop_vars, er) -> (
              match try_sink !l loop_vars er with
              | Some l' ->
                l := l';
                None
              | None -> Some d)
            | None -> Some d)
          rest
      in
      Flowchart.D_loop !l :: scan rest
    | d :: rest -> d :: scan rest
  in
  let fc = scan sched.Schedule.r_flowchart in
  { s_flowchart = fc; s_windows = !windows; s_sunk = List.rev !sunk }
