(* Flowchart execution.

   The scheduler's flowchart is compiled into nested closures: iterative
   (DO) loops run on the calling domain in index order; parallel (DOALL)
   loops are handed to the domain pool, chunked, with a private frame per
   chunk.  A fork candidate ([Policy.index]: the outermost parallel loop
   of a nest) runs its one policy decision ([Policy.resolve]); when the
   decision flattens, the whole perfect DOALL band ([Collapse.band])
   becomes one combined iteration space first (see
   [compile_parallel_band]), otherwise inner DOALLs run sequentially
   inside each worker.  Wherever a loop's points run in index order —
   a loop on the calling domain, a forked chunk, a row piece of a
   flattened chunk — an innermost body of one real or int equation runs
   a row at a time ([compile_span], [Compile.compile_store]).

   Compilation of each top-level component is deferred until the moment
   it executes, so arrays whose bounds depend on computed scalar locals
   allocate only after those scalars exist — the topological component
   order produced by the scheduler (with the bound edges of §3.1)
   guarantees this is sound.

   A module called from an equation is scheduled on its first call,
   under the caller's passes, and its schedule is kept in a table that
   the run creates and its nested runs share.  Nothing outlives the run,
   so a resident process such as `psc serve` holds no schedule for a
   module it is not running. *)

open Ps_sem
open Value
module Trace = Ps_obs.Trace
module Prof = Ps_obs.Prof

exception Runtime_error = Eval.Runtime_error

let fail fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

(* The transformation passes the run was asked for.  Callee modules are
   scheduled under the same passes as the caller. *)
type sched_flags = {
  sf_sink : bool;
  sf_fuse : bool;
  sf_trim : bool;
  sf_collapse : bool;
}

let no_sched_flags =
  { sf_sink = false; sf_fuse = false; sf_trim = false; sf_collapse = false }

type opts = {
  pool : Ps_runtime.Pool.t option;  (* None: fully sequential *)
  use_windows : bool;               (* honor virtual-dimension windows *)
  collect_stats : bool;             (* count equation evaluations *)
  sched_flags : sched_flags;        (* passes applied to callee schedules *)
  policy : Ps_sched.Policy.table option;  (* per-nest schedule shapes *)
}

let default_opts =
  { pool = None; use_windows = true; collect_stats = false;
    sched_flags = no_sched_flags; policy = None }

(* Smallest point count worth forking: below it a forked nest runs on
   the calling domain. *)
let min_par = 4

type run_result = {
  outputs : (string * value) list;
  allocated : (string * int) list;  (* words allocated per data item *)
  evaluations : int option;         (* equation evaluations, if counted *)
  row_evaluations : int option;     (* those run a row at a time *)
}

(* ------------------------------------------------------------------ *)

(* The callee schedules of one run, by module name: the program and the
   passes are fixed within a run, so the name is a complete key.  A run
   and its nested runs share one table, which dies with the run.  The
   mutex is there because module calls can run inside DOALL bodies on
   pool domains. *)
type scheds = {
  sc_table :
    (string, Ps_sched.Flowchart.t * Ps_sched.Schedule.window list) Hashtbl.t;
  sc_mutex : Mutex.t;
}

type state = {
  st_scheds : scheds;
  st_prog : Elab.eprogram;
  st_em : Elab.emodule;
  st_opts : opts;
  st_windows : Ps_sched.Schedule.window list;
  st_slabs : (string, slab) Hashtbl.t;
  st_evals : int Atomic.t;
  st_row_evals : int Atomic.t;
  st_forks : (Ps_sched.Policy.candidate * Ps_sched.Policy.decision) list;
      (* Every fork candidate with its decision, resolved against this
         flowchart's own loop records (only with a pool or while
         profiling): looked up by physical identity while compiling, so
         key matching happens once per run, not per nest. *)
}

let candidate st (l : Ps_sched.Flowchart.loop) =
  List.find_opt (fun (c, _) -> c.Ps_sched.Policy.c_loop == l) st.st_forks

(* The pool and decision of a fork candidate whose decision forks.
   [None] runs the loop, and its whole nest, on the calling domain:
   inner parallel loops are never candidates, so a nest pinned
   sequential stays sequential throughout. *)
let fork st l =
  match (st.st_opts.pool, candidate st l) with
  | Some pool, Some (_, d) when d.Ps_sched.Policy.d_par -> Some (pool, d)
  | _ -> None

(* The pool deal for one nest: [parallel_for] with the decision's
   steal/chunk/wake settings. *)
let deal (d : Ps_sched.Policy.decision) pool ~lo ~hi body =
  Ps_runtime.Pool.parallel_for ?chunk:d.Ps_sched.Policy.d_chunk_min
    ~steal:d.Ps_sched.Policy.d_steal ?wake:d.Ps_sched.Policy.d_wake pool ~lo ~hi
    body

(* A callee's schedule, made on its first call in the run.  Scheduling
   under the lock makes concurrent first calls wait for one schedule
   instead of each making their own. *)
let callee_schedule st (em : Elab.emodule) =
  let sc = st.st_scheds in
  Mutex.protect sc.sc_mutex @@ fun () ->
  match Hashtbl.find_opt sc.sc_table em.Elab.em_name with
  | Some cs -> cs
  | None ->
    let f = st.st_opts.sched_flags in
    let r =
      Ps_sched.Passes.schedule ~sink:f.sf_sink ~fuse:f.sf_fuse ~trim:f.sf_trim
        ~collapse:f.sf_collapse em
    in
    let cs = Ps_sched.Passes.(r.sc_flowchart, r.sc_windows) in
    Hashtbl.add sc.sc_table em.Elab.em_name cs;
    cs

let window_of st name dim =
  if not st.st_opts.use_windows then None
  else
    List.find_map
      (fun (w : Ps_sched.Schedule.window) ->
        if String.equal w.Ps_sched.Schedule.w_data name && w.Ps_sched.Schedule.w_dim = dim
        then Some w.Ps_sched.Schedule.w_size
        else None)
      st.st_windows

let rec slab_of st name : slab =
  match Hashtbl.find_opt st.st_slabs name with
  | Some s -> s
  | None ->
    let data =
      match Elab.find_data st.st_em name with
      | Some d -> d
      | None -> fail "unknown data item %s" name
    in
    let dims = Stypes.dims data.Elab.d_ty in
    let elem = Stypes.elem_ty data.Elab.d_ty in
    let ectx = eval_ctx st (fun _ -> None) in
    let dim_specs =
      List.mapi
        (fun p (sr : Stypes.subrange) ->
          let lo = Eval.eval_int ectx sr.Stypes.sr_lo in
          let hi = Eval.eval_int ectx sr.Stypes.sr_hi in
          let extent = hi - lo + 1 in
          if extent < 0 then
            fail "dimension %d of %s has negative extent (%d..%d)" (p + 1) name lo hi;
          let window =
            match window_of st name p with
            | Some w -> min w extent
            | None -> extent
          in
          (lo, extent, window))
        dims
    in
    let s = make_slab ~name ~elem ~dims:dim_specs in
    Hashtbl.add st.st_slabs name s;
    s

and eval_ctx st index : Eval.ctx =
  { Eval.c_em = st.st_em;
    c_slab = slab_of st;
    c_index = index;
    c_call = call st }

and call st fname (args : value list) : value list =
  match Elab.find_module st.st_prog fname with
  | None -> fail "call to unknown module %s" fname
  | Some callee ->
    let flowchart, windows = callee_schedule st callee in
    let inputs =
      try
        List.map2
          (fun (d : Elab.data) v -> (d.Elab.d_name, v))
          callee.Elab.em_params args
      with Invalid_argument _ ->
        fail "call to %s: expected %d arguments, got %d" fname
          (List.length callee.Elab.em_params)
          (List.length args)
    in
    (* Nested module bodies run sequentially: the caller may already be
       inside a parallel region. *)
    (* Callees run sequentially inside the caller's iterations; a policy
       is resolved against the caller's flowchart and does not follow. *)
    let opts = { st.st_opts with pool = None; policy = None } in
    let r =
      execute st.st_scheds ~opts ~prog:st.st_prog callee ~flowchart ~windows
        ~inputs
    in
    List.map snd r.outputs

(* ------------------------------------------------------------------ *)
(* Input seeding *)

and seed_inputs st (inputs : (string * value) list) =
  (* Scalars first: array extents may depend on them. *)
  let scalar_first =
    List.stable_sort
      (fun (_, a) (_, b) ->
        match a, b with
        | Vscalar _, Varray _ -> -1
        | Varray _, Vscalar _ -> 1
        | _ -> 0)
      inputs
  in
  List.iter
    (fun (name, v) ->
      let data =
        match Elab.find_data st.st_em name with
        | Some d when d.Elab.d_kind = Elab.Input -> d
        | Some _ -> fail "%s is not an input parameter" name
        | None -> fail "unknown input %s" name
      in
      (* Validate shape and kind against the declaration. *)
      let dims = Stypes.dims data.Elab.d_ty in
      let given_dims = match v with Vscalar _ -> 0 | Varray g -> ndims g in
      if List.length dims <> given_dims then
        fail "input %s: expected %d dimensions, got %d" name (List.length dims)
          given_dims;
      match v with
      | Vscalar sc ->
        let s = make_slab ~name ~elem:data.Elab.d_ty ~dims:[] in
        (try set_scalar s [||] sc
         with Invalid_argument _ ->
           fail "input %s: %a given but %s declared" name pp_scalar sc
             (kind_name s.s_kind));
        Hashtbl.replace st.st_slabs name s
      | Varray given ->
        let ectx = eval_ctx st (fun _ -> None) in
        List.iteri
          (fun p (sr : Stypes.subrange) ->
            let lo = Eval.eval_int ectx sr.Stypes.sr_lo in
            let hi = Eval.eval_int ectx sr.Stypes.sr_hi in
            let di = given.s_dims.(p) in
            if di.di_lo <> lo || di.di_extent <> hi - lo + 1 then
              fail "input %s: dimension %d is %d..%d but %d..%d was declared"
                name (p + 1) di.di_lo
                (di.di_lo + di.di_extent - 1)
                lo hi)
          dims;
        let kind = kind_of_ty (Stypes.elem_ty data.Elab.d_ty) in
        if given.s_kind <> kind then
          fail "input %s: %s elements given but %s declared" name
            (kind_name given.s_kind) (kind_name kind);
        Hashtbl.replace st.st_slabs name { given with s_name = name })
    scalar_first;
  (* Every parameter must be supplied. *)
  List.iter
    (fun (d : Elab.data) ->
      if not (Hashtbl.mem st.st_slabs d.Elab.d_name) then
        fail "missing input %s" d.Elab.d_name)
    st.st_em.Elab.em_params

(* ------------------------------------------------------------------ *)
(* Descriptor compilation *)

and compile_descs st (benv : (string * int) list) (descs : Ps_sched.Flowchart.t)
    ~(max_slot : int ref) : Compile.frame -> unit =
  match List.map (compile_desc st benv ~max_slot) descs with
  | [ f ] -> f
  | fs ->
    let fns = Array.of_list fs in
    fun fr ->
      for i = 0 to Array.length fns - 1 do
        (Array.unsafe_get fns i) fr
      done

and compile_desc st benv ~max_slot (d : Ps_sched.Flowchart.descriptor) :
    Compile.frame -> unit =
  match d with
  | Ps_sched.Flowchart.D_data name ->
    (* Ensure allocation at the scheduled point. *)
    fun _ -> ignore (slab_of st name)
  | Ps_sched.Flowchart.D_eq { er_id; er_aliases } ->
    count_point st er_id (fst (compile_equation st benv ~aliases:er_aliases er_id))
  | Ps_sched.Flowchart.D_solve s ->
    (* A solved subscript: compute the index value from the enclosing
       loop variables; run the body only when it lands in range. *)
    let slot = List.length benv in
    if slot + 1 > !max_slot then max_slot := slot + 1;
    let cctx = compile_ctx st benv in
    let rhs_f = Compile.compile_int cctx s.Ps_sched.Flowchart.sv_rhs in
    let lo_f = Compile.compile_int cctx s.Ps_sched.Flowchart.sv_range.Stypes.sr_lo in
    let hi_f = Compile.compile_int cctx s.Ps_sched.Flowchart.sv_range.Stypes.sr_hi in
    let benv' = (s.Ps_sched.Flowchart.sv_var, slot) :: benv in
    let body = compile_descs st benv' ~max_slot s.Ps_sched.Flowchart.sv_body in
    fun fr ->
      let v = rhs_f fr in
      if v >= lo_f fr && v <= hi_f fr then begin
        fr.(slot) <- v;
        body fr
      end
  | Ps_sched.Flowchart.D_loop l ->
    let slot = List.length benv in
    if slot + 1 > !max_slot then max_slot := slot + 1;
    let cctx = compile_ctx st benv in
    let lo_f = Compile.compile_int cctx l.Ps_sched.Flowchart.lp_range.Stypes.sr_lo in
    let hi_f = Compile.compile_int cctx l.Ps_sched.Flowchart.lp_range.Stypes.sr_hi in
    let benv' = (l.Ps_sched.Flowchart.lp_var, slot) :: benv in
    (* Index order on the calling domain: a DO loop, or a parallel loop
       that does not fork. *)
    let in_order () =
      let span = compile_span st benv' ~max_slot ~slot l.Ps_sched.Flowchart.lp_body in
      fun fr ->
        let lo = lo_f fr and hi = hi_f fr in
        span fr lo hi
    in
    let fk = fork st l in
    let f =
      match (l.Ps_sched.Flowchart.lp_kind, fk) with
      | Ps_sched.Flowchart.Parallel, Some (pool, d) ->
        compile_parallel_band st benv ~max_slot pool l d
      | (Ps_sched.Flowchart.Iterative | Ps_sched.Flowchart.Parallel), _ -> in_order ()
      | Ps_sched.Flowchart.Grouped g, _ ->
        compile_grouped st benv' ~max_slot ~slot ~lo_f ~hi_f l fk ~in_order (fun _ ->
            g)
      | Ps_sched.Flowchart.Inspected e, _ ->
        (* Inspector/executor: evaluate the dependence distance at loop
           entry (the form only mentions scalar inputs, all in scope
           here); a non-positive distance means the partition premise is
           false and the schedule cannot run this instance. *)
        let d_f = Compile.compile_int cctx e in
        let pe = Ps_lang.Pretty.expr_to_string e in
        compile_grouped st benv' ~max_slot ~slot ~lo_f ~hi_f l fk ~in_order (fun fr ->
            let d = d_f fr in
            if d < 1 then
              fail "inspector for loop %s: dependence distance %s = %d is not \
                    positive"
                l.Ps_sched.Flowchart.lp_var pe d;
            d)
    in
    profile_loop st l f

(* The profiler site of an equation, when profiling.  Sites are created
   at compile time (once per node) so the execution wrapper is just
   clock-read + two atomic adds; a disabled profiler leaves the closure
   untouched. *)
and eq_site st er_id =
  if Prof.enabled () then begin
    let q = Elab.eq_exn st.st_em er_id in
    Some (Prof.register ~kind:"eq" ~loc:q.Elab.q_loc q.Elab.q_name)
  end
  else None

(* One evaluation of an equation, counted and profiled. *)
and count_point st er_id w =
  let w =
    match eq_site st er_id with
    | Some site ->
      fun fr ->
        let t0 = Ps_obs.Metrics.now_ns () in
        w fr;
        Prof.hit site ~count:1 ~ns:(Ps_obs.Metrics.now_ns () - t0)
    | None -> w
  in
  if st.st_opts.collect_stats then (
    let c = st.st_evals in
    fun fr ->
      Atomic.incr c;
      w fr)
  else w

(* A row of evaluations, counted and profiled once with its point
   count. *)
and count_row st er_id run =
  let run =
    match eq_site st er_id with
    | Some site ->
      fun fr lo hi ->
        let t0 = Ps_obs.Metrics.now_ns () in
        run fr lo hi;
        if hi >= lo then
          Prof.hit site ~count:(hi - lo + 1) ~ns:(Ps_obs.Metrics.now_ns () - t0)
    | None -> run
  in
  if st.st_opts.collect_stats then (
    let c = st.st_evals and r = st.st_row_evals in
    fun fr lo hi ->
      if hi >= lo then begin
        ignore (Atomic.fetch_and_add c (hi - lo + 1));
        ignore (Atomic.fetch_and_add r (hi - lo + 1))
      end;
      run fr lo hi)
  else run

(* A loop body over its loop variable's slot: [span fr lo hi] runs it at
   slot = [lo], ..., [hi] in index order.  A body that is one equation
   with a row form runs a row at a time ([Compile.row]); it
   counts its evaluations, and records its profiler time, once per row
   with the row's point count. *)
and compile_span st benv' ~max_slot ~slot (body : Ps_sched.Flowchart.t) :
    Compile.frame -> int -> int -> unit =
  let per_point w fr lo hi =
    for v = lo to hi do
      fr.(slot) <- v;
      w fr
    done
  in
  match body with
  | [ Ps_sched.Flowchart.D_eq { er_id; er_aliases } ] -> (
    match compile_equation st benv' ~row:slot ~aliases:er_aliases er_id with
    | _, Some { Compile.rw_run; rw_scratch } ->
      if slot + 1 + rw_scratch > !max_slot then max_slot := slot + 1 + rw_scratch;
      count_row st er_id rw_run
    | w, None -> per_point (count_point st er_id w))
  | _ -> per_point (compile_descs st benv' ~max_slot body)

(* Group-partitioned execution: the residue classes mod [g] (a static
   modulus for DOGROUP, the inspected runtime distance for DOINSPECT)
   are mutually independent — a DOALL over the classes, ascending index
   order within each.  Sequential execution keeps plain ascending order:
   every element is written exactly once, so any dependence-respecting
   order computes identical bits, and the inspection still runs. *)
and compile_grouped st benv' ~max_slot ~slot ~lo_f ~hi_f
    (l : Ps_sched.Flowchart.loop) fk ~in_order (g_f : Compile.frame -> int) :
    Compile.frame -> unit =
  match fk with
  | None ->
    let run = in_order () in
    fun fr ->
      ignore (g_f fr : int);
      run fr
  | Some (pool, d) ->
    let body = compile_descs st benv' ~max_slot l.Ps_sched.Flowchart.lp_body in
    fun fr ->
      let g = g_f fr in
      let lo = lo_f fr and hi = hi_f fr in
      if hi - lo + 1 < min_par || g < 2 then
        for v = lo to hi do
          fr.(slot) <- v;
          body fr
        done
      else
        deal d pool ~lo:0 ~hi:(g - 1) (fun clo chi ->
            let fr' = Array.copy fr in
            for r = clo to chi do
              let v = ref (lo + r) in
              while !v <= hi do
                fr'.(slot) <- !v;
                body fr';
                v := !v + g
              done
            done)

(* Loop-level profiling: a site per compiled loop node (inclusive time,
   so a hot inner equation also surfaces through its enclosing DOALL),
   named by [Policy.site_name] and anchored at the first equation the
   loop body schedules. *)
and profile_loop st (l : Ps_sched.Flowchart.loop) (f : Compile.frame -> unit) :
    Compile.frame -> unit =
  if not (Prof.enabled ()) then f
  else begin
    let label =
      match candidate st l with
      | Some (c, _) -> c.Ps_sched.Policy.c_key
      | None -> l.Ps_sched.Flowchart.lp_var
    in
    let loc =
      match Ps_sched.Flowchart.equations l.Ps_sched.Flowchart.lp_body with
      | id :: _ -> Some (Elab.eq_exn st.st_em id).Elab.q_loc
      | [] -> None
    in
    let site =
      Prof.register ?loc ~kind:"loop" (Ps_sched.Policy.site_name l label)
    in
    fun fr ->
      let t0 = Ps_obs.Metrics.now_ns () in
      f fr;
      Prof.hit site ~count:1 ~ns:(Ps_obs.Metrics.now_ns () - t0)
  end

(* Parallel execution of a DOALL, possibly as the head of a collapsed
   band.  When the decision flattens, this backend flattens as much of
   the perfect DOALL band ([Collapse.band]) as the bound shapes allow:

   - a *rectangular* prefix (no inner bound mentions a band variable)
     becomes one product space decoded by div/mod once per chunk and
     walked like an odometer;
   - when only the head is rectangular, a depth-2 *triangular* band
     (inner bounds depending on the head variable — the wavefront shape)
     is flattened through per-row prefix sums built once per epoch, with
     chunk starts located by binary search.

   Either way the decode cost is per *chunk*, not per point; inside a
   chunk the band variables advance incrementally exactly as the nested
   loops would, the innermost one a row piece at a time.  Whatever is
   not flattened (deeper chain members, the real body) compiles
   sequentially inside.

   The fork heuristic compares [min_par] against the *total* point count
   of the band: exact for a flattened band, and estimated (inner extents
   sampled at the first row) for a band run nested, so a
   [DOALL I(3) (DOALL J(10^6))] still forks even when it is not
   flattened.

   The decision at the head governs the whole band: whether it
   flattens, and the shape of the deal. *)

and compile_parallel_band st benv ~max_slot pool (l : Ps_sched.Flowchart.loop)
    (d : Ps_sched.Policy.decision) : Compile.frame -> unit =
  let open Ps_sched.Flowchart in
  let pfor = deal d in
  let band = Ps_sched.Collapse.band l in
  (* Compile each band loop's bounds with the previous band variables in
     scope; returns (slot, lo_f, hi_f) outermost first plus the extended
     environment for the innermost body. *)
  let compile_bounds benv loops =
    let rec go benv acc = function
      | [] -> (List.rev acc, benv)
      | (bl : loop) :: rest ->
        let s = List.length benv in
        if s + 1 > !max_slot then max_slot := s + 1;
        let cctx = compile_ctx st benv in
        let lo_f = Compile.compile_int cctx bl.lp_range.Stypes.sr_lo in
        let hi_f = Compile.compile_int cctx bl.lp_range.Stypes.sr_hi in
        go ((bl.lp_var, s) :: benv) ((s, lo_f, hi_f) :: acc) rest
    in
    go benv [] loops
  in
  let range_uses vars (r : Stypes.subrange) =
    let fv =
      Ps_lang.Ast.free_vars r.Stypes.sr_lo @ Ps_lang.Ast.free_vars r.Stypes.sr_hi
    in
    List.exists (fun v -> List.mem v vars) fv
  in
  (* Longest prefix of [rest] whose bounds mention no band variable. *)
  let rec rect_prefix vars = function
    | (bl : loop) :: rest when not (range_uses vars bl.lp_range) ->
      bl :: rect_prefix (bl.lp_var :: vars) rest
    | _ -> []
  in
  let shape =
    match if d.Ps_sched.Policy.d_collapse then band else [ l ] with
    | [] | [ _ ] -> `Single
    | l0 :: rest -> (
      match rect_prefix [ l0.lp_var ] rest with
      | _ :: _ as tail -> `Rect (l0 :: tail)
      | [] -> `Tri (l0, List.hd rest))
  in
  match shape with
  | `Single ->
    let slot = List.length benv in
    if slot + 1 > !max_slot then max_slot := slot + 1;
    let cctx = compile_ctx st benv in
    let lo_f = Compile.compile_int cctx l.lp_range.Stypes.sr_lo in
    let hi_f = Compile.compile_int cctx l.lp_range.Stypes.sr_hi in
    let benv' = (l.lp_var, slot) :: benv in
    let span = compile_span st benv' ~max_slot ~slot l.lp_body in
    (* Estimated band total for the fork decision: product of the
       structural nest's extents, inner bounds sampled at the first row
       (the band slots are scratch until the loop runs, so writing the
       sample values into the frame is harmless). *)
    let est_bounds, _ = compile_bounds benv band in
    let est_total fr =
      List.fold_left
        (fun total (s, lo_f, hi_f) ->
          if total = 0 then 0
          else begin
            let lo = lo_f fr and hi = hi_f fr in
            fr.(s) <- lo;
            total * max 0 (hi - lo + 1)
          end)
        1 est_bounds
    in
    fun fr ->
      let total = est_total fr in
      let lo = lo_f fr and hi = hi_f fr in
      if total < min_par then span fr lo hi
      else
        pfor pool ~lo ~hi (fun clo chi ->
            let fr' = Array.copy fr in
            span fr' clo chi)
  | `Rect flat ->
    let bounds, benv_band = compile_bounds benv flat in
    let last = List.nth flat (List.length flat - 1) in
    let bounds = Array.of_list bounds in
    let k = Array.length bounds in
    let slots = Array.map (fun (s, _, _) -> s) bounds in
    let span = compile_span st benv_band ~max_slot ~slot:slots.(k - 1) last.lp_body in
    fun fr ->
      let los = Array.make k 0 and his = Array.make k 0 in
      let total = ref 1 in
      Array.iteri
        (fun i (_, lo_f, hi_f) ->
          let lo = lo_f fr and hi = hi_f fr in
          los.(i) <- lo;
          his.(i) <- hi;
          total := !total * max 0 (hi - lo + 1))
        bounds;
      let total = !total in
      if total > 0 then begin
        (* Run flattened points [g_lo..g_hi]: div/mod decode of the
           first point, then an odometer walk a row of the innermost
           variable at a time. *)
        let run fr g_lo g_hi =
          let g = ref g_lo in
          for i = k - 1 downto 0 do
            let e = his.(i) - los.(i) + 1 in
            fr.(slots.(i)) <- los.(i) + (!g mod e);
            g := !g / e
          done;
          let inner = slots.(k - 1) in
          let left = ref (g_hi - g_lo + 1) in
          while !left > 0 do
            let v = fr.(inner) in
            let last = min his.(k - 1) (v + !left - 1) in
            span fr v last;
            left := !left - (last - v + 1);
            fr.(inner) <- los.(k - 1);
            let i = ref (k - 2) in
            let carrying = ref true in
            while !carrying && !i >= 0 do
              let s = slots.(!i) in
              let v = fr.(s) + 1 in
              if v > his.(!i) then begin
                fr.(s) <- los.(!i);
                decr i
              end
              else begin
                fr.(s) <- v;
                carrying := false
              end
            done
          done
        in
        if total < min_par then run fr 0 (total - 1)
        else
          pfor pool ~lo:0 ~hi:(total - 1) (fun g_lo g_hi ->
              let fr' = Array.copy fr in
              run fr' g_lo g_hi)
      end
  | `Tri (l0, l1) ->
    let bounds, benv_band = compile_bounds benv [ l0; l1 ] in
    let slot0, lo0_f, hi0_f = List.nth bounds 0 in
    let slot1, lo1_f, hi1_f = List.nth bounds 1 in
    let span = compile_span st benv_band ~max_slot ~slot:slot1 l1.lp_body in
    fun fr ->
      let lo0 = lo0_f fr and hi0 = hi0_f fr in
      let n = hi0 - lo0 + 1 in
      if n > 0 then begin
        (* Row extents and their prefix sums: psum.(r) counts the points
           before row r, so psum.(n) is the band total. *)
        let row_lo = Array.make n 0 and row_hi = Array.make n 0 in
        let psum = Array.make (n + 1) 0 in
        for r = 0 to n - 1 do
          fr.(slot0) <- lo0 + r;
          let lo1 = lo1_f fr and hi1 = hi1_f fr in
          row_lo.(r) <- lo1;
          row_hi.(r) <- hi1;
          psum.(r + 1) <- psum.(r) + max 0 (hi1 - lo1 + 1)
        done;
        let total = psum.(n) in
        if total > 0 then begin
          let run fr g_lo g_hi =
            (* Largest row r with psum.(r) <= g_lo (empty rows at the
               boundary are skipped by taking the largest). *)
            let a = ref 0 and b = ref (n - 1) in
            while !a < !b do
              let m = (!a + !b + 1) / 2 in
              if psum.(m) <= g_lo then a := m else b := m - 1
            done;
            let r = ref !a in
            let v1 = ref (row_lo.(!r) + (g_lo - psum.(!r))) in
            let left = ref (g_hi - g_lo + 1) in
            while !left > 0 do
              (* The rest of row r, or of the chunk. *)
              let last = min row_hi.(!r) (!v1 + !left - 1) in
              fr.(slot0) <- lo0 + !r;
              span fr !v1 last;
              left := !left - (last - !v1 + 1);
              if !left > 0 then begin
                (* left > 0 guarantees a later non-empty row. *)
                incr r;
                while row_lo.(!r) > row_hi.(!r) do incr r done;
                v1 := row_lo.(!r)
              end
            done
          in
          if total < min_par then run fr 0 (total - 1)
          else
            pfor pool ~lo:0 ~hi:(total - 1) (fun g_lo g_hi ->
                let fr' = Array.copy fr in
                run fr' g_lo g_hi)
        end
      end

and compile_ctx st (benv : (string * int) list) : Compile.cctx =
  { Compile.k_em = st.st_em;
    k_slab = slab_of st;
    k_slot = (fun v -> List.assoc_opt v benv);
    k_call = call st }

and compile_equation ?row st benv ~aliases er_id :
    (Compile.frame -> unit) * Compile.row option =
  let q = Elab.eq_exn st.st_em er_id in
  (* Resolve the frame slot of an equation index variable, following the
     scheduler's renamings. *)
  let slot_of v =
    let v' = match List.assoc_opt v aliases with Some l -> l | None -> v in
    match List.assoc_opt v' benv with
    | Some s -> Some s
    | None -> List.assoc_opt v benv
  in
  List.iter
    (fun (ix : Elab.index) ->
      if slot_of ix.Elab.ix_var = None then
        fail "%s: index %s is not bound by an enclosing loop" q.Elab.q_name
          ix.Elab.ix_var)
    q.Elab.q_indices;
  let cctx = { (compile_ctx st benv) with Compile.k_slot = slot_of } in
  let sub_exprs (df : Elab.def) =
    List.map
      (function
        | Elab.Sub_index ix -> Ps_lang.Ast.var_e ix.Elab.ix_var
        | Elab.Sub_fixed e -> e)
      df.Elab.df_subs
  in
  let compile_subs df (s : slab) = Compile.compile_offset cctx s (sub_exprs df) in
  let point w = (w, None) in
  match q.Elab.q_defs, q.Elab.q_rhs.Ps_lang.Ast.e with
  | [ df ], _
    when df.Elab.df_path <> []
         && List.length df.Elab.df_subs
            = List.length
                (Stypes.dims (Elab.data_exn st.st_em df.Elab.df_data).Elab.d_ty) ->
    (* Per-field record definition: read-modify-write the record box.
       Distinct fields of one element are written by distinct equations,
       which the scheduler orders sequentially, so there is no race. *)
    let s = slab_of st df.Elab.df_data in
    let off_f = compile_subs df s in
    let rhs = Compile.compile_scalar cctx q.Elab.q_rhs in
    let rec update fields path v =
      match path with
      | [] -> fail "empty field path"
      | [ f ] -> (f, v) :: List.remove_assoc f fields
      | f :: rest ->
        let sub =
          match List.assoc_opt f fields with
          | Some (Sc_record inner) -> inner
          | _ -> []
        in
        (f, Sc_record (update sub rest v)) :: List.remove_assoc f fields
    in
    (match s.s_data with
     | PBox arr ->
       point (fun fr ->
           let off = off_f fr in
           let current =
             match Array.unsafe_get arr off with
             | Brecord fields -> fields
             | Bnone -> []
           in
           Array.unsafe_set arr off
             (Brecord (update current df.Elab.df_path (rhs fr))))
     | _ -> fail "field definition on a non-record %s" df.Elab.df_data)
  | [ df ], _
    when List.length df.Elab.df_subs
         = List.length (Stypes.dims (Elab.data_exn st.st_em df.Elab.df_data).Elab.d_ty)
    -> (
    let s = slab_of st df.Elab.df_data in
    (* Each writer computes the value before the destination offset. *)
    match s.s_data with
    | PFloat _ | PInt _ -> Compile.compile_store ?row cctx s (sub_exprs df) q.Elab.q_rhs
    | PBool b ->
      let off_f = compile_subs df s in
      let rhs = Compile.compile_bool cctx q.Elab.q_rhs in
      point (fun fr ->
          let v = rhs fr in
          Bytes.unsafe_set b (off_f fr) (if v then '\001' else '\000'))
    | PBox arr ->
      let off_f = compile_subs df s in
      let rhs = Compile.compile_scalar cctx q.Elab.q_rhs in
      point (fun fr ->
          match rhs fr with
          | Sc_record fields -> Array.unsafe_set arr (off_f fr) (Brecord fields)
          | _ -> fail "record equation produced a non-record"))
  | defs, Ps_lang.Ast.Call (fname, args) ->
    (* Module call: multi-result, or whole-array assignment. *)
    let writers =
      List.map
        (fun (df : Elab.def) ->
          let s = slab_of st df.Elab.df_data in
          let off_f =
            if List.length df.Elab.df_subs = ndims s then Some (compile_subs df s)
            else None
          in
          (s, off_f))
        defs
    in
    point @@ fun fr ->
      let ectx =
        eval_ctx st (fun v ->
            match slot_of v with Some s -> Some fr.(s) | None -> None)
      in
      let vargs = List.map (Eval.eval ectx) args in
      let results = call st fname vargs in
      (try
         List.iter2
           (fun (s, off_f) v ->
             match v, off_f with
             | Vscalar sc, Some off_f -> (
               let off = off_f fr in
               match s.s_data, sc with
               | PFloat a, _ -> a.(off) <- as_float sc
               | PInt a, _ -> a.(off) <- as_int sc
               | PBool b, Sc_bool x -> Bytes.set b off (if x then '\001' else '\000')
               | PBox a, Sc_record fields -> a.(off) <- Brecord fields
               | _ -> fail "result kind mismatch writing %s" s.s_name)
             | Vscalar _, None -> fail "scalar result for array %s" s.s_name
             | Varray src, _ ->
               (* Whole-array result assigned to a whole-array LHS. *)
               copy_into ~src ~dst:s)
           writers results
       with Invalid_argument _ ->
         fail "module %s returned %d results for %d variables" fname
           (List.length results) (List.length writers))
  | _ ->
    fail "%s: equation defines several variables but is not a module call"
      q.Elab.q_name

(* [get_scalar]/[set_scalar] below reach [Value.offset] with no bounds
   check; the walk covers the declared box of [src], so every subscript
   is in declared range by construction (window dimensions map through
   the slab's window as usual). *)
and copy_into ~src ~dst =
  if ndims src <> ndims dst then fail "array shape mismatch writing %s" dst.s_name;
  iter_box src (fun idx -> set_scalar dst idx (get_scalar src idx))

(* ------------------------------------------------------------------ *)

and execute scheds ~opts ~(flowchart : Ps_sched.Flowchart.t)
    ~(windows : Ps_sched.Schedule.window list) ~prog (em : Elab.emodule) ~inputs
    : run_result =
  Trace.with_span ~args:[ ("module", em.Elab.em_name) ] "run" @@ fun () ->
  let st =
    { st_scheds = scheds;
      st_prog = prog;
      st_em = em;
      st_opts = opts;
      st_windows = windows;
      st_slabs = Hashtbl.create 16;
      st_evals = Atomic.make 0;
      st_row_evals = Atomic.make 0;
      st_forks =
        (if Option.is_some opts.pool || Prof.enabled () then
           Ps_sched.Policy.resolve opts.policy flowchart
         else []) }
  in
  seed_inputs st inputs;
  (* Compile and execute each top-level descriptor in turn, so that data
     allocation happens after the scalars its bounds depend on. *)
  List.iter
    (fun d ->
      let max_slot = ref 0 in
      let f = compile_desc st [] ~max_slot d in
      let frame = Array.make (max 1 !max_slot) 0 in
      f frame)
    flowchart;
  let outputs =
    List.map
      (fun (d : Elab.data) ->
        let s = slab_of st d.Elab.d_name in
        if ndims s = 0 then (d.Elab.d_name, Vscalar (get_scalar s [||]))
        else (d.Elab.d_name, Varray s))
      em.Elab.em_results
  in
  let allocated =
    Hashtbl.fold (fun name s acc -> (name, allocated_words s) :: acc) st.st_slabs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let counted c = if opts.collect_stats then Some (Atomic.get c) else None in
  { outputs;
    allocated;
    evaluations = counted st.st_evals;
    row_evaluations = counted st.st_row_evals }

let run ?(opts = default_opts) ~flowchart ~windows ~prog em ~inputs =
  execute
    { sc_table = Hashtbl.create 4; sc_mutex = Mutex.create () }
    ~opts ~flowchart ~windows ~prog em ~inputs

(* Convenience input builders. *)

let scalar_int n = Vscalar (Sc_int n)

let scalar_real f = Vscalar (Sc_real f)

let scalar_bool b = Vscalar (Sc_bool b)

(* An input slab over the inclusive bounds [dims], each point set by
   [set] in row-major order. *)
let input_array ty ~dims set =
  let s =
    make_slab ~name:"<input>" ~elem:(Stypes.Scalar ty)
      ~dims:(List.map (fun (lo, hi) -> (lo, hi - lo + 1, hi - lo + 1)) dims)
  in
  iter_box s (fun idx -> set s (offset s idx) idx);
  Varray s

let array_real ~dims (f : int array -> float) : value =
  input_array Stypes.Sreal ~dims (fun s off idx -> set_float s off (f idx))

let array_int ~dims (f : int array -> int) : value =
  input_array Stypes.Sint ~dims (fun s off idx -> set_int s off (f idx))

(* Read a scalar out of an output array value. *)
let read_real v idx =
  match v with
  | Varray s -> as_float (get_scalar s idx)
  | Vscalar sc -> as_float sc

let read_int v idx =
  match v with
  | Varray s -> as_int (get_scalar s idx)
  | Vscalar sc -> as_int sc
