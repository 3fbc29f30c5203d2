(* Public API of the PS compiler.

   This facade ties the pipeline together:

     source --parse--> AST --elaborate--> typed module
            --graph--> dependency graph --schedule--> flowchart + windows
            --[hyperplane]--> transformed module (re-enters the pipeline)
            --emit_c--> C text      --run--> results (sequential or DOALL)

   Every component exception is converted to a single located [Error], so
   drivers (CLI, examples, tests) handle one exception type. *)

module Ast = Ps_lang.Ast
module Loc = Ps_lang.Loc
module Parser = Ps_lang.Parser
module Pretty = Ps_lang.Pretty
module Stypes = Ps_sem.Stypes
module Linexpr = Ps_sem.Linexpr
module Elab = Ps_sem.Elab
module Sa_check = Ps_sem.Sa_check
module Dgraph = Ps_graph.Dgraph
module Label = Ps_graph.Label
module Distance = Ps_graph.Distance
module Build = Ps_graph.Build
module Scc = Ps_graph.Scc
module Render = Ps_graph.Render
module Flowchart = Ps_sched.Flowchart
module Schedule = Ps_sched.Schedule
module Sink = Ps_sched.Sink
module Analysis = Ps_sched.Analysis
module Fuse = Ps_sched.Fuse
module Trim = Ps_sched.Trim
module Collapse = Ps_sched.Collapse
module Passes = Ps_sched.Passes
module Policy = Ps_sched.Policy
module Costmodel = Ps_sched.Costmodel
module Imatrix = Ps_hyper.Imatrix
module Ineq = Ps_hyper.Ineq
module Solve = Ps_hyper.Solve
module Transform = Ps_hyper.Transform
module Eqn = Ps_eqn.Eqn
module Diag = Ps_diag.Diag
module Verify = Ps_check.Verify
module Lint = Ps_check.Lint
module Emit = Ps_codegen.Emit
module Value = Ps_interp.Value
module Eval = Ps_interp.Eval
module Exec = Ps_interp.Exec
module Pool = Ps_runtime.Pool
module Json = Ps_json
module Trace = Ps_obs.Trace
module Metrics = Ps_obs.Metrics
module Prof = Ps_obs.Prof

exception Error of string

let error fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

let wrap f =
  try f () with
  | Ps_lang.Lexer.Error (m, span) ->
    error "lexical error: %s (%s)" m (Loc.to_string span)
  | Ps_lang.Parser.Error (m, span) ->
    error "syntax error: %s (%s)" m (Loc.to_string span)
  | Ps_eqn.Eqn.Error (m, span) ->
    error "equation notation: %s (%s)" m (Loc.to_string span)
  | Ps_sem.Elab.Error (m, span) ->
    error "semantic error: %s (%s)" m (Loc.to_string span)
  | Ps_sched.Schedule.Unschedulable { reason; component } ->
    error
      "the equations cannot be scheduled: %s (component {%s}); the hyperplane \
       transformation of section 4 may apply"
      reason
      (String.concat ", " component)
  | Ps_sched.Analysis.Unsupported m -> error "analysis: %s" m
  | Ps_hyper.Ineq.Not_applicable m -> error "hyperplane transformation: %s" m
  | Ps_hyper.Solve.No_schedule m -> error "hyperplane transformation: %s" m
  | Ps_codegen.Emit.Unsupported m -> error "C back end: %s" m
  | Ps_interp.Eval.Runtime_error m -> error "runtime error: %s" m
  | Ps_interp.Value.Bounds m -> error "subscript out of bounds: %s" m
  | Ps_interp.Compile.Cannot_compile m -> error "compilation error: %s" m

(* ------------------------------------------------------------------ *)
(* Projects *)

type t = {
  ast : Ast.program;
  prog : Elab.eprogram;
  diagnostics : Sa_check.diagnostic list;
}

(* Parse with [parse], elaborate and check single assignment.  A strict
   load raises the first single-assignment error; a lenient one keeps
   them as diagnostics on the project. *)
let load ~strict parse src =
  wrap (fun () ->
      Trace.with_span "load" @@ fun () ->
      let ast = Trace.with_span "parse" (fun () -> parse src) in
      let prog = Trace.with_span "elab" (fun () -> Elab.elab_program ast) in
      let diagnostics =
        Trace.with_span "sa_check" (fun () -> Sa_check.check_program prog)
      in
      (match Sa_check.errors diagnostics with
       | e :: _ when strict -> error "%s" (Fmt.str "%a" Sa_check.pp_diagnostic e)
       | _ -> ());
      { ast; prog; diagnostics })

let load_string = load ~strict:true Parser.program_of_string

(* Translate equation notation (the paper's "ultimate goal" front end)
   and load the resulting module as a project. *)
let load_equations = load ~strict:true (fun src -> [ Eqn.translate src ])

(* The lint and check drivers report every single-assignment error and
   set the exit code from their severity. *)
let load_string_lenient = load ~strict:false Parser.program_of_string

let warnings t = Diag.warnings t.diagnostics

let modules t = List.map (fun m -> m.Elab.em_name) t.prog.Elab.ep_modules

let find_module t name =
  match Elab.find_module t.prog name with
  | Some m -> m
  | None -> error "no module named %s" name

let default_module t =
  match t.prog.Elab.ep_modules with
  | [] -> error "empty program"
  | m :: _ -> m

let the_module ?name t =
  match name with Some n -> find_module t n | None -> default_module t

(* ------------------------------------------------------------------ *)
(* Pipeline stages *)

let dep_graph em = wrap (fun () -> Build.build em)

(* A scheduled module: flowchart, storage windows, component table, and
   what the optional passes did. *)
type scheduled = Passes.scheduled = {
  sc_module : Elab.emodule;
  sc_result : Schedule.result;
  sc_flowchart : Flowchart.t;
  sc_windows : Schedule.window list;
  sc_sunk : Sink.sunk list;
  sc_merged : int;     (* loops merged by the fusion pass *)
  sc_trimmed : int;    (* bounds tightened by the trimming pass *)
  sc_collapsed : int;  (* DOALL band heads marked by the collapsing pass *)
}

let schedule ?(sink = false) ?(fuse = false) ?(trim = false) ?(collapse = false)
    em =
  wrap (fun () ->
      Trace.with_span "schedule" @@ fun () ->
      Passes.schedule ~sink ~fuse ~trim ~collapse em)

(* Apply the hyperplane transformation to [target] inside module
   [?name]; returns the extended project (transformed module appended)
   and the transform record for inspection. *)
let hyperplane ?name ~target t =
  wrap (fun () ->
      let em = the_module ?name t in
      let tr = Transform.apply em ~target in
      let ast = t.ast @ [ tr.Transform.tr_module ] in
      let prog = Elab.elab_program ast in
      let diagnostics = Sa_check.check_program prog in
      ({ ast; prog; diagnostics }, tr))

let emit_c ?name ?(sink = false) ?(fuse = false) ?(trim = false)
    ?(collapse = false) t =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim ~collapse em in
      Emit.emit_module ~windows:sc.sc_windows em sc.sc_flowchart)

let emit_c_main ?name ?(sink = false) ?(fuse = false) ?(trim = false)
    ?(collapse = false) ~scalars t =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim ~collapse em in
      Emit.emit_main ~windows:sc.sc_windows em sc.sc_flowchart ~scalars)

(* ------------------------------------------------------------------ *)
(* Verification and lints *)

(* Re-derive the legality of a scheduled module's flowchart and windows
   from its dependency graph (translation validation). *)
let verify sc =
  wrap (fun () ->
      Verify.flowchart ~windows:sc.sc_windows
        sc.sc_result.Schedule.r_graph sc.sc_flowchart)

(* All diagnostics for a project: single-assignment checks plus every
   lint, over every module, sorted. *)
let lint t =
  wrap (fun () ->
      Trace.with_span "lint" @@ fun () ->
      let per_module =
        List.concat_map Lint.module_ t.prog.Elab.ep_modules
      in
      Diag.sort (t.diagnostics @ per_module))

(* ------------------------------------------------------------------ *)
(* Execution *)

let run ?name ?(sink = false) ?(fuse = false) ?(trim = false)
    ?(collapse = false) ?(use_windows = true) ?pool ?(stats = false) ?policy t
    ~inputs =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim ~collapse em in
      let opts =
        { Exec.pool; use_windows; collect_stats = stats; policy;
          sched_flags =
            { Exec.sf_sink = sink; sf_fuse = fuse; sf_trim = trim;
              sf_collapse = collapse } }
      in
      Exec.run ~opts
        ~flowchart:sc.sc_flowchart
        ~windows:(if use_windows then sc.sc_windows else [])
        ~prog:t.prog em ~inputs)

(* ------------------------------------------------------------------ *)
(* The C harness contract *)

(* The inputs the emitted main() ([Emit.emit_main]) builds: scalars from
   [scalars] (a bool scalar is the truth value of the int the harness
   declares), real arrays filled in row-major order from
   [Models.fill_value], int arrays zero (the harness's cast of that
   fill).  Every scalar is checked first: array bounds are evaluated
   over them. *)
let default_inputs (em : Elab.emodule) ~scalars =
  List.iter
    (fun (d : Elab.data) ->
      if Stypes.dims d.Elab.d_ty = [] && not (List.mem_assoc d.Elab.d_name scalars)
      then error "no value for scalar input %s" d.Elab.d_name)
    em.Elab.em_params;
  List.map
    (fun (d : Elab.data) ->
      let name = d.Elab.d_name in
      let bound e =
        match Linexpr.of_expr e with
        | Some le -> Linexpr.eval (fun v -> List.assoc_opt v scalars) le
        | None -> error "input %s has a nonlinear bound" name
      in
      let dims =
        List.map
          (fun (sr : Stypes.subrange) -> (bound sr.Stypes.sr_lo, bound sr.Stypes.sr_hi))
          (Stypes.dims d.Elab.d_ty)
      in
      match (dims, Value.kind_of_ty (Stypes.elem_ty d.Elab.d_ty)) with
      | [], Value.KBool -> (name, Exec.scalar_bool (List.assoc name scalars <> 0))
      | [], _ -> (name, Exec.scalar_int (List.assoc name scalars))
      | _, Value.KReal ->
        (name, Ps_models.Models.(numbered Exec.array_real ~dims fill_value))
      | _, Value.KInt -> (name, Exec.array_int ~dims (fun _ -> 0))
      | _ -> error "unsupported input element type for %s" name)
    em.Elab.em_params

(* A result's sum over its declared box in row-major order, as the
   emitted main() prints it; a scalar is its own sum. *)
let checksum (v : Value.value) =
  match v with
  | Value.Vscalar s -> Value.as_float s
  | Value.Varray s ->
    let acc = ref 0.0 in
    Value.iter_box s (fun ix -> acc := !acc +. Value.as_float (Value.get_scalar s ix));
    !acc

let work_span ?name ?(sink = false) ?(fuse = false) ?(trim = false) t ~env =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim em in
      Analysis.of_flowchart ~env sc.sc_flowchart)

(* ------------------------------------------------------------------ *)
(* Per-nest scheduling policy *)

(* The static cost model's table for a module under concrete scalar
   inputs: the model decides per nest whether forking and flattening
   pay. *)
let static_policy ?name ?(sink = false) ?(fuse = false) ?(trim = false) ?cores t
    ~env =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim em in
      let cores =
        match cores with Some c -> c | None -> Pool.recommended_size ()
      in
      Costmodel.static ~env ~cores sc.sc_flowchart)

(* Profile-guided tuning: replay the module under candidate per-nest
   policies with the loop-level profiler on, and keep, per fork
   candidate, the policy whose measured inclusive time is smallest.
   The static model's own choice is one of the candidates, so a tuned
   table never loses to it on the measured workload.  The result is
   host-specific (its [t_host_cores] records for which pool width the
   measurements were taken) and is meant to be cached as a compile
   artifact keyed by source digest, module, flags, and host_cores. *)
let tune ?name ?(sink = false) ?(fuse = false) ?(trim = false) ?cores
    ?(reps = 2) t ~inputs ~env =
  wrap (fun () ->
      let em = the_module ?name t in
      let sc = schedule ~sink ~fuse ~trim em in
      let fc = sc.sc_flowchart in
      let cores =
        match cores with Some c -> c | None -> Pool.recommended_size ()
      in
      let keyed = Policy.index fc in
      let static_table = Costmodel.static ~env ~cores fc in
      (* Uniform candidates apply one shape to every nest; collapse is
         only requested where a nest heads a perfect DOALL band. *)
      let uniform cname mk =
        (cname, Policy.uniform ~source:Policy.Tuned ~cores fc mk)
      in
      let why = "tuned candidate" in
      let candidates =
        [ uniform "seq" (fun _ -> Policy.sequential ~why);
          uniform "fixed" (fun _ -> Policy.parallel ~steal:false ~why ());
          uniform "steal" (fun _ -> Policy.parallel ~steal:true ~why ());
          uniform "steal+collapse" (fun l ->
              Policy.parallel ~steal:true ~collapse:(Collapse.collapsible l)
                ~why ());
          ("static", static_table) ]
      in
      let sched_flags =
        { Exec.sf_sink = sink; sf_fuse = fuse; sf_trim = trim;
          sf_collapse = false }
      in
      (* Inclusive ns per nest key for one candidate table, summed over
         [reps] runs (each run compiles fresh prof sites; sites named by
         policy key make the rows attributable).  However the replays
         end, the profiler is put back as the caller had it, without the
         replays' sites: a fault in one must not leave every later run
         of the process profiled. *)
      let profiling = Prof.enabled () in
      let measure pool table =
        Prof.reset ();
        Prof.set_enabled true;
        let rows =
          Fun.protect
            ~finally:(fun () ->
              Prof.set_enabled profiling;
              Prof.reset ())
          @@ fun () ->
          for _ = 1 to reps do
            ignore
              (Exec.run
                 ~opts:
                   { Exec.default_opts with pool = Some pool;
                     policy = Some table; sched_flags }
                 ~flowchart:fc ~windows:sc.sc_windows ~prog:t.prog em ~inputs)
          done;
          Prof.rows ()
        in
        List.map
          (fun (c : Policy.candidate) ->
            let name = Policy.site_name c.Policy.c_loop c.Policy.c_key in
            let ns =
              List.fold_left
                (fun acc (r : Prof.row) ->
                  if r.Prof.r_kind = "loop" && String.equal r.Prof.r_name name
                  then acc + r.Prof.r_ns
                  else acc)
                0 rows
            in
            (c.Policy.c_key, ns))
          keyed
      in
      let measured =
        Pool.with_pool (max 1 cores) (fun pool ->
            List.map
              (fun (cname, table) -> (cname, table, measure pool table))
              candidates)
      in
      let entries =
        List.map
          (fun (c : Policy.candidate) ->
            let key = c.Policy.c_key in
            let best =
              List.fold_left
                (fun acc (cname, table, times) ->
                  match (List.assoc_opt key times, Policy.find table key) with
                  | Some ns, Some d -> (
                    match acc with
                    | Some (_, _, best_ns) when best_ns <= ns -> acc
                    | _ -> Some (cname, d, ns))
                  | _ -> acc)
                None measured
            in
            match best with
            | Some (cname, d, ns) ->
              ( key,
                { d with
                  Policy.d_why =
                    Printf.sprintf "tuned: %s won at %d ns over %d reps" cname
                      ns reps } )
            | None -> (
              (* Never measured (e.g. the nest did not execute): keep
                 the static model's call. *)
              match Policy.find static_table key with
              | Some d -> (key, d)
              | None -> (key, Policy.sequential ~why:"tuned: unmeasured")))
          keyed
      in
      { Policy.t_source = Policy.Tuned; t_host_cores = cores;
        t_entries = entries })

(* ------------------------------------------------------------------ *)
(* Display helpers *)

let flowchart_string ?(tree = true) sc =
  let em = sc.sc_module in
  if tree then Flowchart.to_tree_string em sc.sc_flowchart
  else Flowchart.to_compact_string em sc.sc_flowchart

let components_string sc =
  let em = sc.sc_module in
  String.concat "\n"
    (List.mapi
       (fun i (ct : Schedule.component_trace) ->
         Printf.sprintf "Component %d: {%s}  ->  %s" (i + 1)
           (String.concat ", " ct.Schedule.ct_nodes)
           (match ct.Schedule.ct_flowchart with
            | [] -> "null"
            | fc -> Flowchart.to_compact_string em fc))
       sc.sc_result.Schedule.r_components)

let windows_string sc =
  match sc.sc_windows with
  | [] -> "(no virtual dimensions)"
  | ws ->
    String.concat "\n"
      (List.map
         (fun (w : Schedule.window) ->
           Printf.sprintf "%s: dimension %d is virtual, window = %d"
             w.Schedule.w_data (w.Schedule.w_dim + 1) w.Schedule.w_size)
         ws)
