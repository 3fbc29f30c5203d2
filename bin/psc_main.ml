(* psc — command-line driver for the PS compiler.

   Subcommands mirror the pipeline: parse, check, graph, schedule,
   transform, emit-c, run, demo.  `psc demo` regenerates every figure of
   the paper from the built-in Relaxation modules. *)

open Cmdliner

let read_source file =
  if String.equal file "-" then In_channel.input_all In_channel.stdin
  else (
    try
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error m ->
      Fmt.epr "psc: %s@." m;
      exit 1)

let load file =
  try Psc.load_string (read_source file)
  with Psc.Error m ->
    Fmt.epr "psc: %s@." m;
    exit 1

let handle f = try f () with Psc.Error m -> Fmt.epr "psc: %s@." m; exit 1

(* Every subcommand prints diagnostics through this one helper, so text
   and JSON renderings are uniform across check, lint, and the schedule
   verifier.  In JSON mode an empty report still prints "[]". *)
let report ?(format = Psc.Diag.Text) out diags =
  match Psc.Diag.render format diags with
  | "" -> ()
  | s -> Fmt.pf out "%s@." s

let print_warnings t = report Fmt.stderr (Psc.warnings t)

(* Re-derive the legality of a schedule from the dependency graph and
   abort on any violation (--verify-schedule). *)
let verify_schedule sc =
  let diags = Psc.verify sc in
  report Fmt.stderr diags;
  if Psc.Diag.errors diags <> [] then begin
    Fmt.epr "psc: schedule verification failed: %s@." (Psc.Diag.summary diags);
    exit 1
  end
  else Fmt.epr "psc: schedule verified@."

let verify_transform tr =
  let diags = Psc.Verify.transform tr in
  report Fmt.stderr diags;
  if Psc.Diag.errors diags <> [] then begin
    Fmt.epr "psc: hyperplane verification failed: %s@."
      (Psc.Diag.summary diags);
    exit 1
  end
  else Fmt.epr "psc: hyperplane derivation verified@."

(* Common arguments *)

let file_arg =
  let doc = "PS source file ('-' for standard input)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let module_arg =
  let doc = "Module to operate on (default: the first in the file)." in
  Arg.(value & opt (some string) None & info [ "m"; "module" ] ~docv:"NAME" ~doc)

let sink_arg =
  let doc =
    "Run the extraction-sinking pass after scheduling (fuses post-loop \
     reads of windowed arrays into the producing loop)."
  in
  Arg.(value & flag & info [ "sink" ] ~doc)

let fuse_arg =
  let doc = "Merge adjacent compatible loops after scheduling." in
  Arg.(value & flag & info [ "fuse" ] ~doc)

let trim_arg =
  let doc =
    "Tighten loop bounds from out-of-lattice guards (exact hyperplane \
     wavefront bounds)."
  in
  Arg.(value & flag & info [ "trim" ] ~doc)

let collapse_arg =
  let doc =
    "Mark perfectly nested DOALL bands for collapsing: without a policy \
     table the interpreter flattens a marked band into one combined \
     iteration space, and the C back end widens the OpenMP pragma with a \
     collapse clause."
  in
  Arg.(value & flag & info [ "collapse" ] ~doc)

let verify_arg =
  let doc =
    "After scheduling, re-derive the legality of the flowchart and its \
     storage windows from the dependency graph (translation validation) \
     and fail on any violation."
  in
  Arg.(value & flag & info [ "verify-schedule" ] ~doc)

let json_arg =
  let doc = "Render diagnostics as a JSON array instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let werror_arg =
  let doc = "Exit non-zero if any warning is reported." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let trace_arg =
  let doc =
    "Record a span trace of the compiler pipeline and write it to $(docv) \
     as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] with tracing enabled, writing the trace on every exit path.
   Several subcommands finish through [exit] (which does not unwind
   [Fun.protect]), so the writer must also run from [at_exit] — and the
   two paths must never both write the file.  The write is idempotent by
   construction: one pending request at a time, consumed by whichever
   path gets there first, with a single process-wide [at_exit] handler
   (re-registering per command would stack handlers if a driver ever ran
   several traced commands in one process). *)
let pending_trace : string option ref = ref None

let flush_trace () =
  match !pending_trace with
  | None -> ()
  | Some path ->
    pending_trace := None;
    Psc.Trace.set_enabled false;
    (try Psc.Trace.write path
     with Sys_error m -> Fmt.epr "psc: cannot write trace: %s@." m)

let () = at_exit flush_trace

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Psc.Trace.set_enabled true;
    pending_trace := Some path;
    Fun.protect ~finally:flush_trace f

(* ------------------------------------------------------------------ *)

let parse_cmd =
  let run file =
    handle (fun () ->
        let t = load file in
        print_warnings t;
        print_endline (Psc.Pretty.program_to_string t.Psc.ast))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a PS program and print it back.")
    Term.(const run $ file_arg)

let check_cmd =
  let run file json werror trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = Psc.load_string_lenient (read_source file) in
        let format = if json then Psc.Diag.Json else Psc.Diag.Text in
        report ~format Fmt.stdout t.Psc.diagnostics;
        if not json then
          List.iter
            (fun name ->
              let em = Psc.find_module t name in
              Fmt.pr "module %s: %d equations, %d locals@." name
                (List.length em.Psc.Elab.em_eqs)
                (List.length em.Psc.Elab.em_locals))
            (Psc.modules t);
        exit (Psc.Diag.exit_code ~werror t.Psc.diagnostics))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Elaborate and type-check a PS program.")
    Term.(const run $ file_arg $ json_arg $ werror_arg $ trace_arg)

let lint_cmd =
  let run file json werror trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = Psc.load_string_lenient (read_source file) in
        let diags = Psc.lint t in
        let format = if json then Psc.Diag.Json else Psc.Diag.Text in
        report ~format Fmt.stdout diags;
        if (not json) && diags <> [] then
          Fmt.pr "%s@." (Psc.Diag.summary diags);
        exit (Psc.Diag.exit_code ~werror diags))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run every static lint: single-assignment analysis, unused data \
          and dead equations, symbolically out-of-bounds subscripts, and \
          virtualization failures.")
    Term.(const run $ file_arg $ json_arg $ werror_arg $ trace_arg)

let graph_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of a listing.")
  in
  let run file name dot =
    handle (fun () ->
        let t = load file in
        let em = Psc.the_module ?name t in
        let g = Psc.dep_graph em in
        if dot then print_string (Psc.Render.to_dot g)
        else print_string (Psc.Render.listing g))
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print the dependency graph (paper Fig. 3).")
    Term.(const run $ file_arg $ module_arg $ dot)

let schedule_cmd =
  let compact =
    Arg.(value & flag & info [ "compact" ] ~doc:"One-line flowchart format.")
  in
  let run file name sink fuse trim collapse compact verify trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = load file in
        let em = Psc.the_module ?name t in
        let sc = Psc.schedule ~sink ~fuse ~trim ~collapse em in
        if verify then verify_schedule sc;
        Fmt.pr "Components (Fig. 5):@.%s@.@." (Psc.components_string sc);
        Fmt.pr "Flowchart (Fig. 6/7):@.%s@.@."
          (Psc.flowchart_string ~tree:(not compact) sc);
        if fuse then Fmt.pr "Merged loops: %d@." sc.Psc.sc_merged;
        if trim then Fmt.pr "Trimmed bounds: %d@." sc.Psc.sc_trimmed;
        if collapse then Fmt.pr "Collapsible band heads: %d@." sc.Psc.sc_collapsed;
        Fmt.pr "Storage windows (sec. 3.4):@.%s@." (Psc.windows_string sc))
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Schedule a module: components, flowchart, storage windows.")
    Term.(const run $ file_arg $ module_arg $ sink_arg $ fuse_arg $ trim_arg
          $ collapse_arg $ compact $ verify_arg $ trace_arg)

let transform_cmd =
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "target" ] ~docv:"ARRAY"
          ~doc:"Recursively defined local array to transform.")
  in
  let run file name target verify trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = load file in
        let t', tr = Psc.hyperplane ?name ~target t in
        if verify then verify_transform tr;
        print_endline (Psc.Transform.derivation_to_string tr);
        Fmt.pr "@.Transformed module:@.";
        print_endline (Psc.Pretty.module_to_string tr.Psc.Transform.tr_module);
        let em = Psc.find_module t' tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let sc = Psc.schedule ~sink:true em in
        if verify then verify_schedule sc;
        Fmt.pr "@.Schedule after transformation:@.%s@."
          (Psc.flowchart_string sc);
        Fmt.pr "@.Storage windows:@.%s@." (Psc.windows_string sc))
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply the hyperplane restructuring transformation (paper sec. 4).")
    Term.(const run $ file_arg $ module_arg $ target $ verify_arg $ trace_arg)

let scalar_assoc =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let k = String.sub s 0 i
      and v = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt v with
       | Some n -> Ok (k, n)
       | None -> Error (`Msg (Printf.sprintf "%s is not an integer" v)))
    | None -> Error (`Msg "expected NAME=INT")
  in
  let print ppf (k, v) = Fmt.pf ppf "%s=%d" k v in
  Arg.conv (parse, print)

let inputs_arg =
  let doc =
    "Scalar input NAME=INT (repeatable).  Array inputs are filled with the \
     deterministic generator shared with the emitted C harness."
  in
  Arg.(value & opt_all scalar_assoc [] & info [ "i"; "input" ] ~docv:"NAME=INT" ~doc)

let emit_c_cmd =
  let main =
    Arg.(
      value & flag
      & info [ "main" ]
          ~doc:"Also emit a main() harness that fills inputs and prints checksums \
                (requires every scalar input via --input).")
  in
  let run file name sink collapse main inputs verify trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = load file in
        if verify then
          verify_schedule (Psc.schedule ~sink ~collapse (Psc.the_module ?name t));
        if main then
          print_string (Psc.emit_c_main ?name ~sink ~collapse ~scalars:inputs t)
        else print_string (Psc.emit_c ?name ~sink ~collapse t))
  in
  Cmd.v
    (Cmd.info "emit-c" ~doc:"Generate C code for a module.")
    Term.(const run $ file_arg $ module_arg $ sink_arg $ collapse_arg $ main
          $ inputs_arg $ verify_arg $ trace_arg)

(* Every scalar input comes from the command line; array inputs are
   filled as the emitted main() fills them. *)
let inputs_for em scalars =
  List.iter
    (fun (d : Psc.Elab.data) ->
      if Psc.Stypes.dims d.Psc.Elab.d_ty = [] && not (List.mem_assoc d.Psc.Elab.d_name scalars)
      then Psc.error "missing --input %s=INT" d.Psc.Elab.d_name)
    em.Psc.Elab.em_params;
  Psc.default_inputs em ~scalars

(* Measure candidate per-nest scheduling policies with the loop-level
   profiler and print the winning table as JSON — the same table `psc
   serve` caches per (source, module, flags, host cores), here written
   to a file `run --policy-file` can load back. *)
let tune_cmd =
  let cores_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"N"
          ~doc:"Tune for a pool of N domains (default: the host's \
                recommended size).  The table records this so a reader \
                on a different host can detect staleness (W121).")
  in
  let reps_arg =
    Arg.(
      value & opt int 2
      & info [ "reps" ] ~docv:"N"
          ~doc:"Replay each candidate policy N times and sum the \
                profiled nest times (default 2).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the tuned policy table to $(docv) instead of \
                standard output.")
  in
  let run file name sink fuse trim inputs cores reps out trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let t = load file in
        print_warnings t;
        let em = Psc.the_module ?name t in
        let ins = inputs_for em inputs in
        let table =
          Psc.tune ?name ~sink ~fuse ~trim ?cores ~reps t ~inputs:ins
            ~env:inputs
        in
        let json = Psc.Policy.to_json table in
        (match out with
         | Some f ->
           Out_channel.with_open_bin f (fun oc ->
               output_string oc json;
               output_char oc '\n')
         | None -> print_endline json);
        Fmt.epr "psc: tuned %s@." (Psc.Policy.table_summary table))
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Profile-guided schedule tuning: replay a module's loop nests \
          under candidate policies (sequential, fixed chunks, work \
          stealing, collapsed bands, the static cost model) on the \
          loop-level profiler, pick the fastest per nest, and print the \
          winning policy table as JSON for $(b,run --policy-file).")
    Term.(const run $ file_arg $ module_arg $ sink_arg $ fuse_arg $ trim_arg
          $ inputs_arg $ cores_arg $ reps_arg $ out_arg $ trace_arg)

let run_cmd =
  let par =
    Arg.(
      value
      & opt (some int) None
      & info [ "par" ] ~docv:"N" ~doc:"Execute DOALL loops on a pool of N domains.")
  in
  let no_windows =
    Arg.(value & flag & info [ "no-windows" ] ~doc:"Disable virtual-dimension storage windows.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"After execution, print the equation evaluations and how \
                many of them ran a row at a time, per-worker pool \
                statistics (chunks, steals, parks, busy time, utilization, \
                imbalance) and the top-10 hottest loops with their source \
                locations.")
  in
  let metrics_json =
    Arg.(
      value & flag
      & info [ "metrics-json" ]
          ~doc:"After execution, print the metrics registry as a JSON array.")
  in
  let policy_mode =
    Arg.(
      value
      & opt (enum [ ("static", `Static); ("off", `Off) ]) `Off
      & info [ "policy" ] ~docv:"MODE"
          ~doc:
            "Per-nest scheduling policy: $(b,static) decides each nest \
             from the cost model (work, span, trip counts — tiny nests \
             run sequentially), $(b,off) (default) runs every nest with \
             the no-table default: fork with work stealing, and flatten \
             only the bands $(b,--collapse) marks.  A tuned table comes \
             from $(b,--policy-file) instead.")
  in
  let policy_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy-file" ] ~docv:"FILE"
          ~doc:"Run each nest by this tuned policy table (JSON, as \
                printed by $(b,psc tune)); a stale table warns W121 and \
                falls back to the static model.  Refused with \
                $(b,--policy static).")
  in
  let tune_flag =
    Arg.(
      value & flag
      & info [ "tune" ]
          ~doc:"Tune before running: replay the nests under candidate \
                policies on the profiler and execute with the winner.  \
                Refused with $(b,--policy static) or $(b,--policy-file), \
                whose tables the tuner would replace.")
  in
  let run file name sink fuse trim collapse inputs par no_windows verify stats
      metrics_json policy_mode policy_file tune trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        if stats || metrics_json then Psc.Metrics.set_enabled true;
        if stats then Psc.Prof.set_enabled true;
        let t = load file in
        let em = Psc.the_module ?name t in
        if verify then verify_schedule (Psc.schedule ~sink ~fuse ~trim ~collapse em);
        let ins = inputs_for em inputs in
        let host_cores =
          match par with Some n -> max 1 n | None -> Psc.Pool.recommended_size ()
        in
        let static_table () =
          Psc.static_policy ?name ~sink ~fuse ~trim ~cores:host_cores t
            ~env:inputs
        in
        let load_table f =
          match Psc.Policy.of_json (read_source f) with
          | Error m ->
            report Fmt.stderr
              [ Psc.Diag.diag Psc.Diag.Bad_policy Psc.Loc.dummy "%s: %s" f m ];
            exit 1
          | Ok tp ->
            let sc = Psc.schedule ~sink ~fuse ~trim em in
            let diags =
              Psc.Verify.policy_table ~host_cores tp sc.Psc.sc_flowchart
            in
            report Fmt.stderr diags;
            if Psc.Diag.errors diags <> [] then exit 1;
            if Psc.Policy.stale tp ~host_cores then static_table () else tp
        in
        let excluded pair =
          Fmt.epr "psc run: %s exclude each other@." pair;
          exit 2
        in
        let policy =
          match (tune, policy_mode, policy_file) with
          | true, `Static, _ -> excluded "--tune and --policy static"
          | true, `Off, Some _ -> excluded "--tune and --policy-file"
          | true, `Off, None ->
            Some
              (Psc.tune ?name ~sink ~fuse ~trim ~cores:host_cores t ~inputs:ins
                 ~env:inputs)
          | false, `Off, None -> None
          | false, `Off, Some f -> Some (load_table f)
          | false, `Static, None -> Some (static_table ())
          | false, `Static, Some _ -> excluded "--policy static and --policy-file"
        in
        let exec pool =
          Psc.run ?name ~sink ~fuse ~trim ~collapse
            ~use_windows:(not no_windows) ?pool ~stats ?policy t ~inputs:ins
        in
        (* The pool's per-worker table must be rendered before [with_pool]
           drains the counters into the registry on the way out. *)
        let pool_table = ref None in
        let r =
          match par with
          | Some n ->
            Psc.Pool.with_pool n (fun pool ->
                let r = exec (Some pool) in
                if stats then pool_table := Some (Psc.Pool.render_stats pool);
                r)
          | None -> exec None
        in
        List.iter
          (fun (nm, v) ->
            match v with
            | Psc.Value.Vscalar sc -> Fmt.pr "%s = %a@." nm Psc.Value.pp_scalar sc
            | Psc.Value.Varray _ ->
              Fmt.pr "%s checksum = %.17g@." nm (Psc.checksum v))
          r.Psc.Exec.outputs;
        Fmt.pr "--- storage ---@.";
        List.iter
          (fun (nm, words) -> Fmt.pr "%s: %d words@." nm words)
          r.Psc.Exec.allocated;
        if stats then begin
          (match r.Psc.Exec.evaluations, r.Psc.Exec.row_evaluations with
           | Some evals, Some rows ->
             Fmt.pr "--- evaluations ---@.%d equation evaluations, %d in rows@." evals rows
           | _ -> ());
          Fmt.pr "--- pool ---@.";
          (match !pool_table with
           | Some table -> Fmt.pr "%s" table
           | None -> Fmt.pr "no pool (run with --par N to collect pool stats)@.");
          Fmt.pr "--- hot loops ---@.%s" (Psc.Prof.render_table ~limit:10 ())
        end;
        if metrics_json then Fmt.pr "%s@." (Psc.Metrics.render_json ()))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Schedule and execute a module on the interpreter substrate.")
    Term.(const run $ file_arg $ module_arg $ sink_arg $ fuse_arg $ trim_arg
          $ collapse_arg $ inputs_arg $ par $ no_windows $ verify_arg
          $ stats_flag $ metrics_json $ policy_mode $ policy_file $ tune_flag
          $ trace_arg)

let eqn_cmd =
  let ps_only =
    Arg.(value & flag
         & info [ "ps" ] ~doc:"Print only the generated PS module and stop.")
  in
  let run file ps_only =
    handle (fun () ->
        let t =
          try Psc.load_equations (read_source file)
          with Psc.Error m -> Fmt.epr "psc: %s@." m; exit 1
        in
        let em = Psc.default_module t in
        Fmt.pr "%s@." (Psc.Pretty.module_to_string em.Psc.Elab.em_ast);
        if not ps_only then begin
          let sc = Psc.schedule em in
          Fmt.pr "@.Schedule:@.%s@.@." (Psc.flowchart_string sc);
          Fmt.pr "Storage windows:@.%s@." (Psc.windows_string sc)
        end)
  in
  Cmd.v
    (Cmd.info "eqn"
       ~doc:
         "Translate equation notation (A_{k-1,i,j} subscripts, a 'where' \
          clause for ranges) into a PS module and schedule it.")
    Term.(const run $ file_arg $ ps_only)

let analyze_cmd =
  let run file name sink fuse trim inputs =
    handle (fun () ->
        let t = load file in
        let em = Psc.the_module ?name t in
        let sc = Psc.schedule ~sink ~fuse ~trim em in
        let cost = Psc.Analysis.of_flowchart ~env:inputs sc.Psc.sc_flowchart in
        Fmt.pr "module %s@." em.Psc.Elab.em_name;
        Fmt.pr "work        = %.0f equation evaluations@." cost.Psc.Analysis.work;
        Fmt.pr "span        = %.0f (critical path, DOALL = 1 step)@."
          cost.Psc.Analysis.span;
        Fmt.pr "parallelism = %.2f@." (Psc.Analysis.parallelism cost);
        Fmt.pr "schedule    = %s@." (Psc.flowchart_string ~tree:false sc))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Work/span analysis of a schedule: available loop-level parallelism \
          under given scalar inputs.")
    Term.(const run $ file_arg $ module_arg $ sink_arg $ fuse_arg $ trim_arg
          $ inputs_arg)

let demo_cmd =
  let run () =
    handle (fun () ->
        let t = Psc.load_string Ps_models.Models.jacobi in
        let em = Psc.default_module t in
        Fmt.pr "=== Fig. 1: the Relaxation module ===@.%s@.@."
          (Psc.Pretty.module_to_string em.Psc.Elab.em_ast);
        let g = Psc.dep_graph em in
        Fmt.pr "=== Fig. 3: dependency graph ===@.%s@." (Psc.Render.listing g);
        let sc = Psc.schedule em in
        Fmt.pr "=== Fig. 5: components ===@.%s@.@." (Psc.components_string sc);
        Fmt.pr "=== Fig. 6: flowchart ===@.%s@.@." (Psc.flowchart_string sc);
        Fmt.pr "=== Sec. 3.4: storage windows ===@.%s@.@." (Psc.windows_string sc);
        let t2 = Psc.load_string Ps_models.Models.seidel in
        let em2 = Psc.default_module t2 in
        let sc2 = Psc.schedule em2 in
        Fmt.pr "=== Fig. 7: flowchart of the revised relaxation ===@.%s@.@."
          (Psc.flowchart_string sc2);
        let t3, tr = Psc.hyperplane ~target:"A" t2 in
        Fmt.pr "=== Sec. 4: hyperplane derivation ===@.%s@."
          (Psc.Transform.derivation_to_string tr);
        let em3 = Psc.find_module t3 tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        let sc3 = Psc.schedule ~sink:true em3 in
        Fmt.pr "@.=== Sec. 4: schedule after transformation ===@.%s@.@."
          (Psc.flowchart_string sc3);
        Fmt.pr "=== Sec. 4: storage windows after transformation ===@.%s@."
          (Psc.windows_string sc3))
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Reproduce every figure of the paper from built-in sources.")
    Term.(const run $ const ())

let trace_check_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Chrome trace-event files.  With several, they are merged \
                onto one timeline (aligned by each file's recorded \
                otherData.epoch_us) before validation.")
  in
  let merged_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "merged-out" ] ~docv:"FILE"
          ~doc:"Write the merged timeline to $(docv) as a Chrome \
                trace-event file (loads in Perfetto).")
  in
  let run files merged_out =
    handle (fun () ->
        let parsed =
          List.map
            (fun file ->
              match Psc.Trace.parse_chrome_file (read_source file) with
              | exception Psc.Trace.Invalid_trace m ->
                Fmt.epr "psc: invalid trace %s: %s@." file m;
                exit 1
              | f -> f)
            files
        in
        let events = Psc.Trace.merge parsed in
        (match merged_out with
         | Some out -> Psc.Trace.write_events out events
         | None -> ());
        match Psc.Trace.validate events with
        | Ok () ->
          let uniq f = List.length (List.sort_uniq compare (List.map f events)) in
          Fmt.pr "trace ok: %d events, %d processes, %d threads@."
            (List.length events)
            (uniq (fun e -> e.Psc.Trace.ev_pid))
            (uniq (fun e -> (e.Psc.Trace.ev_pid, e.Psc.Trace.ev_tid)))
        | Error m ->
          Fmt.epr "psc: invalid trace: %s@." m;
          exit 1)
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate Chrome trace-event files produced by --trace: every B \
          span is closed by a matching E, timestamps are monotone per \
          (process, thread), and no span id is claimed twice.  Several \
          files — e.g. a client's and a server's trace of the same \
          requests — are merged onto one timeline first.")
    Term.(const run $ files_arg $ merged_out_arg)

(* Differential fuzzing: generate random well-typed modules, run them
   through every execution path, compare element-wise; minimize and
   archive any disagreement. *)
let fuzz_cmd =
  let seed_arg =
    let doc = "Campaign seed (each case derives its own stream)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)
  in
  let count_arg =
    let doc = "Number of generated programs." in
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"INT" ~doc)
  in
  let paths_arg =
    let doc =
      "Comma-separated execution paths to differentiate against the \
       sequential reference: nowin, passes, steal, collapse, group, \
       inspector, hyper, hyper-par, auto, c, server — or 'all' \
       (default).  The 'c' path is skipped when no C compiler is \
       installed; 'group' translation-validates the schedule before a \
       pooled run; 'inspector' re-derives every static group partition \
       with the runtime inspector; 'server' runs each program through a \
       `psc serve --stdio` subprocess."
    in
    Arg.(value & opt string "all" & info [ "paths" ] ~docv:"LIST" ~doc)
  in
  let corpus_arg =
    let doc = "Write minimized failing programs to $(docv) (created if needed)." in
    Arg.(value & opt (some string) None & info [ "out-corpus" ] ~docv:"DIR" ~doc)
  in
  let par_arg =
    let doc = "Worker-pool size for the parallel paths." in
    Arg.(value & opt int 4 & info [ "par" ] ~docv:"INT" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay corpus file(s) or directories of .ps files instead of \
       generating (repeatable); exits non-zero if any entry disagrees."
    in
    Arg.(value & opt_all string [] & info [ "replay" ] ~docv:"PATH" ~doc)
  in
  let run seed count paths_s corpus par replay =
    let paths =
      if String.equal paths_s "all" then Ps_fuzz.Fuzz.default_paths
      else
        String.split_on_char ',' paths_s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match Ps_fuzz.Diff.path_of_name s with
               | Some p -> p
               | None ->
                 Fmt.epr "psc: unknown path %s@." s;
                 exit 2)
    in
    if replay <> [] then begin
      (* A missing path is reported as [psc run] reports a missing
         file, before anything replays. *)
      let files =
        List.concat_map
          (fun p ->
            match Sys.is_directory p with
            | true ->
              Sys.readdir p |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".ps")
              |> List.sort compare
              |> List.map (Filename.concat p)
            | false -> [ p ]
            | exception Sys_error m ->
              Fmt.epr "psc: %s@." m;
              exit 1)
          replay
      in
      let bad = ref 0 in
      List.iter
        (fun f ->
          match Ps_fuzz.Fuzz.replay_source ~pool_size:par ~paths (read_source f) with
          | Ok () -> Fmt.pr "replay %s: ok@." f
          | Error v ->
            incr bad;
            Fmt.pr "replay %s: MISMATCH: %s@." f v)
        files;
      Fmt.pr "%d corpus entries, %d mismatches@." (List.length files) !bad;
      if !bad > 0 then exit 1
    end
    else begin
      let cfg =
        { Ps_fuzz.Fuzz.fz_seed = seed;
          fz_count = count;
          fz_paths = paths;
          fz_pool = par;
          fz_out_corpus = corpus;
          fz_log = (fun m -> Fmt.pr "%s@." m) }
      in
      let r = Ps_fuzz.Fuzz.campaign cfg in
      Fmt.pr
        "fuzz: %d cases, %d agreed, %d mismatches (hyperplane ran on %d, C ran on %d)@."
        r.Ps_fuzz.Fuzz.r_count r.Ps_fuzz.Fuzz.r_agreed
        (List.length r.Ps_fuzz.Fuzz.r_failures)
        r.Ps_fuzz.Fuzz.r_hyper_applied r.Ps_fuzz.Fuzz.r_cc_run;
      if r.Ps_fuzz.Fuzz.r_failures <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random well-typed PS modules and \
          compare every execution path (interpreter variants, parallel \
          pool, collapsed bands, hyperplane transformation, emitted C) \
          against the sequential reference; minimize and archive any \
          disagreement.")
    Term.(const run $ seed_arg $ count_arg $ paths_arg $ corpus_arg $ par_arg $ replay_arg)

(* The compile service: a long-lived process answering newline-delimited
   JSON requests with the pipeline's artifacts cached between them. *)
let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve standard input/output instead of a socket: one \
                more connection of the event core, pipelined, shed and \
                drained like a socket client (one request per line, \
                answers correlate by id; exits at end of input once every \
                request is answered, or on a shutdown request).")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Handle at most N requests concurrently.")
  in
  let par_arg =
    Arg.(
      value & opt int 0
      & info [ "par" ] ~docv:"N"
          ~doc:"Share a work-stealing pool of N domains across requests \
                (0: run DOALL loops sequentially).")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Keep at most N pipeline artifacts (projects, schedules, \
                emitted C) in the content-addressed cache.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Bound the request queue at N entries.  Requests arriving \
                past the bound are shed immediately with E033 instead of \
                buffered unboundedly (stats and shutdown are exempt).")
  in
  let grace_arg =
    Arg.(
      value & opt int 5000
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"When draining, wait up to $(docv) for connected clients \
                to disconnect after their in-flight requests finish.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Write one structured JSON line per request to $(docv): op, \
                source digest, cache hit/miss, queue wait, handler time, \
                response bytes, deadline margin, error code.  Rejected \
                requests (E030/E032) are logged too.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Capture the span subtree of any request slower than $(docv) \
                into a bounded in-memory ring, reported by the stats op \
                under 'slow'.")
  in
  let metrics_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Dump the final metrics registry to $(docv) as JSON on clean \
                shutdown (including a SIGTERM drain), mirroring run \
                --metrics-json.")
  in
  let run socket stdio workers par cache max_queue grace access_log
      slow_ms metrics_json trace =
    handle (fun () ->
        with_trace trace @@ fun () ->
        let cf =
          { Ps_server.Serve.cf_socket = socket;
            cf_workers = workers;
            cf_pool = par;
            cf_cache = cache;
            cf_max_queue = max_queue;
            cf_grace_ms = grace;
            cf_access_log = access_log;
            cf_slow_ms = slow_ms;
            cf_metrics_json = metrics_json }
        in
        match (socket, stdio) with
        | None, false ->
          Fmt.epr "psc serve: pass --socket PATH or --stdio@.";
          exit 2
        | Some _, true ->
          Fmt.epr "psc serve: --socket and --stdio are exclusive@.";
          exit 2
        | _ -> Ps_server.Serve.main cf)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile service: a long-lived process answering \
          newline-delimited JSON requests (compile, schedule, run, emit-c, \
          lint, tune, stats, shutdown) with pipeline artifacts cached between \
          requests.  SIGTERM drains in-flight work instead of killing it.")
    Term.(const run $ socket_arg $ stdio_arg $ workers_arg $ par_arg
          $ cache_arg $ max_queue_arg $ grace_arg
          $ access_log_arg $ slow_ms_arg $ metrics_json_arg $ trace_arg)

let main_cmd =
  let doc = "compiler for the PS nonprocedural dataflow language" in
  Cmd.group
    (Cmd.info "psc" ~version:"1.0.0" ~doc)
    [ parse_cmd; check_cmd; lint_cmd; graph_cmd; schedule_cmd; transform_cmd;
      emit_c_cmd; run_cmd; tune_cmd; analyze_cmd; eqn_cmd; demo_cmd;
      trace_check_cmd; fuzz_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
