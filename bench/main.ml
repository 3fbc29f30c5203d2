(* Benchmark harness: regenerates every figure of the paper and measures
   the quantities behind its claims.

   The paper (ICASE 87-23) has no measured tables — its evaluation is the
   worked Relaxation example: the schedules of Figs. 5-7, the storage
   windows of §3.4, and the re-parallelization + window-3 result of §4.
   This harness therefore reports, for each experiment:

   - the regenerated artifact (exact schedule strings, windows, the §4
     derivation), checked against the paper's values;
   - machine-independent work/span parallelism for the three program
     variants over a size sweep (the "who wins" series);
   - storage-word counts reproducing the 2-plane / 3 x maxK x M vs
     2 x M x M comparisons;
   - Bechamel micro-benchmarks of every pipeline stage and of end-to-end
     execution, sequential and on a domain pool (one Test.make per
     experiment).

   Note: wall-clock DOALL speedup saturates at the host's core count;
   EXPERIMENTS.md records both the parallelism (work/span) and the times
   measured here. *)

open Bechamel
open Toolkit

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* --json: also write BENCH_runtime.json (per-experiment wall times plus
   work/span and pool size) so successive PRs accumulate a perf
   trajectory, and skip the Bechamel part (its statistics live in the
   text report; the JSON file records the A/B experiments). *)
let json_mode = Array.exists (fun a -> a = "--json") Sys.argv

(* serve: the compile-service load gate (Serve_bench) instead of the
   paper experiments; writes BENCH_server.json. *)
let serve_mode = Array.exists (fun a -> a = "serve") Sys.argv

(* ------------------------------------------------------------------ *)
(* Shared setup *)

let jacobi = Util_bench.project Ps_models.Models.jacobi

let seidel = Util_bench.project Ps_models.Models.seidel

let hyper_project, hyper_tr = Psc.hyperplane ~target:"A" seidel

let hyper_name = hyper_tr.Psc.Transform.tr_module.Psc.Ast.m_name

(* ------------------------------------------------------------------ *)
(* Part 1: figure reproductions (checked, then printed) *)

let check name expected actual =
  if expected <> actual then (
    Fmt.epr "MISMATCH in %s:@.expected %s@.got %s@." name expected actual;
    exit 1)

let part1 () =
  Fmt.pr "============================================================@.";
  Fmt.pr "Part 1: regenerated paper artifacts@.";
  Fmt.pr "============================================================@.@.";
  let em = Psc.default_module jacobi in
  Fmt.pr "--- Fig. 1 (the Relaxation module, reprinted from the AST) ---@.";
  Fmt.pr "%s@.@." (Psc.Pretty.module_to_string em.Psc.Elab.em_ast);
  Fmt.pr "--- Fig. 2 (edge label attributes, on A -> eq.3 and A -> eq.2) ---@.";
  let g = Psc.dep_graph em in
  List.iter
    (fun e ->
      match e.Psc.Dgraph.e_kind, e.Psc.Dgraph.e_src with
      | Psc.Dgraph.Use, Psc.Dgraph.Data "A" ->
        Fmt.pr "  A -> %s: [%s]  classes: [%s]@."
          (Psc.Dgraph.node_name g e.Psc.Dgraph.e_dst)
          (String.concat ", "
             (Array.to_list (Array.map Psc.Label.to_string e.Psc.Dgraph.e_subs)))
          (String.concat ", "
             (Array.to_list (Array.map Psc.Label.class_name e.Psc.Dgraph.e_subs)))
      | _ -> ())
    (Psc.Dgraph.edges g);
  Fmt.pr "@.--- Fig. 3 (dependency graph) ---@.%s@." (Psc.Render.listing g);
  let sc = Psc.schedule em in
  Fmt.pr "--- Fig. 5 (components and their flowcharts) ---@.%s@.@."
    (Psc.components_string sc);
  let fig6 = Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart in
  check "Fig. 6"
    "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"
    fig6;
  Fmt.pr "--- Fig. 6 (flowchart; matches the paper) ---@.%s@.@."
    (Psc.flowchart_string sc);
  Fmt.pr "--- Sec. 3.4 (virtual dimension of A) ---@.%s@.@."
    (Psc.windows_string sc);
  let em7 = Psc.default_module seidel in
  let sc7 = Psc.schedule em7 in
  let fig7 = Psc.Flowchart.to_compact_string em7 sc7.Psc.sc_flowchart in
  check "Fig. 7"
    "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"
    fig7;
  Fmt.pr "--- Fig. 7 (flowchart of the revised relaxation; matches) ---@.%s@.@."
    (Psc.flowchart_string sc7);
  Fmt.pr "--- Sec. 4 (hyperplane derivation; a = (2,1,1) as in the paper) ---@.";
  Fmt.pr "%s@." (Psc.Transform.derivation_to_string hyper_tr);
  let em_h = Psc.find_module hyper_project hyper_name in
  let sc_h = Psc.schedule ~sink:true em_h in
  Fmt.pr "@.--- Sec. 4 (schedule after transformation; Fig. 6 shape) ---@.%s@.@."
    (Psc.flowchart_string sc_h);
  Fmt.pr "--- Sec. 4 (window after transformation; paper says 3) ---@.%s@.@."
    (Psc.windows_string sc_h)

(* ------------------------------------------------------------------ *)
(* Part 2: series tables *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let part2 () =
  Fmt.pr "============================================================@.";
  Fmt.pr "Part 2: size sweeps (parallelism, storage, wall time)@.";
  Fmt.pr "============================================================@.@.";
  let sizes =
    if quick then [ (16, 10); (32, 20) ]
    else [ (16, 10); (32, 20); (64, 40); (96, 48) ]
  in
  Fmt.pr
    "parallelism = work/span of the schedule (machine-independent);@.\
     jacobi = Fig. 1 program, seidel = sec. 4 program, hyper = transformed.@.@.";
  Fmt.pr "%6s %6s | %12s %12s %12s@." "M" "maxK" "par(jacobi)" "par(seidel)"
    "par(hyper)";
  List.iter
    (fun (m, maxk) ->
      let env = [ ("M", m); ("maxK", maxk) ] in
      let p_j = Psc.Analysis.parallelism (Psc.work_span jacobi ~env) in
      let p_s = Psc.Analysis.parallelism (Psc.work_span seidel ~env) in
      let p_h =
        Psc.Analysis.parallelism
          (Psc.work_span ~name:hyper_name ~sink:true hyper_project ~env)
      in
      Fmt.pr "%6d %6d | %12.1f %12.2f %12.1f@." m maxk p_j p_s p_h)
    sizes;
  Fmt.pr "@.Storage (words for the recurrence array; sec. 3.4 and sec. 4):@.";
  Fmt.pr "%6s %6s | %14s %14s %14s %14s@." "M" "maxK" "jacobi win2" "full maxK"
    "hyper win3" "hyper full";
  List.iter
    (fun (m, maxk) ->
      let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
      let r_w = Psc.run jacobi ~inputs in
      let r_f = Psc.run ~use_windows:false jacobi ~inputs in
      let r_h = Psc.run ~name:hyper_name ~sink:true hyper_project ~inputs in
      let r_hf =
        Psc.run ~name:hyper_name ~sink:true ~use_windows:false hyper_project
          ~inputs
      in
      Fmt.pr "%6d %6d | %14d %14d %14d %14d@." m maxk
        (List.assoc "A" r_w.Psc.Exec.allocated)
        (List.assoc "A" r_f.Psc.Exec.allocated)
        (List.assoc hyper_tr.Psc.Transform.tr_new_name r_h.Psc.Exec.allocated)
        (List.assoc hyper_tr.Psc.Transform.tr_new_name r_hf.Psc.Exec.allocated))
    sizes;
  Fmt.pr
    "@.Equation evaluations (deterministic; box vs trimmed wavefront, sec. 4):@.";
  Fmt.pr "%6s %6s | %12s %12s %12s %10s@." "M" "maxK" "seidel" "hyper box"
    "hyper trim" "trim/orig";
  List.iter
    (fun (m, maxk) ->
      let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
      let ev r = Option.get r.Psc.Exec.evaluations in
      let e_s = ev (Psc.run ~stats:true seidel ~inputs) in
      let e_b = ev (Psc.run ~stats:true ~name:hyper_name ~sink:true hyper_project ~inputs) in
      let e_t =
        ev
          (Psc.run ~stats:true ~name:hyper_name ~sink:true ~trim:true
             hyper_project ~inputs)
      in
      Fmt.pr "%6d %6d | %12d %12d %12d %10.2f@." m maxk e_s e_b e_t
        (float_of_int e_t /. float_of_int e_s))
    sizes;
  Fmt.pr "@.Wall time (seconds; host has %d core(s) so DOALL speedup saturates there):@."
    (Psc.Pool.recommended_size ());
  Fmt.pr "%6s %6s | %10s %10s %10s %10s@." "M" "maxK" "jacobi" "jacobi/par"
    "seidel" "hyper";
  List.iter
    (fun (m, maxk) ->
      let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
      let opts_nocheck = false in
      ignore opts_nocheck;
      let _, t_j = time_it (fun () -> Psc.run ~check:false jacobi ~inputs) in
      let _, t_jp =
        time_it (fun () ->
            Psc.Pool.with_pool 4 (fun pool ->
                Psc.run ~check:false ~pool jacobi ~inputs))
      in
      let _, t_s = time_it (fun () -> Psc.run ~check:false seidel ~inputs) in
      let _, t_h =
        time_it (fun () ->
            Psc.run ~check:false ~name:hyper_name ~sink:true hyper_project ~inputs)
      in
      Fmt.pr "%6d %6d | %10.4f %10.4f %10.4f %10.4f@." m maxk t_j t_jp t_s t_h)
    sizes;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Part 2b: runtime A/B — nest collapsing x pool scheduler.

   Three workloads whose DOALL shapes differ:
   - fig6: the Jacobi relaxation, DO K (DOALL I (DOALL J)) — a
     rectangular band under an iterative loop (K cheap epochs);
   - h3: the hyperplane-transformed relaxation with sinking and
     trimming, DO K' (DOALL* I' (DOALL J')) — a *triangular* wavefront
     band whose inner extent varies along the sweep;
   - lcs: the transformed LCS recurrence, DO diag (DOALL cross) — a
     single varying-extent DOALL per diagonal (collapsing is a no-op;
     this row isolates the pool protocol).

   For each size: sequential, fixed chunks from a single queue (the
   runtime as it was — the baseline, selected per nest by a uniform
   policy table), work stealing with guided chunks, and stealing plus
   collapsing.  Each configuration is timed best-of-N and recorded into
   the JSON trajectory. *)

let experiments : string list ref = ref []

(* Captured once, before any benchmark pool spawns its domains: the
   count the rows are judged against must be the host's, not whatever
   the scheduler reports while 4 benchmark domains are already up. *)
let host_cores = Psc.Pool.recommended_size ()

(* Every row carries the pool-observability fields; sequential rows
   report zeros so consumers can treat the schema as uniform.  A row
   whose pool oversubscribes the host ([cores_limited]) cannot show the
   pool-size speedup — readers of the trajectory must not interpret its
   wall time as a scaling result. *)
let record ~name ~wall ~(ws : Psc.Analysis.cost) ~pool ~steal ~collapse ~policy
    ~stats =
  let steals, attempts, util, imb =
    match (stats : Psc.Pool.summary option) with
    | None -> (0, 0, 0.0, 0.0)
    | Some sm ->
      ( sm.Psc.Pool.sm_steals,
        sm.Psc.Pool.sm_steal_attempts,
        sm.Psc.Pool.sm_utilization,
        sm.Psc.Pool.sm_imbalance )
  in
  experiments :=
    Psc.Json.(
      obj
        [ ("name", str name); ("wall_s", Printf.sprintf "%.6f" wall);
          ("work", Printf.sprintf "%.0f" ws.Psc.Analysis.work);
          ("span", Printf.sprintf "%.0f" ws.Psc.Analysis.span);
          ("pool", int pool); ("steal", bool steal); ("collapse", bool collapse);
          ("policy", str policy); ("cores_limited", bool (pool > host_cores));
          ("steals", int steals); ("steal_attempts", int attempts);
          ("utilization", Printf.sprintf "%.4f" util);
          ("imbalance", Printf.sprintf "%.3f" imb) ])
    :: !experiments

let ab_pool_size = 4

(* The flowchart a row's policy tables are keyed by (collapse marks do
   not change the keys). *)
let flowchart ?name ?(sink = false) ?(trim = false) t =
  (Psc.schedule ~sink ~trim (Psc.the_module ?name t)).Psc.sc_flowchart

let time_best f =
  let reps = if quick then 2 else 5 in
  let best = ref infinity in
  for _ = 1 to reps do
    let _, t = time_it f in
    if t < !best then best := t
  done;
  !best

let part2b () =
  Fmt.pr "============================================================@.";
  Fmt.pr "Part 2b: runtime A/B (collapse x pool scheduler; pool = %d)@."
    ab_pool_size;
  Fmt.pr "============================================================@.@.";
  let pool = Psc.Pool.create ab_pool_size in
  (* Pool counters are gated on the metrics flag; turn it on for the A/B
     section so every pooled row carries steal/utilization data, and off
     again afterwards so part 3's micro-benchmarks run uninstrumented. *)
  Psc.Metrics.set_enabled true;
  Fmt.pr "%-12s | %10s %12s %12s %14s %10s@." "experiment" "seq" "fixed-chunk"
    "steal" "steal+collapse" "auto";
  (* Timings aggregate over [time_best]'s reps, and so do the pool
     counters: utilization and imbalance are ratios of the accumulated
     sums, which is what we want reported. *)
  let timed_pool pool ?policy ~collapse
      (runner :
        ?pool:Psc.Pool.t -> ?policy:Psc.Policy.table -> collapse:bool ->
        unit -> unit) =
    Psc.Pool.reset_stats pool;
    let t = time_best (fun () -> runner ~pool ?policy ~collapse ()) in
    (t, Psc.Pool.summary pool)
  in
  let ab name ws ~fc ~auto
      (runner :
        ?pool:Psc.Pool.t -> ?policy:Psc.Policy.table -> collapse:bool ->
        unit -> unit) =
    let fixed =
      Psc.Policy.uniform ~source:Psc.Policy.Tuned ~cores:ab_pool_size fc
        (fun _ -> Psc.Policy.parallel ~steal:false ~why:"fixed chunks" ())
    in
    let t_seq = time_best (fun () -> runner ~collapse:false ()) in
    let t_fixed, sm_fixed =
      timed_pool pool ~policy:fixed ~collapse:false runner
    in
    let t_steal, sm_steal = timed_pool pool ~collapse:false runner in
    let t_sc, sm_sc = timed_pool pool ~collapse:true runner in
    (* The fifth column runs under the static cost model's per-nest
       table, sized to the host (not the benchmark pool): on a small
       host the table refuses to fork and the row must match the
       sequential one — that is the claim under test. *)
    let table : Psc.Policy.table = auto () in
    let forks =
      List.exists
        (fun (_, (d : Psc.Policy.decision)) -> d.Psc.Policy.d_par)
        table.Psc.Policy.t_entries
    in
    let collapses =
      List.exists
        (fun (_, (d : Psc.Policy.decision)) -> d.Psc.Policy.d_collapse)
        table.Psc.Policy.t_entries
    in
    let t_auto, sm_auto =
      if forks then
        let t, sm = timed_pool pool ~policy:table ~collapse:false runner in
        (t, Some sm)
      else (time_best (fun () -> runner ~policy:table ~collapse:false ()), None)
    in
    record ~name:(name ^ "_seq") ~wall:t_seq ~ws ~pool:1 ~steal:false
      ~collapse:false ~policy:"seq" ~stats:None;
    record ~name:(name ^ "_par_fixed") ~wall:t_fixed ~ws ~pool:ab_pool_size
      ~steal:false ~collapse:false ~policy:"fixed" ~stats:(Some sm_fixed);
    record ~name:(name ^ "_par_steal") ~wall:t_steal ~ws ~pool:ab_pool_size
      ~steal:true ~collapse:false ~policy:"steal" ~stats:(Some sm_steal);
    record ~name:(name ^ "_par_steal_collapse") ~wall:t_sc ~ws
      ~pool:ab_pool_size ~steal:true ~collapse:true ~policy:"steal+collapse"
      ~stats:(Some sm_sc);
    record ~name:(name ^ "_auto") ~wall:t_auto ~ws
      ~pool:(if forks then ab_pool_size else 1)
      ~steal:forks ~collapse:collapses
      ~policy:(Psc.Policy.table_summary table) ~stats:sm_auto;
    Fmt.pr "%-12s | %10.4f %12.4f %12.4f %14.4f %10.4f@." name t_seq t_fixed
      t_steal t_sc t_auto
  in
  let rel_sizes =
    if quick then [ (16, 10); (32, 20) ] else [ (16, 10); (32, 20); (64, 40) ]
  in
  List.iter
    (fun (m, maxk) ->
      let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
      let env = [ ("M", m); ("maxK", maxk) ] in
      ab
        (Printf.sprintf "fig6_m%d" m)
        (Psc.work_span jacobi ~env)
        ~fc:(flowchart jacobi)
        ~auto:(fun () -> Psc.static_policy ~cores:host_cores jacobi ~env)
        (fun ?pool ?policy ~collapse () ->
          ignore (Psc.run ~check:false ?pool ?policy ~collapse jacobi ~inputs));
      ab
        (Printf.sprintf "h3_m%d" m)
        (Psc.work_span ~name:hyper_name ~sink:true ~trim:true hyper_project ~env)
        ~fc:(flowchart ~name:hyper_name ~sink:true ~trim:true hyper_project)
        ~auto:(fun () ->
          Psc.static_policy ~name:hyper_name ~sink:true ~trim:true
            ~cores:host_cores hyper_project ~env)
        (fun ?pool ?policy ~collapse () ->
          ignore
            (Psc.run ~check:false ?pool ?policy ~collapse ~name:hyper_name
               ~sink:true ~trim:true hyper_project ~inputs)))
    rel_sizes;
  let lcs_project = Psc.load_string Ps_models.Models.lcs in
  let lcs_project, lcs_tr = Psc.hyperplane ~target:"L" lcs_project in
  let lcs_name = lcs_tr.Psc.Transform.tr_module.Psc.Ast.m_name in
  let lcs_sizes = if quick then [ 64; 128 ] else [ 64; 256; 512 ] in
  List.iter
    (fun n ->
      let inputs =
        [ ( "X",
            Psc.Exec.array_int ~dims:[ (1, n) ] (fun ix -> ((ix.(0) * 7) + 3) mod 4) );
          ( "Y",
            Psc.Exec.array_int ~dims:[ (1, n) ] (fun ix -> ((ix.(0) * 5) + 1) mod 4) );
          ("N", Psc.Exec.scalar_int n) ]
      in
      ab
        (Printf.sprintf "lcs_n%d" n)
        (Psc.work_span ~name:lcs_name ~sink:true ~trim:true lcs_project
           ~env:[ ("N", n) ])
        ~fc:(flowchart ~name:lcs_name ~sink:true ~trim:true lcs_project)
        ~auto:(fun () ->
          Psc.static_policy ~name:lcs_name ~sink:true ~trim:true
            ~cores:host_cores lcs_project ~env:[ ("N", n) ])
        (fun ?pool ?policy ~collapse () ->
          ignore
            (Psc.run ~check:false ?pool ?policy ~collapse ~name:lcs_name
               ~sink:true ~trim:true lcs_project ~inputs)))
    lcs_sizes;
  (* The two new schedule classes of the symbolic distance analysis: a
     constant-stride recurrence runs as DOGROUP(2) (two independent
     residue classes), a parameter-stride recurrence as DOINSPECT(K)
     (K classes decided by the runtime inspector). *)
  let grp_project = Psc.load_string Ps_models.Models.strided_copy in
  let insp_project = Psc.load_string Ps_models.Models.param_recurrence in
  let fill = Ps_models.Models.fill_value in
  let stride_sizes = if quick then [ 4096; 16384 ] else [ 4096; 16384; 65536 ] in
  List.iter
    (fun n ->
      let a = Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> fill ix.(0)) in
      ab
        (Printf.sprintf "grp_n%d" n)
        (Psc.work_span grp_project ~env:[ ("N", n) ])
        ~fc:(flowchart grp_project)
        ~auto:(fun () ->
          Psc.static_policy ~cores:host_cores grp_project ~env:[ ("N", n) ])
        (fun ?pool ?policy ~collapse () ->
          ignore
            (Psc.run ~check:false ?pool ?policy ~collapse grp_project
               ~inputs:[ ("A", a); ("N", Psc.Exec.scalar_int n) ]));
      let k = 7 in
      ab
        (Printf.sprintf "insp_n%d" n)
        (Psc.work_span insp_project ~env:[ ("N", n); ("K", k) ])
        ~fc:(flowchart insp_project)
        ~auto:(fun () ->
          Psc.static_policy ~cores:host_cores insp_project
            ~env:[ ("N", n); ("K", k) ])
        (fun ?pool ?policy ~collapse () ->
          ignore
            (Psc.run ~check:false ?pool ?policy ~collapse insp_project
               ~inputs:
                 [ ("A", a);
                   ("N", Psc.Exec.scalar_int n);
                   ("K", Psc.Exec.scalar_int k) ])))
    stride_sizes;
  Psc.Pool.shutdown pool;
  Psc.Metrics.set_enabled false;
  Fmt.pr "@."

let write_json path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": 1,\n\
    \  \"source\": \"bench/main.ml --json\",\n\
    \  \"quick\": %b,\n\
    \  \"host_cores\": %d,\n\
    \  \"pool_size\": %d,\n\
    \  \"experiments\": [\n    %s\n  ]\n\
     }\n"
    quick host_cores ab_pool_size
    (String.concat ",\n    " (List.rev !experiments));
  close_out oc;
  Fmt.pr "wrote %s (%d experiments)@." path (List.length !experiments)

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel micro-benchmarks, one Test.make per experiment *)

let m_b = 32 and maxk_b = 20

let inputs_b = Ps_models.Models.relaxation_inputs ~m:m_b ~maxk:maxk_b

let paper_vectors =
  [ [| 1; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 0 |]; [| 1; 0; -1 |]; [| 1; -1; 0 |] ]

let tests =
  let em_j = Psc.default_module jacobi in
  let em_s = Psc.default_module seidel in
  let pool = Psc.Pool.create 4 in
  at_exit (fun () -> Psc.Pool.shutdown pool);
  [ (* F1: parse + elaborate the Fig. 1 module *)
    Test.make ~name:"fig1_parse"
      (Staged.stage (fun () -> Psc.load_string Ps_models.Models.jacobi));
    (* F2/F3: dependency graph construction with labels *)
    Test.make ~name:"fig3_depgraph" (Staged.stage (fun () -> Psc.dep_graph em_j));
    (* F5: components of the full graph *)
    Test.make ~name:"fig5_components"
      (Staged.stage
         (let g = Psc.dep_graph em_j in
          fun () -> Psc.Scc.components (Psc.Scc.full_subgraph g)));
    (* F6: scheduling the Jacobi module *)
    Test.make ~name:"fig6_schedule" (Staged.stage (fun () -> Psc.schedule em_j));
    (* F7: scheduling the revised module *)
    Test.make ~name:"fig7_schedule" (Staged.stage (fun () -> Psc.schedule em_s));
    (* H1: solving the dependence inequalities *)
    Test.make ~name:"h1_coefficients"
      (Staged.stage (fun () -> Psc.Solve.solve paper_vectors));
    (* H2: the whole source-to-source transformation *)
    Test.make ~name:"h2_transform"
      (Staged.stage (fun () -> Psc.Transform.apply em_s ~target:"A"));
    (* H3: re-scheduling the transformed module with sinking *)
    Test.make ~name:"h3_hyper_schedule"
      (Staged.stage
         (let em_h = Psc.find_module hyper_project hyper_name in
          fun () -> Psc.schedule ~sink:true em_h));
    (* F6 execution: the DOALL-heavy Jacobi program, sequential and pooled *)
    Test.make ~name:"fig6_jacobi_exec_seq"
      (Staged.stage (fun () -> Psc.run ~check:false jacobi ~inputs:inputs_b));
    Test.make ~name:"fig6_jacobi_exec_par"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~pool jacobi ~inputs:inputs_b));
    (* F7 execution: the fully iterative program *)
    Test.make ~name:"fig7_seidel_exec"
      (Staged.stage (fun () -> Psc.run ~check:false seidel ~inputs:inputs_b));
    (* H3 execution: transformed program, windowed store, seq and par *)
    Test.make ~name:"h3_hyper_exec_seq"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~name:hyper_name ~sink:true hyper_project
             ~inputs:inputs_b));
    Test.make ~name:"h3_hyper_exec_par"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~pool ~name:hyper_name ~sink:true hyper_project
             ~inputs:inputs_b));
    (* V1: windowed vs full allocation of the Jacobi store *)
    Test.make ~name:"v1_windows_on"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~use_windows:true jacobi ~inputs:inputs_b));
    Test.make ~name:"v1_windows_off"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~use_windows:false jacobi ~inputs:inputs_b));
    (* Ablation A1: bound trimming on the transformed program — the box
       scan vs Lamport's exact wavefront bounds. *)
    Test.make ~name:"a1_hyper_box"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~name:hyper_name ~sink:true hyper_project
             ~inputs:inputs_b));
    Test.make ~name:"a1_hyper_trimmed"
      (Staged.stage (fun () ->
           Psc.run ~check:false ~name:hyper_name ~sink:true ~trim:true
             hyper_project ~inputs:inputs_b));
    (* Ablation A2: loop fusion on an element-wise pipeline. *)
    Test.make ~name:"a2_pipeline_unfused"
      (Staged.stage
         (let tp = Util_bench.project Util_bench.pipeline_src in
          let x =
            Psc.Exec.array_real ~dims:[ (1, 20000) ] (fun ix -> float_of_int ix.(0))
          in
          let ins = [ ("X", x); ("N", Psc.Exec.scalar_int 20000) ] in
          fun () -> Psc.run ~check:false tp ~inputs:ins));
    Test.make ~name:"a2_pipeline_fused"
      (Staged.stage
         (let tp = Util_bench.project Util_bench.pipeline_src in
          let x =
            Psc.Exec.array_real ~dims:[ (1, 20000) ] (fun ix -> float_of_int ix.(0))
          in
          let ins = [ ("X", x); ("N", Psc.Exec.scalar_int 20000) ] in
          fun () -> Psc.run ~check:false ~fuse:true tp ~inputs:ins)) ]

let part3 () =
  Fmt.pr "============================================================@.";
  Fmt.pr "Part 3: Bechamel micro-benchmarks (one per experiment)@.";
  Fmt.pr "============================================================@.@.";
  let cfg =
    Benchmark.cfg
      ~quota:(Time.second (if quick then 0.05 else 0.4))
      ~limit:2000 ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Fmt.pr "%-24s %14s %10s@." "experiment" "ns/run" "r^2";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | Some (e :: _) -> e
            | _ -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
          Fmt.pr "%-24s %14.1f %10.4f@." (Test.Elt.name elt) ns r2)
        (Test.elements test))
    tests

let () =
  if serve_mode then Serve_bench.run ~quick
  else begin
    part1 ();
    part2 ();
    part2b ();
    if json_mode then write_json "BENCH_runtime.json" else part3 ();
    Fmt.pr "@.All paper artifacts regenerated and checked.@."
  end
