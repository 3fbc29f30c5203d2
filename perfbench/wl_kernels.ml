(* The `kernels` workload: the paper's three executed programs, each
   scheduled in set-up, then run round-robin — one sequential
   [Exec.run] with bounds checks on (the `psc run` default) per op —
   so a slow host phase hits all three alike.

   - fig6: Fig. 1 Jacobi with the Fig. 6 schedule and a 2-plane window;
   - h3: the section 4 transform of the Seidel relaxation, sink+trim, a
     trimmed wavefront with a 3-plane window;
   - lcs: the transformed LCS, an int anti-diagonal DOALL. *)

open Pb
module Rng = Ps_fuzz.Gen.Rng

(* Comparable tens of milliseconds each on a 2-core host. *)
let m = 64

let maxk = 40

let lcs_n = 512

type kernel = {
  k_name : string;
  k_project : Psc.t;
  k_module : Psc.Elab.emodule;
  k_sink_trim : bool;
  k_sched : Psc.scheduled;
  k_env : (string * int) list;
  k_inputs : (string * Psc.Value.value) list;
  k_check : Psc.Exec.run_result -> bool;
}

let scheduled ?target ~sink_trim src =
  span "sched.kernel" @@ fun () ->
  let t = Psc.load_string src in
  let t, name =
    match target with
    | None -> (t, None)
    | Some target ->
      let t, tr = Psc.hyperplane ~target t in
      (t, Some tr.Psc.Transform.tr_module.Psc.Ast.m_name)
  in
  let em = Psc.the_module ?name t in
  let sc = Psc.schedule ~sink:sink_trim ~trim:sink_trim em in
  (t, em, sc)

(* Seeded inputs: grid values in [0, 1) with three decimals, LCS
   strings over a 4-letter alphabet. *)
let grid rng =
  Array.init ((m + 2) * (m + 2)) (fun _ -> float (Rng.int rng 1000) /. 1000.0)

let grid_value g =
  Psc.Exec.array_real ~dims:[ (0, m + 1); (0, m + 1) ] (fun ix ->
      g.((ix.(0) * (m + 2)) + ix.(1)))

let output r name = List.assoc name r.Psc.Exec.outputs

let kernels ~seed =
  let rng = Rng.create seed in
  let relax_env = [ ("M", m); ("maxK", maxk) ] in
  let relax_inputs g =
    [ ("InitialA", grid_value g); ("M", Psc.Exec.scalar_int m);
      ("maxK", Psc.Exec.scalar_int maxk) ]
  in
  let g6 = grid rng and g3 = grid rng in
  let x = Array.init lcs_n (fun _ -> Rng.int rng 4) in
  let y = Array.init lcs_n (fun _ -> Rng.int rng 4) in
  let ref6 = span "ref.jacobi" (fun () -> Refs.jacobi ~m ~maxk g6) in
  let ref3 = span "ref.seidel" (fun () -> Refs.seidel ~m ~maxk g3) in
  let ref_lcs = span "ref.lcs" (fun () -> Refs.lcs x y) in
  let t6, em6, sc6 = scheduled ~sink_trim:false Ps_models.Models.jacobi in
  let t3, em3, sc3 =
    scheduled ~target:"A" ~sink_trim:true Ps_models.Models.seidel
  in
  let tl, eml, scl =
    scheduled ~target:"L" ~sink_trim:true Ps_models.Models.lcs
  in
  let int_array a =
    Psc.Exec.array_int ~dims:[ (1, lcs_n) ] (fun ix -> a.(ix.(0) - 1))
  in
  [ { k_name = "fig6"; k_project = t6; k_module = em6; k_sink_trim = false;
      k_sched = sc6; k_env = relax_env; k_inputs = relax_inputs g6;
      k_check = (fun r -> Refs.grid_matches ~m (output r "newA") ref6) };
    { k_name = "h3"; k_project = t3; k_module = em3; k_sink_trim = true;
      k_sched = sc3; k_env = relax_env; k_inputs = relax_inputs g3;
      k_check = (fun r -> Refs.grid_matches ~m (output r "newA") ref3) };
    { k_name = "lcs"; k_project = tl; k_module = eml; k_sink_trim = true;
      k_sched = scl; k_env = [ ("N", lcs_n) ];
      k_inputs =
        [ ("X", int_array x); ("Y", int_array y);
          ("N", Psc.Exec.scalar_int lcs_n) ];
      k_check =
        (fun r ->
          match output r "len" with
          | Psc.Value.Vscalar s -> Psc.Value.as_int s = ref_lcs
          | Psc.Value.Varray _ -> false) } ]

let opts k ~stats =
  { Psc.Exec.default_opts with
    collect_stats = stats;
    sched_flags =
      { Psc.Exec.no_sched_flags with
        sf_sink = k.k_sink_trim; sf_trim = k.k_sink_trim } }

(* One op: the timed run, then the bit-for-bit check off the clock. *)
let exec ?(stats = false) k =
  span ("interp.run." ^ k.k_name) @@ fun () ->
  Psc.Exec.run ~opts:(opts k ~stats) ~flowchart:k.k_sched.Psc.sc_flowchart
    ~windows:k.k_sched.Psc.sc_windows ~prog:k.k_project.Psc.prog k.k_module
    ~inputs:k.k_inputs

type tally = {
  mutable attempted : int;
  mutable failed : int;
  times : (string, float list) Hashtbl.t;  (* ns per run, per kernel *)
}

let new_tally () = { attempted = 0; failed = 0; times = Hashtbl.create 3 }

(* With a [meter], the run's time is also read at the reference host
   speed ([Yardstick]). *)
let run_op ?meter tally k =
  tally.attempted <- tally.attempted + 1;
  let t0 = now_ns () in
  match exec k with
  | exception ex ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "kernel %s: %s\n%!" k.k_name (Printexc.to_string ex)
  | r ->
    let dt = float_of_int (now_ns () - t0) in
    let prev = Option.value (Hashtbl.find_opt tally.times k.k_name) ~default:[] in
    Hashtbl.replace tally.times k.k_name (dt :: prev);
    Option.iter (fun m -> Yardstick.add m k.k_name dt) meter;
    if not (k.k_check r) then begin
      tally.failed <- tally.failed + 1;
      Printf.eprintf "kernel %s: output differs from the reference\n%!" k.k_name
    end

(* Round-robin rounds over the three kernels until [seconds] elapse,
   with the yardstick timed after every round when there is a [meter].
   Returns the number of rounds and the raw throughput in runs per
   second. *)
let rounds ?meter tally ks ~seconds =
  let t0 = now_ns () and n = ref 0 in
  while !n = 0 || secs_since t0 < seconds do
    List.iter (run_op ?meter tally) ks;
    Option.iter Yardstick.cut meter;
    incr n
  done;
  (!n, float_of_int (!n * List.length ks) /. secs_since t0)

(* Set-up: inputs, references, scheduling, and one warm-up round. *)
let setup ~seed =
  let ks = kernels ~seed in
  let warm = new_tally () in
  List.iter (run_op warm) ks;
  (ks, warm)

let all_times tally =
  Hashtbl.fold (fun _ l acc -> List.rev_append l acc) tally.times []

let kernel_ms tally name =
  median (Option.value (Hashtbl.find_opt tally.times name) ~default:[]) /. 1e6

let tail = P90

(* The untraced run.  Every gated time is read at the reference host
   speed; the raw figures are printed beside them. *)
let run ~seed ~seconds =
  let (ks, warm), setup_s = Yardstick.setups (fun () -> setup ~seed) in
  let tally = new_tally () in
  let meter = Yardstick.meter ~interval_ms:0.0 () in
  let n, raw_ops_per_s = rounds ~meter tally ks ~seconds in
  let lat = sorted (Yardstick.all_normalized meter) in
  Printf.printf "kernels: %d runs in %d rounds\n" (Array.length lat) n;
  Yardstick.report meter;
  Printf.printf "raw: %.3f runs/s, p50 %.3f ms, %s\n" raw_ops_per_s
    (pct (sorted (all_times tally)) 0.5 /. 1e6)
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%s %.3f ms" k.k_name (kernel_ms tally k.k_name))
          ks));
  let tail_ns = report_tail tail lat in
  let norm_ms name = median (Yardstick.normalized meter name) /. 1e6 in
  let failed = warm.failed + tally.failed in
  { attempted = warm.attempted + tally.attempted;
    failed;
    correct = failed = 0;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb "self");
        metric "ops_per_s" "1/s"
          (float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e9));
        metric "latency_ms_p50" "ms" (pct lat 0.5 /. 1e6);
        metric "latency_ms_tail" "ms" (tail_ns /. 1e6);
        metric "fig6_ms" "ms" (norm_ms "fig6");
        metric "h3_ms" "ms" (norm_ms "h3");
        metric "lcs_ms" "ms" (norm_ms "lcs") ] }

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* Emitted-C reference sizes: large enough that the C process runs for
   at least 100 ms, so process start-up is noise.  The C fills its
   inputs with the shared deterministic generator
   ([Ps_models.Models.fill_value]); the OCaml references recompute the
   same checksums. *)
let c_env = function
  | "fig6" -> [ ("M", 512); ("maxK", 300) ]
  | "h3" -> [ ("M", 512); ("maxK", 150) ]
  | _ -> [ ("N", 6000) ]

let c_expected name env =
  match name with
  | "lcs" ->
    let n = List.assoc "N" env in
    (* (int) of a fill value in [0, 1) is 0. *)
    float_of_int (Refs.lcs (Array.make n 0) (Array.make n 0))
  | _ ->
    let m = List.assoc "M" env and maxk = List.assoc "maxK" env in
    let init = Array.init ((m + 2) * (m + 2)) Ps_models.Models.fill_value in
    Refs.checksum
      ((if name = "fig6" then Refs.jacobi else Refs.seidel) ~m ~maxk init)

let have_cc () = Sys.command "cc --version > /dev/null 2>&1" = 0

(* One run of an emitted-C binary: whether it exited cleanly and
   printed the expected checksum bit for bit, and its wall time. *)
let run_c exe expected =
  let t0 = now_ns () in
  let ic = Unix.open_process_in (Filename.quote exe) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  let dt = float_of_int (now_ns () - t0) in
  let sum =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; v ] -> float_of_string_opt v
        | _ -> None)
      !lines
  in
  (ok && Option.fold ~none:false ~some:(Refs.same_bits expected) sum, dt)

(* Build the kernel's emitted C (outside every timed op), run it three
   times and return whether every checksum matched the OCaml reference
   and the median wall time; [None] when cc fails. *)
let c_reference k =
  let env = c_env k.k_name in
  let src =
    span "codegen.emit_main" (fun () ->
        Psc.emit_c_main ~name:k.k_module.Psc.Elab.em_name ~sink:k.k_sink_trim
          ~trim:k.k_sink_trim ~scalars:env k.k_project)
  in
  let c_file = work_file (k.k_name ^ ".c") and exe = work_file k.k_name in
  let oc = open_out c_file in
  output_string oc src;
  close_out oc;
  let cmd =
    Printf.sprintf "cc -O2 -ffp-contract=off -o %s %s -lm" (Filename.quote exe)
      (Filename.quote c_file)
  in
  if span "codegen.cc" (fun () -> Sys.command cmd) <> 0 then None
  else begin
    let expected = span "ref.c_checksum" (fun () -> c_expected k.k_name env) in
    let runs =
      List.init 3 (fun _ -> span "codegen.c_run" (fun () -> run_c exe expected))
    in
    Some (List.for_all fst runs, median (List.map snd runs))
  end

let work k env =
  (Psc.Analysis.of_flowchart ~env k.k_sched.Psc.sc_flowchart).Psc.Analysis.work

(* Pooled replay: nproc domains, the static cost model's per-nest
   table, three runs; the pool's own counters. *)
let pooled k =
  Psc.Metrics.set_enabled true;
  let name = k.k_module.Psc.Elab.em_name in
  let sink = k.k_sink_trim and trim = k.k_sink_trim in
  let r =
    Psc.Pool.with_pool nproc (fun pool ->
        let policy =
          Psc.static_policy ~name ~sink ~trim ~cores:nproc k.k_project ~env:k.k_env
        in
        Psc.Pool.reset_stats pool;
        let times =
          List.init 3 (fun _ ->
              let t0 = now_ns () in
              span ("runtime.pool." ^ k.k_name) (fun () ->
                  ignore
                    (Psc.run ~name ~sink ~trim ~pool ~policy k.k_project
                       ~inputs:k.k_inputs));
              float_of_int (now_ns () - t0))
        in
        (median times, Psc.Pool.summary pool))
  in
  Psc.Metrics.set_enabled false;
  r

let run_traced ~seed ~seconds =
  let ks, warm = setup ~seed in
  let third = seconds /. 3.0 in
  let plain = new_tally () in
  let _, ops_plain = rounds plain ks ~seconds:third in
  let traced = new_tally () in
  Psc.Trace.set_enabled true;
  let _, ops_traced = rounds traced ks ~seconds:third in
  let cc = have_cc () in
  if not cc then print_endline "no C compiler: the emitted-C rows read 0";
  let failed = ref (warm.failed + plain.failed + traced.failed) in
  let attempted = ref (warm.attempted + plain.attempted + traced.attempted) in
  let per_kernel =
    List.concat_map
      (fun k ->
        let n = k.k_name in
        let stats = exec ~stats:true k in
        let evals = float_of_int (Option.get stats.Psc.Exec.evaluations) in
        let gc0 = Gc.minor_words () in
        ignore (exec k);
        let words = Gc.minor_words () -. gc0 in
        let ns_per_eval = kernel_ms plain n *. 1e6 /. evals in
        let allocated =
          List.fold_left (fun a (_, w) -> a + w) 0 stats.Psc.Exec.allocated
        in
        let par =
          Psc.Analysis.parallelism
            (Psc.Analysis.of_flowchart ~env:k.k_env k.k_sched.Psc.sc_flowchart)
        in
        Printf.printf "%s: %.0f evaluations, analysis work %.0f\n" n evals
          (work k k.k_env);
        let c_rows c_per_eval ratio =
          [ ("codegen.c_ns_per_eval", "ns", c_per_eval);
            ("interp.c_ratio", "ratio", ratio) ]
        in
        let c_rows =
          if not cc then c_rows 0.0 0.0
          else begin
            incr attempted;
            let env = c_env n in
            match c_reference k with
            | None ->
              incr failed;
              Printf.eprintf "kernel %s: cc failed on its emitted C\n%!" n;
              c_rows 0.0 0.0
            | Some (ok, c_ns) ->
              if not ok then begin
                incr failed;
                Printf.eprintf "kernel %s: emitted C checksum differs\n%!" n
              end;
              (* Evaluations at the C size, scaled from the counted ones
                 by the schedule's work (which counts h3's untrimmed
                 box). *)
              let c_per_eval = c_ns /. (evals *. work k env /. work k k.k_env) in
              Printf.printf "%s: C %.1f ms at %s\n" n (c_ns /. 1e6)
                (String.concat " "
                   (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) env));
              c_rows c_per_eval (ns_per_eval /. c_per_eval)
          end
        in
        let pool_ns, sm = pooled k in
        List.map
          (fun (m, u, v) -> metric (m ^ "." ^ n) u v)
          ([ ("interp.ns_per_eval", "ns", ns_per_eval);
             ("interp.minor_words_per_eval", "words", words /. evals);
             ("interp.evaluations", "count", evals);
             ("interp.allocated_words", "words", float_of_int allocated);
             ("sched.parallelism", "ratio", par);
             ("runtime.pool_ms", "ms", pool_ns /. 1e6);
             ("runtime.utilization", "ratio", sm.Psc.Pool.sm_utilization);
             ("runtime.imbalance", "ratio", sm.Psc.Pool.sm_imbalance);
             ("runtime.steals", "count", float_of_int sm.Psc.Pool.sm_steals) ]
          @ c_rows))
      ks
  in
  Psc.Trace.set_enabled false;
  let file = work_file "kernels.trace.json" in
  Psc.Trace.write file;
  let trace_ok = trace_check [ file ] in
  print_layer_table (layer_times (Psc.Trace.events ()));
  Printf.printf "tracing overhead (traced / untraced ops_per_s): %.4f\n"
    (ops_traced /. ops_plain);
  { attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && trace_ok;
    metrics =
      per_kernel @ [ metric "trace.overhead" "ratio" (ops_traced /. ops_plain) ] }
