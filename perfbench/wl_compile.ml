(* The `compile` workload: the seeded corpus compiled end to end, with
   no execution.  One op takes one program through what
   `psc schedule --sink --fuse --trim --collapse --verify-schedule`,
   `psc emit-c` and `psc lint` do, plus the section 4 transform (and
   the sink+trim schedule of its result) where it applies.  Each layer
   is called through its public function inside a [Pb.span]. *)

open Pb

let fig6 =
  "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"

let fig7 =
  "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"

(* IR sizes and pass applications of one op, for the per-layer counts. *)
type counts = {
  edges : int;
  loops : int;
  doall : int;
  windows : int;
  merged : int;
  trimmed : int;
  collapsed : int;
  c_bytes : int;
}

let zero =
  { edges = 0; loops = 0; doall = 0; windows = 0; merged = 0; trimmed = 0;
    collapsed = 0; c_bytes = 0 }

let add a b =
  { edges = a.edges + b.edges; loops = a.loops + b.loops;
    doall = a.doall + b.doall; windows = a.windows + b.windows;
    merged = a.merged + b.merged; trimmed = a.trimmed + b.trimmed;
    collapsed = a.collapsed + b.collapsed; c_bytes = a.c_bytes + b.c_bytes }

exception Check of string

let check b fmt = Printf.ksprintf (fun m -> if not b then raise (Check m)) fmt

let no_errors what diags =
  match Psc.Diag.errors diags with
  | [] -> ()
  | d :: _ -> raise (Check (what ^ ": " ^ Fmt.str "%a" Psc.Diag.pp d))

let window_of (ws : Psc.Schedule.window list) data =
  List.find_map
    (fun (w : Psc.Schedule.window) ->
      if w.Psc.Schedule.w_data = data then Some w.Psc.Schedule.w_size else None)
    ws

(* The section 4 result: transform, re-elaborate, schedule with sinking
   and trimming (the h3 shape), verify. *)
let transformed t ~target =
  let tp, tr = span "hyper.transform" (fun () -> Psc.hyperplane ~target t) in
  let em =
    Psc.find_module tp tr.Psc.Transform.tr_module.Psc.Ast.m_name
  in
  let r = span "sched.schedule" (fun () -> Psc.Schedule.schedule em) in
  let s = span "sched.sink" (fun () -> Psc.Sink.apply em r) in
  let fc, trimmed =
    span "sched.trim" (fun () -> Psc.Trim.apply em s.Psc.Sink.s_flowchart)
  in
  let sc =
    { Psc.sc_module = em; sc_result = r; sc_flowchart = fc;
      sc_windows = s.Psc.Sink.s_windows; sc_sunk = s.Psc.Sink.s_sunk;
      sc_merged = 0; sc_trimmed = trimmed; sc_collapsed = 0 }
  in
  let diags = span "check.verify" (fun () -> Psc.verify sc) in
  (tr, sc, diags)

(* What one op produced, for the checks. *)
type out = {
  o_t : Psc.t;
  o_em : Psc.Elab.emodule;
  o_plain : Psc.Schedule.result;  (* the schedule before any pass *)
  o_sc : Psc.scheduled;  (* after sink, fuse, trim, collapse *)
  o_verify : Psc.Diag.t list;
  o_c : string;
  o_hyper : (Psc.Transform.t * Psc.scheduled * Psc.Diag.t list) option;
}

(* One op.  Raises on any failure; the output checks run after the op's
   clock has stopped ([check_op]). *)
let compile_op (e : Corpus.entry) =
  let ast = span "lang.parse" (fun () -> Psc.Parser.program_of_string e.Corpus.e_src) in
  let prog = span "sem.elab" (fun () -> Psc.Elab.elab_program ast) in
  let diagnostics =
    span "sem.sa_check" (fun () -> Psc.Sa_check.check_program prog)
  in
  let t = { Psc.ast; prog; diagnostics } in
  let em = Psc.default_module t in
  let r = span "sched.schedule" (fun () -> Psc.Schedule.schedule em) in
  let s = span "sched.sink" (fun () -> Psc.Sink.apply em r) in
  let fc, merged =
    span "sched.fuse" (fun () ->
        Psc.Fuse.apply em r.Psc.Schedule.r_graph s.Psc.Sink.s_flowchart)
  in
  let fc, trimmed = span "sched.trim" (fun () -> Psc.Trim.apply em fc) in
  let fc, collapsed =
    span "sched.collapse" (fun () ->
        let fc = Psc.Collapse.mark fc in
        (fc, Psc.Collapse.count fc))
  in
  let sc =
    { Psc.sc_module = em; sc_result = r; sc_flowchart = fc;
      sc_windows = s.Psc.Sink.s_windows; sc_sunk = s.Psc.Sink.s_sunk;
      sc_merged = merged; sc_trimmed = trimmed; sc_collapsed = collapsed }
  in
  let vdiags = span "check.verify" (fun () -> Psc.verify sc) in
  (* `psc emit-c` emits the plain schedule, which [r] already is. *)
  let c =
    if not e.Corpus.e_emit then ""
    else
      span "codegen.emit" (fun () ->
          Psc.Emit.emit_module ~windows:r.Psc.Schedule.r_windows em
            r.Psc.Schedule.r_flowchart)
  in
  (* Lint findings (an E020 where a bound cannot be proved, say) are
     the lint's output about the program, not a failure of the op. *)
  ignore (span "check.lint" (fun () -> Psc.lint t));
  let hyper =
    Option.map (fun target -> transformed t ~target) e.Corpus.e_target
  in
  { o_t = t; o_em = em; o_plain = r; o_sc = sc; o_verify = vdiags; o_c = c;
    o_hyper = hyper }

(* Everything an op's outputs must satisfy, checked off the clock. *)
let check_op (e : Corpus.entry) o =
  let r = o.o_plain and sc = o.o_sc and hyper = o.o_hyper in
  no_errors "single assignment" o.o_t.Psc.diagnostics;
  no_errors "verify" o.o_verify;
  check (String.length o.o_c > 0 = e.Corpus.e_emit) "C output";
  (match hyper with
   | Some (_, _, d) -> no_errors "verify (transformed)" d
   | None -> ());
  let compact fc = Psc.Flowchart.to_compact_string o.o_em fc in
  (match e.Corpus.e_name with
   | "jacobi" ->
     check (compact r.Psc.Schedule.r_flowchart = fig6) "Fig. 6 schedule";
     check (window_of r.Psc.Schedule.r_windows "A" = Some 2) "jacobi window 2"
   | "seidel" -> (
     check (compact r.Psc.Schedule.r_flowchart = fig7) "Fig. 7 schedule";
     match hyper with
     | Some (tr, hsc, _) ->
       check (tr.Psc.Transform.tr_time = [| 2; 1; 1 |]) "section 4 a=(2,1,1)";
       check
         (window_of hsc.Psc.sc_windows tr.Psc.Transform.tr_new_name = Some 3)
         "transformed window 3"
     | None -> check false "seidel: no section 4 transform")
   | _ -> ());
  let fc = sc.Psc.sc_flowchart in
  { edges = List.length (Psc.Dgraph.edges r.Psc.Schedule.r_graph);
    loops = Psc.Flowchart.count_loops fc;
    doall = Psc.Flowchart.count_loops ~kind:Psc.Flowchart.Parallel fc;
    windows = List.length sc.Psc.sc_windows;
    merged = sc.Psc.sc_merged;
    trimmed =
      (sc.Psc.sc_trimmed
      + match hyper with Some (_, h, _) -> h.Psc.sc_trimmed | None -> 0);
    collapsed = sc.Psc.sc_collapsed;
    c_bytes = String.length o.o_c }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ns : float list;  (* every op *)
  mutable paper_ns : (string * float) list;  (* jacobi/seidel/lcs ops *)
  mutable counts : counts;
}

let new_tally () =
  { attempted = 0; failed = 0; lat_ns = []; paper_ns = []; counts = zero }

(* One op, timed, then checked off the clock.  A failure is counted,
   never raised.  Returns the op's time when it succeeded. *)
let run_entry tally (e : Corpus.entry) =
  tally.attempted <- tally.attempted + 1;
  let fail what =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "compile %s: %s\n%!" e.Corpus.e_name what;
    None
  in
  let t0 = now_ns () in
  match span "compile.op" (fun () -> compile_op e) with
  | exception ex -> fail (Printexc.to_string ex)
  | out -> (
    let dt = float_of_int (now_ns () - t0) in
    match check_op e out with
    | c ->
      tally.counts <- add tally.counts c;
      Some dt
    | exception Check m -> fail ("wrong output: " ^ m)
    | exception ex -> fail ("wrong output: " ^ Printexc.to_string ex))

(* fig6_ms, h3_ms and lcs_ms time the paper's programs between corpus
   entries: after every [paper_every]-th entry of a pass the next of the
   three, round robin, is compiled on its own, and each metric is the
   median of its program's op times over the run, each read at the
   reference host speed ([Yardstick]).  Spread over the whole run, as
   the corpus ops behind latency_ms_p50 are, the samples see every
   slice of it; a block of back-to-back compiles sees one.  Every
   fourth entry gives each program about 400 samples in 30 s for 2% of
   the run's time.  These ops count as attempted but stay out of the
   corpus latencies and throughput. *)
let paper = [ ("jacobi", "fig6_ms"); ("seidel", "h3_ms"); ("lcs", "lcs_ms") ]

let paper_every = 4

(* Whole passes over the corpus until [seconds] have elapsed, so every
   entry weighs the same in the throughput, with the paper ops in
   between when [with_paper] is set.  With a [meter], every op's time
   is also read at the reference host speed ([Yardstick]), under
   "corpus" or the paper program's name.  Returns the number of passes
   and the raw throughput: corpus ops per second of corpus time. *)
let passes ?(with_paper = false) ?meter tally corpus ~seconds =
  let paper_entries =
    Array.of_list
      (List.filter_map
         (fun (name, _) -> Array.find_opt (fun e -> e.Corpus.e_name = name) corpus)
         paper)
  in
  let record key dt =
    Option.iter
      (fun m ->
        Yardstick.add m key dt;
        Yardstick.tick m)
      meter
  in
  let next = ref 0 and n = ref 0 and paper_time = ref 0 in
  let t0 = now_ns () in
  while !n = 0 || secs_since t0 < seconds do
    Array.iteri
      (fun i e ->
        Option.iter
          (fun dt ->
            tally.lat_ns <- dt :: tally.lat_ns;
            record "corpus" dt)
          (run_entry tally e);
        if with_paper && i mod paper_every = paper_every - 1 then begin
          let p = paper_entries.(!next mod Array.length paper_entries) in
          incr next;
          let t = now_ns () in
          Option.iter
            (fun dt ->
              tally.paper_ns <- (p.Corpus.e_name, dt) :: tally.paper_ns;
              record p.Corpus.e_name dt)
            (run_entry tally p);
          paper_time := !paper_time + (now_ns () - t)
        end)
      corpus;
    incr n
  done;
  Option.iter Yardstick.cut meter;
  let corpus_s = float_of_int (now_ns () - t0 - !paper_time) /. 1e9 in
  (!n, float_of_int (!n * Array.length corpus) /. corpus_s)

let setup ~seed =
  let corpus = Corpus.make ~seed in
  let warm = new_tally () in
  Array.iter (fun e -> ignore (run_entry warm e)) corpus;
  (corpus, warm)

let paper_median tally name =
  median
    (List.filter_map
       (fun (n, dt) -> if n = name then Some (dt /. 1e6) else None)
       tally.paper_ns)

let tail = P99

(* The yardstick is timed once at least this much of the run has gone
   by since the last timing: about 5% of the run. *)
let slice_ms = 100.0

(* The untraced run: the end-to-end metrics, every time read at the
   reference host speed, with the raw figures printed beside them. *)
let run ~seed ~seconds =
  let (corpus, warm), setup_s = Yardstick.setups (fun () -> setup ~seed) in
  let tally = new_tally () in
  let meter = Yardstick.meter ~interval_ms:slice_ms () in
  let t_run = now_ns () in
  let n, raw_ops_per_s = passes ~with_paper:true ~meter tally corpus ~seconds in
  Printf.printf "compile: %d programs x %d passes, %d ops in %.2f s\n"
    (Array.length corpus) n tally.attempted (secs_since t_run);
  Yardstick.report meter;
  Printf.printf "raw: %.3f ops/s, p50 %.3f ms, %s\n" raw_ops_per_s
    (pct (sorted tally.lat_ns) 0.5 /. 1e6)
    (String.concat ", "
       (List.map
          (fun (n, _) -> Printf.sprintf "%s %.3f ms" n (paper_median tally n))
          paper));
  let lat = sorted (Yardstick.normalized meter "corpus") in
  let tail_ns = report_tail tail lat in
  let norm_ms name = median (Yardstick.normalized meter name) /. 1e6 in
  { attempted = tally.attempted + warm.attempted;
    failed = tally.failed + warm.failed;
    correct = tally.failed + warm.failed = 0;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb "self");
        metric "ops_per_s" "1/s"
          (float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e9));
        metric "latency_ms_p50" "ms" (pct lat 0.5 /. 1e6);
        metric "latency_ms_tail" "ms" (tail_ns /. 1e6) ]
      @ List.map (fun (n, m) -> metric m "ms" (norm_ms n)) paper }

(* The traced run: the same op, first untraced then with spans on, for
   per-layer self times, IR counts and the tracing overhead. *)
(* The traced phase records about 12 000 events a second; it is capped
   so the trace file stays near 10 MB. *)
let traced_phase_s = 8.0

let run_traced ~seed ~seconds =
  let corpus, warm = setup ~seed in
  let half = Float.min traced_phase_s (seconds /. 2.0) in
  let plain = new_tally () in
  let gc0 = Gc.quick_stat () in
  let _, ops_plain = passes plain corpus ~seconds:half in
  let gc1 = Gc.quick_stat () in
  let minor_words =
    (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int plain.attempted
  in
  let traced = new_tally () in
  Psc.Trace.set_enabled true;
  let _, ops_traced = passes traced corpus ~seconds:half in
  Psc.Trace.set_enabled false;
  let events = Psc.Trace.events () in
  let file = work_file "compile.trace.json" in
  Psc.Trace.write file;
  let trace_ok = trace_check [ file ] in
  let layers = layer_times events in
  print_layer_table layers;
  Printf.printf "tracing overhead (traced / untraced ops_per_s): %.4f\n"
    (ops_traced /. ops_plain);
  let per_op name =
    match List.assoc_opt name layers with
    | Some lt -> lt.lt_self_us /. float_of_int traced.attempted
    | None -> 0.0
  in
  let c = warm.counts in
  let failed = warm.failed + plain.failed + traced.failed in
  { attempted = warm.attempted + plain.attempted + traced.attempted;
    failed;
    correct = failed = 0 && trace_ok;
    metrics =
      List.map
        (fun l -> metric (l ^ "_us") "us" (per_op l))
        [ "lang.parse"; "sem.elab"; "sem.sa_check"; "sched.schedule";
          "sched.sink"; "sched.fuse"; "sched.trim"; "sched.collapse";
          "hyper.transform"; "check.verify"; "check.lint"; "codegen.emit" ]
      @ [ metric "graph.edges" "count" (float_of_int c.edges);
          metric "sched.loops" "count" (float_of_int c.loops);
          metric "sched.doall_loops" "count" (float_of_int c.doall);
          metric "sched.windows" "count" (float_of_int c.windows);
          metric "sched.merged" "count" (float_of_int c.merged);
          metric "sched.trimmed" "count" (float_of_int c.trimmed);
          metric "sched.collapsed" "count" (float_of_int c.collapsed);
          metric "codegen.c_bytes" "bytes" (float_of_int c.c_bytes);
          metric "compile.minor_words_per_module" "words" minor_words;
          metric "trace.overhead" "ratio" (ops_traced /. ops_plain) ] }
