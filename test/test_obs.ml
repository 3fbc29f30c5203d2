(* Observability: the span tracer and its Chrome exporter, the metrics
   registry, the loop profiler, and the pool counters.

   Two properties matter beyond basic correctness: the exporter
   round-trips (what Perfetto loads is exactly what was recorded), and
   everything is free when disabled — no events, no samples, and pool
   jobs indistinguishable in wall time from the uninstrumented path. *)

module Trace = Psc.Trace
module Metrics = Psc.Metrics
module Prof = Psc.Prof
module Pool = Psc.Pool

let t name f = Alcotest.test_case name `Quick f

(* Every test leaves the global flags the way it found them: off. *)
let with_flags f =
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      Prof.set_enabled false)

let jacobi = Psc.load_string Ps_models.Models.jacobi

let jacobi_inputs = Ps_models.Models.relaxation_inputs ~m:8 ~maxk:4

(* ------------------------------------------------------------------ *)
(* Tracing and the Chrome exporter. *)

let names_of evs = List.map (fun e -> e.Trace.ev_name) evs

(* For each Begin event, the name of the innermost span open at that
   point (single-threaded traces only). *)
let parents evs =
  let stack = ref [] and out = ref [] in
  List.iter
    (fun e ->
      match e.Trace.ev_ph with
      | Trace.Begin ->
        out :=
          (e.Trace.ev_name, match !stack with [] -> None | p :: _ -> Some p)
          :: !out;
        stack := e.Trace.ev_name :: !stack
      | Trace.End -> (match !stack with _ :: tl -> stack := tl | [] -> ())
      | Trace.Instant -> ())
    evs;
  List.rev !out

let begin_index name evs =
  let rec go i = function
    | [] -> Alcotest.failf "no Begin event named %S" name
    | e :: tl ->
      if e.Trace.ev_ph = Trace.Begin && e.Trace.ev_name = name then i
      else go (i + 1) tl
  in
  go 0 evs

let trace_tests =
  [ t "disabled tracing records nothing" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled false;
        Trace.reset ();
        let r = Trace.with_span "quiet" (fun () -> 41 + 1) in
        Alcotest.(check int) "value" 42 r;
        Alcotest.(check int) "no events" 0 (List.length (Trace.events ())));
    t "spans bracket and nest" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> ()));
        let evs = Trace.events () in
        Alcotest.(check (list string)) "order"
          [ "outer"; "inner"; "inner"; "outer" ]
          (names_of evs);
        Alcotest.(check bool) "valid" true (Result.is_ok (Trace.validate evs)));
    t "the End is recorded when the body raises" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        (try Trace.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        let evs = Trace.events () in
        Alcotest.(check int) "two events" 2 (List.length evs);
        Alcotest.(check bool) "valid" true (Result.is_ok (Trace.validate evs)));
    t "the pipeline spans nest in pass order" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        ignore (Psc.load_string Ps_models.Models.jacobi);
        let evs = Trace.events () in
        Alcotest.(check bool) "valid" true (Result.is_ok (Trace.validate evs));
        let ps = parents evs in
        List.iter
          (fun pass ->
            match List.assoc_opt pass ps with
            | Some (Some "load") -> ()
            | Some p ->
              Alcotest.failf "%s nests under %s, wanted load" pass
                (Option.value ~default:"(toplevel)" p)
            | None -> Alcotest.failf "no %s span" pass)
          [ "parse"; "elab"; "sa_check" ];
        let i_parse = begin_index "parse" evs in
        let i_elab = begin_index "elab" evs in
        let i_sa = begin_index "sa_check" evs in
        Alcotest.(check bool) "parse before elab" true (i_parse < i_elab);
        Alcotest.(check bool) "elab before sa_check" true (i_elab < i_sa));
    t "the Chrome export round-trips through the parser" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        ignore (Psc.schedule (Psc.default_module jacobi));
        let evs = Trace.events () in
        Alcotest.(check bool) "something recorded" true (evs <> []);
        let back = Trace.parse_chrome (Trace.to_chrome_json ()) in
        Alcotest.(check (list string)) "names" (names_of evs) (names_of back);
        Alcotest.(check (list string)) "phases"
          (List.map
             (fun e ->
               match e.Trace.ev_ph with
               | Trace.Begin -> "B"
               | Trace.End -> "E"
               | Trace.Instant -> "i")
             evs)
          (List.map
             (fun e ->
               match e.Trace.ev_ph with
               | Trace.Begin -> "B"
               | Trace.End -> "E"
               | Trace.Instant -> "i")
             back);
        Alcotest.(check bool) "parsed trace valid" true
          (Result.is_ok (Trace.validate back)));
    t "write/parse through a file, timestamps monotone per thread" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        ignore (Psc.load_string Ps_models.Models.jacobi);
        let path = Filename.temp_file "psc_trace" ".json" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        Trace.write path;
        let ic = open_in path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let evs = Trace.parse_chrome text in
        (match Trace.validate evs with
        | Ok () -> ()
        | Error m -> Alcotest.failf "invalid trace: %s" m);
        (* validate already checks per-thread monotonicity; make the
           property explicit for the single-threaded pipeline trace. *)
        ignore
          (List.fold_left
             (fun last e ->
               if e.Trace.ev_ts < last then
                 Alcotest.failf "timestamp went backwards at %s" e.Trace.ev_name;
               e.Trace.ev_ts)
             0.0 evs));
    t "validate rejects a mismatched End" (fun () ->
        let ev name ph ts =
          { Trace.ev_name = name; ev_ph = ph; ev_ts = ts; ev_pid = 1;
            ev_tid = 1; ev_args = [] }
        in
        let bad =
          [ ev "a" Trace.Begin 0.0; ev "b" Trace.End 1.0; ev "a" Trace.End 2.0 ]
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Trace.validate bad));
        let open_ended = [ ev "a" Trace.Begin 0.0 ] in
        Alcotest.(check bool) "unclosed rejected" true
          (Result.is_error (Trace.validate open_ended));
        let backwards =
          [ ev "a" Trace.Begin 5.0; ev "a" Trace.End 1.0 ]
        in
        Alcotest.(check bool) "non-monotone rejected" true
          (Result.is_error (Trace.validate backwards)));
    t "events carry the real pid and fresh span ids differ" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled true;
        Trace.with_span "me" (fun () -> ());
        List.iter
          (fun e ->
            Alcotest.(check int) "pid" (Unix.getpid ()) e.Trace.ev_pid)
          (Trace.events ());
        let a = Trace.fresh_span_id () and b = Trace.fresh_span_id () in
        Alcotest.(check bool) "distinct sids" true (a <> b);
        (* Span ids are "pid.counter", so they name this process. *)
        let pid_prefix = string_of_int (Unix.getpid ()) ^ "." in
        let n = String.length pid_prefix in
        Alcotest.(check string) "sid names this process" pid_prefix
          (String.sub a 0 n));
    t "collect captures this thread's spans with the store off" (fun () ->
        with_flags @@ fun () ->
        Trace.set_enabled false;
        Trace.reset ();
        let r, evs =
          Trace.collect (fun () ->
              Trace.with_span "captured" (fun () -> 7))
        in
        Alcotest.(check int) "value" 7 r;
        Alcotest.(check (list string)) "captured both ends"
          [ "captured"; "captured" ] (names_of evs);
        Alcotest.(check int) "global store untouched" 0
          (List.length (Trace.events ())));
    t "merge aligns epochs and the stitched timeline validates" (fun () ->
        let ev ~pid ~sid name ph ts =
          { Trace.ev_name = name; ev_ph = ph; ev_ts = ts; ev_pid = pid;
            ev_tid = 1;
            ev_args = (match (ph, sid) with
                       | Trace.Begin, Some s -> [ ("sid", s) ]
                       | _ -> []) }
        in
        (* A client whose request span covers a server handler span
           recorded 50 us later on the absolute clock. *)
        let client =
          [ ev ~pid:10 ~sid:(Some "10.1") "request" Trace.Begin 0.0;
            ev ~pid:10 ~sid:None "request" Trace.End 100.0 ]
        in
        let server =
          [ ev ~pid:20 ~sid:(Some "20.1") "handle" Trace.Begin 0.0;
            ev ~pid:20 ~sid:None "handle" Trace.End 20.0 ]
        in
        let round epoch evs =
          Trace.parse_chrome_file (Trace.render_events ~epoch_us:epoch evs)
        in
        let fa = round 1_000_000.0 client and fb = round 1_000_050.0 server in
        Alcotest.(check (float 0.001)) "epoch round-trips" 1_000_050.0
          fb.Trace.f_epoch_us;
        let merged = Trace.merge [ fa; fb ] in
        Alcotest.(check (list string)) "server span lands inside the client's"
          [ "request"; "handle"; "handle"; "request" ]
          (names_of merged);
        (match Trace.validate merged with
        | Ok () -> ()
        | Error m -> Alcotest.failf "merged trace invalid: %s" m);
        (* The later process's events were shifted by the epoch delta. *)
        let handle_b = List.nth merged 1 in
        Alcotest.(check (float 0.001)) "offset applied" 50.0
          handle_b.Trace.ev_ts;
        (* The same process merged twice duplicates its span ids. *)
        match Trace.validate (Trace.merge [ fa; fa ]) with
        | Ok () -> Alcotest.fail "duplicate sid across merge not rejected"
        | Error m ->
          Alcotest.(check bool) "error is descriptive" true
            (String.length m > 0)) ]

(* ------------------------------------------------------------------ *)
(* The metrics registry. *)

let metrics_tests =
  [ t "counters and gauges" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        let c = Metrics.counter "t.count" in
        Metrics.incr c;
        Metrics.add c 4;
        Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
        let g = Metrics.gauge "t.gauge" in
        Metrics.set g 17;
        Alcotest.(check int) "gauge" 17 (Metrics.gauge_value g));
    t "a name cannot change kind" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        ignore (Metrics.counter "t.kind");
        Alcotest.check_raises "kind clash"
          (Invalid_argument "t.kind is registered as a different metric kind")
          (fun () -> ignore (Metrics.gauge "t.kind")));
    t "lookup by name and reset" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        let c = Metrics.counter "t.look" in
        Metrics.add c 9;
        Alcotest.(check (option int)) "found" (Some 9)
          (Metrics.counter_value_opt "t.look");
        Alcotest.(check (option int)) "absent" None
          (Metrics.counter_value_opt "t.nope");
        Metrics.reset ();
        Alcotest.(check (option int)) "zeroed, still registered" (Some 0)
          (Metrics.counter_value_opt "t.look"));
    t "render_json parses and carries the rows" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        Metrics.add (Metrics.counter "t.a") 3;
        Metrics.set (Metrics.gauge "t.b") 8;
        let j = Psc.Json.parse (Metrics.render_json ()) in
        match j with
        | Psc.Json.Arr rows ->
          Alcotest.(check int) "rows" 2 (List.length rows);
          let names =
            List.filter_map
              (fun r ->
                match Psc.Json.member "name" r with
                | Some (Psc.Json.Str s) -> Some s
                | _ -> None)
              rows
          in
          Alcotest.(check (list string)) "sorted names" [ "t.a"; "t.b" ] names
        | _ -> Alcotest.fail "render_json is not an array") ]

(* ------------------------------------------------------------------ *)
(* The quantile sketch: the server's latency estimator. *)

let qs q =
  let s = Metrics.sk_quantiles q in
  (s.Metrics.qs_count, s.Metrics.qs_p50, s.Metrics.qs_p90, s.Metrics.qs_p99,
   s.Metrics.qs_max)

let sketch_monotone =
  QCheck.Test.make ~count:200
    ~name:"quantiles are monotone and the max is exact"
    QCheck.(small_list small_nat)
    (fun samples ->
      Metrics.clear ();
      let q = Metrics.sketch "t.prop" in
      List.iter (Metrics.sk_observe q) samples;
      let s = Metrics.sk_quantiles q in
      s.Metrics.qs_count = List.length samples
      && s.Metrics.qs_p50 <= s.Metrics.qs_p90
      && s.Metrics.qs_p90 <= s.Metrics.qs_p99
      && s.Metrics.qs_p99 <= s.Metrics.qs_max
      && (samples = []
         || s.Metrics.qs_max = List.fold_left max 0 samples))

let sketch_tests =
  [ t "an empty window answers all zeros" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        Alcotest.(check (pair int (pair int (pair int (pair int int)))))
          "zeros"
          (0, (0, (0, (0, 0))))
          (let c, a, b, d, m = qs (Metrics.sketch "t.empty") in
           (c, (a, (b, (d, m))))));
    t "a single sample is every quantile" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        let q = Metrics.sketch "t.one" in
        Metrics.sk_observe q 100;
        Alcotest.(check (list int)) "all 100"
          [ 1; 100; 100; 100; 100 ]
          (let c, a, b, d, m = qs q in
           [ c; a; b; d; m ]));
    QCheck_alcotest.to_alcotest sketch_monotone ]

(* ------------------------------------------------------------------ *)
(* The loop profiler. *)

let prof_tests =
  [ t "disabled profiler records no samples" (fun () ->
        with_flags @@ fun () ->
        Prof.set_enabled false;
        Prof.reset ();
        ignore (Psc.run jacobi ~inputs:jacobi_inputs);
        Alcotest.(check int) "no rows" 0 (List.length (Prof.rows ())));
    t "an enabled run yields hot loops with source locations" (fun () ->
        with_flags @@ fun () ->
        Prof.set_enabled true;
        ignore (Psc.run jacobi ~inputs:jacobi_inputs);
        let rows = Prof.rows () in
        Alcotest.(check bool) "rows recorded" true (rows <> []);
        List.iter
          (fun r ->
            if r.Prof.r_count <= 0 then
              Alcotest.failf "%s: zero count survived" r.Prof.r_name;
            if r.Prof.r_ns < 0 then
              Alcotest.failf "%s: negative time" r.Prof.r_name)
          rows;
        ignore
          (List.fold_left
             (fun last r ->
               if r.Prof.r_ns > last then
                 Alcotest.failf "%s: rows not hottest-first" r.Prof.r_name;
               r.Prof.r_ns)
             max_int rows);
        let loops = List.filter (fun r -> r.Prof.r_kind = "loop") rows in
        Alcotest.(check bool) "loop rows present" true (loops <> []);
        Alcotest.(check bool) "a DOALL with a source loc" true
          (List.exists
             (fun r ->
               String.length r.Prof.r_name >= 5
               && String.sub r.Prof.r_name 0 5 = "DOALL"
               && r.Prof.r_loc <> None)
             loops));
    t "a failing tune leaves the profiler off" (fun () ->
        with_flags @@ fun () ->
        let tp =
          Psc.load_string
            "S: module (N: int): [s: int]; define s = (N - N) div (N - N); end S;"
        in
        (match
           Psc.tune ~cores:2 tp ~inputs:[ ("N", Psc.Exec.scalar_int 3) ]
             ~env:[ ("N", 3) ]
         with
        | exception Psc.Error m ->
          Alcotest.(check string) "the fault" "runtime error: division by zero" m
        | _ -> Alcotest.fail "expected the division by zero");
        Alcotest.(check bool) "profiler off" false (Prof.enabled ()));
    t "tune puts an enabled profiler back without its replays" (fun () ->
        with_flags @@ fun () ->
        Prof.set_enabled true;
        ignore
          (Psc.tune ~cores:2 jacobi ~inputs:jacobi_inputs
             ~env:[ ("M", 8); ("maxK", 4) ]);
        Alcotest.(check bool) "profiler on" true (Prof.enabled ());
        Alcotest.(check int) "no replay rows" 0 (List.length (Prof.rows ()))) ]

(* ------------------------------------------------------------------ *)
(* Pool counters. *)

let pool_job ?steal pool n =
  let acc = Atomic.make 0 in
  Pool.parallel_for ?steal pool ~lo:1 ~hi:n (fun a b ->
      let s = ref 0 in
      for i = a to b do
        s := !s + i
      done;
      ignore (Atomic.fetch_and_add acc !s));
  Alcotest.(check int) "sum" (n * (n + 1) / 2) (Atomic.get acc)

let pool_tests =
  [ t "disabled metrics leave the pool counters untouched" (fun () ->
        with_flags @@ fun () ->
        Metrics.set_enabled false;
        Pool.with_pool 4 (fun pool ->
            pool_job pool 10_000;
            let sm = Pool.summary pool in
            Alcotest.(check int) "jobs" 0 sm.Pool.sm_jobs;
            Alcotest.(check int) "points" 0 sm.Pool.sm_points;
            Alcotest.(check int) "busy" 0 sm.Pool.sm_busy_ns));
    t "two back-to-back jobs count each point exactly once" (fun () ->
        with_flags @@ fun () ->
        Metrics.set_enabled true;
        let pool = Pool.create 4 in
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        Pool.reset_stats pool;
        pool_job pool 10_000;
        pool_job pool 5_000;
        let sm = Pool.summary pool in
        Alcotest.(check int) "jobs" 2 sm.Pool.sm_jobs;
        Alcotest.(check int) "points" 15_000 sm.Pool.sm_points;
        Alcotest.(check bool) "busy time recorded" true (sm.Pool.sm_busy_ns > 0);
        Pool.reset_stats pool;
        pool_job pool 3_000;
        let sm = Pool.summary pool in
        Alcotest.(check int) "jobs after reset" 1 sm.Pool.sm_jobs;
        Alcotest.(check int) "points after reset" 3_000 sm.Pool.sm_points);
    t "the fixed-chunk scheduler reports no steals" (fun () ->
        with_flags @@ fun () ->
        Metrics.set_enabled true;
        Pool.with_pool 4 (fun pool ->
            Pool.reset_stats pool;
            pool_job ~steal:false pool 10_000;
            let sm = Pool.summary pool in
            Alcotest.(check int) "steals" 0 sm.Pool.sm_steals));
    t "with_pool drains the counters into the registry" (fun () ->
        with_flags @@ fun () ->
        Metrics.clear ();
        Metrics.set_enabled true;
        Pool.with_pool 4 (fun pool -> pool_job pool 10_000);
        Alcotest.(check (option int)) "points drained" (Some 10_000)
          (Metrics.counter_value_opt "pool.points");
        (match Metrics.counter_value_opt "pool.jobs" with
        | Some 1 -> ()
        | v ->
          Alcotest.failf "pool.jobs = %s"
            (match v with Some n -> string_of_int n | None -> "absent")));
    t "disabled instrumentation costs no measurable pool time" (fun () ->
        with_flags @@ fun () ->
        (* A/B the same job stream with the metrics flag off and on.
           The disabled path must not be slower than the enabled one
           beyond generous scheduling noise — if it is, the one-atomic-
           load guarantee has regressed into real work. *)
        let run_batch () =
          Pool.with_pool 4 (fun pool ->
              for _ = 1 to 3 do
                pool_job pool 20_000
              done;
              let t0 = Unix.gettimeofday () in
              for _ = 1 to 25 do
                pool_job pool 20_000
              done;
              Unix.gettimeofday () -. t0)
        in
        Metrics.set_enabled false;
        let t_off = run_batch () in
        Metrics.set_enabled true;
        let t_on = run_batch () in
        if t_off > (t_on *. 3.0) +. 0.05 then
          Alcotest.failf
            "disabled instrumentation slower than enabled: %.4fs vs %.4fs"
            t_off t_on);
    t "a stealing job's steals, utilization and imbalance are sane" (fun () ->
        with_flags @@ fun () ->
        Metrics.set_enabled true;
        Pool.with_pool 2 (fun pool ->
            Pool.reset_stats pool;
            pool_job pool 100_000;
            let sm = Pool.summary pool in
            if sm.Pool.sm_steals > sm.Pool.sm_steal_attempts then
              Alcotest.failf "steals (%d) exceed attempts (%d)" sm.Pool.sm_steals
                sm.Pool.sm_steal_attempts;
            if not (sm.Pool.sm_utilization > 0.0) then
              Alcotest.failf "utilization %.4f is not positive" sm.Pool.sm_utilization;
            (* Max over mean worker points: 1.0 when even. *)
            if not (sm.Pool.sm_imbalance >= 1.0) then
              Alcotest.failf "imbalance %.3f below 1.0" sm.Pool.sm_imbalance)) ]

let () =
  Alcotest.run "obs"
    [ ("trace", trace_tests);
      ("metrics", metrics_tests);
      ("sketch", sketch_tests);
      ("prof", prof_tests);
      ("pool_stats", pool_tests) ]
