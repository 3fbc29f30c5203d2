(* The load-gate gate: run `bench serve --quick` (a real `psc serve
   --socket` process under 1/8/32 concurrent clients, hit and miss
   workloads) and assert the schema and sanity of the BENCH_server.json
   it writes.  This is what makes the server benchmark a regression
   gate rather than a notebook artifact: a PR that breaks the harness,
   drops a concurrency level, or starts erroring under load fails here.

   Wall-clock numbers on a loaded CI host jitter, so assertions about
   measured values (errors, hit ratios) earn up to two fresh sweeps
   before they count — the same noise-retry discipline as the tune and
   runtime-trajectory smoke tests. *)

let t name f = Alcotest.test_case name `Quick f

module Json = Psc.Json

open Util

let run_sweep () =
  bench_sweep ~args:"serve --quick" ~log:"bench_serve_smoke.out"
    ~out:"BENCH_server.json"

(* One sweep shared by every case; noise-retrying cases re-run it. *)
let gate = lazy (run_sweep ())

let rows_of j =
  match field "rows" j with
  | Json.Arr rows -> rows
  | _ -> Alcotest.fail "rows is not an array"

let quick_levels = [ 1; 8; 32 ]

let tests =
  [ t "the gate file parses and describes itself" (fun () ->
        let j = Lazy.force gate in
        Alcotest.(check int) "schema" 1 (int_of_float (num (field "schema" j)));
        Alcotest.(check bool) "quick" true (bool_ (field "quick" j));
        Alcotest.(check int) "host_cores is the host's core count"
          (Psc.Pool.recommended_size ())
          (int_of_float (num (field "host_cores" j)));
        if num (field "workers" j) < 1.0 then
          Alcotest.fail "workers not positive");
    t "hit and miss each cover every concurrency level exactly once"
      (fun () ->
        let rows = rows_of (Lazy.force gate) in
        List.iter
          (fun workload ->
            List.iter
              (fun clients ->
                let k =
                  List.length
                    (List.filter
                       (fun r ->
                         str (field "workload" r) = workload
                         && int_of_float (num (field "clients" r)) = clients)
                       rows)
                in
                if k <> 1 then
                  Alcotest.failf "row (%s, %d clients) appears %d times"
                    workload clients k)
              quick_levels)
          [ "hit"; "miss" ];
        Alcotest.(check int) "no stray rows"
          (2 * List.length quick_levels)
          (List.length rows));
    t "every row carries sane latency and throughput measurements"
      (fun () ->
        (* Schema-level sanity is deterministic: quantile ordering holds
           by construction of a sorted sample set, so any violation is a
           harness bug, not noise. *)
        List.iter
          (fun r ->
            let name =
              Printf.sprintf "%s@%d"
                (str (field "workload" r))
                (int_of_float (num (field "clients" r)))
            in
            if num (field "requests" r) <= 0.0 then
              Alcotest.failf "%s: no requests" name;
            if not (num (field "req_per_s" r) > 0.0) then
              Alcotest.failf "%s: req_per_s not positive" name;
            let p50 = num (field "p50_ms" r) in
            let p99 = num (field "p99_ms" r) in
            let mx = num (field "max_ms" r) in
            if not (p50 > 0.0 && p50 <= p99 && p99 <= mx) then
              Alcotest.failf "%s: quantiles disordered (%.3f/%.3f/%.3f)" name
                p50 p99 mx)
          (rows_of (Lazy.force gate)));
    t "no errors under load, hits hit and misses miss" (fun () ->
        (* The measured claims: the server answers every request even at
           the highest level, the warm workload is served from the
           cache, and the unique-source workload never is.  A connect
           storm on a saturated host can flake, so allow two fresh
           sweeps. *)
        let check rows =
          List.iter
            (fun r ->
              let workload = str (field "workload" r) in
              let name =
                Printf.sprintf "%s@%d" workload
                  (int_of_float (num (field "clients" r)))
              in
              if num (field "errors" r) <> 0.0 then
                Alcotest.failf "%s: %d errors" name
                  (int_of_float (num (field "errors" r)));
              (* The quick levels sit far below the bench's queue bound:
                 any shedding here means backpressure is firing when it
                 should not. *)
              if num (field "shed" r) <> 0.0 then
                Alcotest.failf "%s: %d requests shed" name
                  (int_of_float (num (field "shed" r)));
              let ratio = num (field "cache_hit_ratio" r) in
              match workload with
              | "hit" ->
                if ratio < 0.9 then
                  Alcotest.failf "%s: cache hit ratio %.3f below 0.9" name
                    ratio
              | "miss" ->
                if ratio > 0.1 then
                  Alcotest.failf "%s: cache hit ratio %.3f above 0.1" name
                    ratio
              | w -> Alcotest.failf "unknown workload %S" w)
            rows
        in
        let rec attempt retries rows =
          try check rows
          with _ when retries > 0 -> attempt (retries - 1) (rows_of (run_sweep ()))
        in
        attempt 2 (rows_of (Lazy.force gate))) ]

let () = Alcotest.run "bench_server" [ ("gate", tests) ]
