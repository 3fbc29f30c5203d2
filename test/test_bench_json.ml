(* Smoke test for the recorded perf trajectory: run the quick benchmark
   sweep with [--json], parse BENCH_runtime.json with the shared JSON
   reader, and check that every expected experiment row is present with
   sane fields.  This is what keeps the A/B harness from silently
   rotting: renaming a workload or dropping a configuration fails here,
   not in a notebook months later. *)

let t name f = Alcotest.test_case name `Quick f

module Json = Psc.Json

open Util

let run_sweep () =
  bench_sweep ~args:"--quick --json" ~log:"bench_smoke.out"
    ~out:"BENCH_runtime.json"

(* One quick sweep shared by every test case below. *)
let trajectory = lazy (run_sweep ())

let expected_names =
  let bases =
    [ "fig6_m16"; "fig6_m32"; "h3_m16"; "h3_m32"; "lcs_n64"; "lcs_n128";
      "grp_n4096"; "grp_n16384"; "insp_n4096"; "insp_n16384" ]
  in
  let configs =
    [ "_seq"; "_par_fixed"; "_par_steal"; "_par_steal_collapse"; "_auto" ]
  in
  List.concat_map (fun b -> List.map (fun c -> b ^ c) configs) bases

let experiments () =
  match field "experiments" (Lazy.force trajectory) with
  | Json.Arr rows -> rows
  | _ -> Alcotest.fail "experiments is not an array"

let tests =
  [ t "the trajectory parses and describes itself" (fun () ->
        let j = Lazy.force trajectory in
        Alcotest.(check int) "schema" 1 (int_of_float (num (field "schema" j)));
        Alcotest.(check bool) "quick" true (bool_ (field "quick" j));
        Alcotest.(check bool) "pool_size sane" true
          (num (field "pool_size" j) >= 2.0));
    t "every expected experiment key is present exactly once" (fun () ->
        let names = List.map (fun r -> str (field "name" r)) (experiments ()) in
        List.iter
          (fun want ->
            let k = List.length (List.filter (String.equal want) names) in
            if k <> 1 then
              Alcotest.failf "experiment %S appears %d times" want k)
          expected_names;
        Alcotest.(check int) "no stray rows"
          (List.length expected_names)
          (List.length names));
    t "every row carries sane measurements" (fun () ->
        List.iter
          (fun r ->
            let name = str (field "name" r) in
            if not (num (field "wall_s" r) > 0.0) then
              Alcotest.failf "%s: wall_s not positive" name;
            if not (num (field "work" r) > 0.0) then
              Alcotest.failf "%s: work not positive" name;
            (* The configuration flags must match the row's suffix; an
               _auto row's flags follow its policy table instead, checked
               in the policy test below. *)
            let suffix s = Util.contains name s in
            let steal = bool_ (field "steal" r) in
            let collapse = bool_ (field "collapse" r) in
            if not (suffix "_auto") then begin
              if suffix "_par_steal" && not steal then
                Alcotest.failf "%s: steal flag off" name;
              if suffix "_par_fixed" && steal then
                Alcotest.failf "%s: steal flag on" name;
              if suffix "_collapse" <> collapse then
                Alcotest.failf "%s: collapse flag mismatch" name;
              if suffix "_seq" && int_of_float (num (field "pool" r)) <> 1 then
                Alcotest.failf "%s: sequential row has a pool" name
            end)
          (experiments ()));
    t "cores_limited flags pool oversubscription against host_cores" (fun () ->
        (* host_cores must be the real host count (not 1 frozen in from a
           run with benchmark domains already up, unless the host really
           has one core), and each row's cores_limited must be exactly
           pool > host_cores — on a big machine every row is false, on a
           small CI box the 4-domain rows are true. *)
        let host =
          int_of_float (num (field "host_cores" (Lazy.force trajectory)))
        in
        Alcotest.(check int) "host_cores is the host's core count"
          (Psc.Pool.recommended_size ()) host;
        List.iter
          (fun r ->
            let name = str (field "name" r) in
            let pool = int_of_float (num (field "pool" r)) in
            let limited = bool_ (field "cores_limited" r) in
            if limited <> (pool > host) then
              Alcotest.failf "%s: cores_limited=%b but pool=%d host_cores=%d"
                name limited pool host)
          (experiments ()));
    t "every row carries the pool observability fields" (fun () ->
        (* The four fields added with the runtime metrics: absent keys
           fail [field]; sequential rows must be all-zero, pooled rows
           must show real utilization (the pool counters were on). *)
        List.iter
          (fun r ->
            let name = str (field "name" r) in
            let steals = num (field "steals" r) in
            let attempts = num (field "steal_attempts" r) in
            let util = num (field "utilization" r) in
            let imb = num (field "imbalance" r) in
            if attempts < steals then
              Alcotest.failf "%s: steals (%.0f) exceed attempts (%.0f)" name
                steals attempts;
            (* An _auto row whose policy forks nothing runs without a
               pool (pool = 1) and reports zeros like a _seq row. *)
            if
              Util.contains name "_seq"
              || int_of_float (num (field "pool" r)) = 1
            then begin
              if steals <> 0.0 || attempts <> 0.0 || util <> 0.0 || imb <> 0.0
              then Alcotest.failf "%s: sequential row has pool stats" name
            end
            else begin
              if not (util > 0.0) then
                Alcotest.failf "%s: pooled row has zero utilization" name;
              if not (imb >= 1.0) then
                Alcotest.failf "%s: imbalance %.3f below 1.0" name imb;
              (* The fixed-chunk scheduler has one shared queue: nothing
                 to steal, by construction. *)
              if Util.contains name "_par_fixed" && steals <> 0.0 then
                Alcotest.failf "%s: fixed-chunk row reports steals" name
            end)
          (experiments ()));
    t "every row names its scheduling policy" (fun () ->
        (* Hand-picked configurations carry their fixed name; _auto rows
           carry the static cost model's per-nest table summary. *)
        List.iter
          (fun r ->
            let name = str (field "name" r) in
            let policy = str (field "policy" r) in
            let expect_prefix p =
              if not (String.length policy >= String.length p
                      && String.sub policy 0 (String.length p) = p)
              then
                Alcotest.failf "%s: policy %S does not start with %S" name
                  policy p
            in
            if Util.contains name "_auto" then expect_prefix "static["
            else if Util.contains name "_par_steal_collapse" then
              expect_prefix "steal+collapse"
            else if Util.contains name "_par_steal" then expect_prefix "steal"
            else if Util.contains name "_par_fixed" then expect_prefix "fixed"
            else expect_prefix "seq")
          (experiments ()));
    t "h3: the cost model refuses to collapse the wavefront and stays \
       within 1.1x of the best hand-picked row" (fun () ->
        (* The recorded regression this PR exists to fix: on h3_m16 the
           global steal+collapse flags were ~3.3x slower than
           sequential.  The static model must (a) never flatten the
           skewed wavefront band, and (b) land within 1.1x of the best
           hand-picked configuration (1 ms absolute slack absorbs timer
           noise at these tiny sizes, while still far below the recorded
           regression's gap).  Wall times on a loaded host jitter, so a
           failing comparison earns two fresh sweeps before it counts: a
           deterministic regression fails all three. *)
        let check rows =
          List.iter
          (fun base ->
            let row suffix =
              match
                List.find_opt
                  (fun r -> str (field "name" r) = base ^ suffix)
                  rows
              with
              | Some r -> r
              | None -> Alcotest.failf "row %s%s missing" base suffix
            in
            let auto = row "_auto" in
            let policy = str (field "policy" auto) in
            if Util.contains policy "collapse" then
              Alcotest.failf "%s_auto: policy %S collapses the wavefront" base
                policy;
            let wall r = num (field "wall_s" r) in
            let hand_picked =
              [ wall (row "_seq"); wall (row "_par_fixed");
                wall (row "_par_steal"); wall (row "_par_steal_collapse") ]
            in
            let best = List.fold_left min infinity hand_picked in
            let worst = List.fold_left max 0.0 hand_picked in
            let auto_w = wall auto in
            if not (auto_w <= (1.1 *. best) +. 0.001) then
              Alcotest.failf
                "%s_auto: %.6fs exceeds 1.1x best hand-picked %.6fs" base
                auto_w best;
            if not (auto_w <= worst) then
              Alcotest.failf
                "%s_auto: %.6fs worse than the worst hand-picked %.6fs" base
                auto_w worst)
          [ "h3_m16"; "h3_m32" ]
        in
        let rec attempt retries rows =
          try check rows
          with _ when retries > 0 ->
            let rows =
              match field "experiments" (run_sweep ()) with
              | Json.Arr r -> r
              | _ -> Alcotest.fail "experiments is not an array"
            in
            attempt (retries - 1) rows
        in
        attempt 2 (experiments ())) ]

let () = Alcotest.run "bench_json" [ ("trajectory", tests) ]
