(* Domain-pool tests: correctness of parallel_for under varied ranges and
   chunk sizes, exception propagation, re-entrance, reuse. *)

open Ps_runtime

let t name f = Alcotest.test_case name `Quick f

let with_pool = Pool.with_pool

let sum_range ?steal pool lo hi chunk =
  let acc = Atomic.make 0 in
  Pool.parallel_for ?chunk ?steal pool ~lo ~hi (fun a b ->
      let s = ref 0 in
      for i = a to b do
        s := !s + i
      done;
      ignore (Atomic.fetch_and_add acc !s));
  Atomic.get acc

let expected lo hi = if lo > hi then 0 else (hi + lo) * (hi - lo + 1) / 2

let basic_tests =
  [ t "sums a range" (fun () ->
        with_pool 4 (fun pool ->
            Alcotest.(check int) "sum" (expected 0 999) (sum_range pool 0 999 None)));
    t "empty range runs nothing" (fun () ->
        with_pool 2 (fun pool ->
            Alcotest.(check int) "empty" 0 (sum_range pool 5 4 None)));
    t "single iteration" (fun () ->
        with_pool 2 (fun pool ->
            Alcotest.(check int) "one" 7 (sum_range pool 7 7 None)));
    t "negative bounds" (fun () ->
        with_pool 3 (fun pool ->
            Alcotest.(check int) "neg" (expected (-50) 50) (sum_range pool (-50) 50 None)));
    t "chunk of 1" (fun () ->
        with_pool 3 (fun pool ->
            Alcotest.(check int) "chunk1" (expected 0 100) (sum_range pool 0 100 (Some 1))));
    t "chunk larger than range" (fun () ->
        with_pool 3 (fun pool ->
            Alcotest.(check int) "bigchunk" (expected 0 10)
              (sum_range pool 0 10 (Some 1000))));
    t "pool of size 1 degenerates to sequential" (fun () ->
        with_pool 1 (fun pool ->
            Alcotest.(check int) "seq" (expected 0 500) (sum_range pool 0 500 None)));
    t "every index visited exactly once" (fun () ->
        with_pool 4 (fun pool ->
            let n = 2000 in
            let marks = Array.make n 0 in
            Pool.parallel_for pool ~lo:0 ~hi:(n - 1) (fun a b ->
                for i = a to b do
                  marks.(i) <- marks.(i) + 1
                done);
            Alcotest.(check bool) "all once" true (Array.for_all (fun c -> c = 1) marks))) ]

let reuse_tests =
  [ t "pool survives many consecutive jobs" (fun () ->
        with_pool 4 (fun pool ->
            for round = 1 to 50 do
              let got = sum_range pool 0 round None in
              Alcotest.(check int) "round" (expected 0 round) got
            done));
    t "re-entrant parallel_for runs inline" (fun () ->
        with_pool 4 (fun pool ->
            let acc = Atomic.make 0 in
            Pool.parallel_for pool ~lo:0 ~hi:7 (fun a b ->
                for _i = a to b do
                  (* nested call from inside a job must not deadlock *)
                  Pool.parallel_for pool ~lo:0 ~hi:3 (fun c d ->
                      for _j = c to d do
                        ignore (Atomic.fetch_and_add acc 1)
                      done)
                done);
            Alcotest.(check int) "all iterations" 32 (Atomic.get acc)));
    t "size is reported" (fun () ->
        with_pool 3 (fun pool -> Alcotest.(check int) "size" 3 (Pool.size pool)));
    t "size is at least one" (fun () ->
        with_pool 0 (fun pool -> Alcotest.(check int) "clamped" 1 (Pool.size pool))) ]

exception Boom

let error_tests =
  [ t "exception in the body propagates" (fun () ->
        with_pool 4 (fun pool ->
            match
              Pool.parallel_for pool ~lo:0 ~hi:100 (fun a _ ->
                  if a >= 0 then raise Boom)
            with
            | exception Boom -> ()
            | () -> Alcotest.fail "expected Boom"));
    t "pool is usable after an exception" (fun () ->
        with_pool 4 (fun pool ->
            (try
               Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ _ -> raise Boom)
             with Boom -> ());
            Alcotest.(check int) "sum after" (expected 0 99) (sum_range pool 0 99 None))) ]

(* The stealing scheduler and the fixed-chunk baseline it is measured
   against, selected per job ([parallel_for ~steal:false]).  Stealing is
   the default, so the suites above already run on it; these pin down
   what is specific to each mode. *)
let stealing_tests =
  [ t "no-steal pool sums a range" (fun () ->
        with_pool 4 (fun pool ->
            Alcotest.(check int) "sum" (expected 0 999)
              (sum_range ~steal:false pool 0 999 None)));
    t "no-steal visits every index exactly once" (fun () ->
        with_pool 4 (fun pool ->
            let n = 2000 in
            let marks = Array.make n 0 in
            Pool.parallel_for ~steal:false pool ~lo:0 ~hi:(n - 1) (fun a b ->
                for i = a to b do
                  marks.(i) <- marks.(i) + 1
                done);
            Alcotest.(check bool) "all once" true
              (Array.for_all (fun c -> c = 1) marks)));
    t "skewed work still visits every index exactly once" (fun () ->
        (* All the weight sits in the last slice, so finishing relies on
           stealing (or on the caller's own round-robin sweep). *)
        with_pool 4 (fun pool ->
            let n = 1024 in
            let marks = Array.make n 0 in
            Pool.parallel_for pool ~lo:0 ~hi:(n - 1) (fun a b ->
                for i = a to b do
                  if i >= 3 * n / 4 then begin
                    let s = ref 0 in
                    for k = 0 to 2000 do s := !s + k done;
                    ignore !s
                  end;
                  marks.(i) <- marks.(i) + 1
                done);
            Alcotest.(check bool) "all once" true
              (Array.for_all (fun c -> c = 1) marks)));
    t "exception in a foreign slice still propagates" (fun () ->
        (* The failing indices live in the last slice; the caller only
           reaches them by stealing, which is where the error record has
           to make it back from. *)
        with_pool 4 (fun pool ->
            match
              Pool.parallel_for pool ~lo:0 ~hi:9999 (fun _ b ->
                  if b > 9000 then raise Boom)
            with
            | exception Boom -> ()
            | () -> Alcotest.fail "expected Boom"));
    t "failed job drains without re-running bodies" (fun () ->
        with_pool 4 (fun pool ->
            let executed = Atomic.make 0 in
            (try
               Pool.parallel_for pool ~lo:0 ~hi:99_999 (fun _ _ ->
                   Atomic.incr executed;
                   raise Boom)
             with Boom -> ());
            (* Guided chunking yields dozens of chunks here; once the
               first body fails the rest must be claimed-and-skipped, so
               only the handful in flight at that instant ever ran. *)
            Alcotest.(check bool) "drained" true (Atomic.get executed < 20)));
    t "no-steal pool is usable after an exception" (fun () ->
        with_pool 4 (fun pool ->
            (try
               Pool.parallel_for ~steal:false pool ~lo:0 ~hi:100 (fun _ _ ->
                   raise Boom)
             with Boom -> ());
            Alcotest.(check int) "sum after" (expected 0 99)
              (sum_range ~steal:false pool 0 99 None)));
    t "nested loops across two pools both fork" (fun () ->
        (* An inner loop on a *different* idle pool takes the real forking
           path even while the outer job is in flight. *)
        with_pool 3 (fun outer ->
            with_pool 2 (fun inner ->
                let acc = Atomic.make 0 in
                Pool.parallel_for outer ~lo:0 ~hi:7 (fun a b ->
                    for _i = a to b do
                      Pool.parallel_for inner ~lo:0 ~hi:3 (fun c d ->
                          for _j = c to d do
                            ignore (Atomic.fetch_and_add acc 1)
                          done)
                    done);
                Alcotest.(check int) "all iterations" 32 (Atomic.get acc)))) ]

let determinism_prop =
  QCheck.Test.make ~count:60 ~name:"parallel sum equals sequential sum"
    QCheck.(triple (int_range 0 300) (int_range 0 300) (int_range 1 64))
    (fun (lo, span, chunk) ->
      with_pool 3 (fun pool ->
          sum_range pool lo (lo + span) (Some chunk) = expected lo (lo + span)))

let fixed_chunk_prop =
  QCheck.Test.make ~count:60 ~name:"fixed-chunk baseline sum equals sequential sum"
    QCheck.(triple (int_range 0 300) (int_range 0 300) (int_range 1 64))
    (fun (lo, span, chunk) ->
      with_pool 3 (fun pool ->
          sum_range ~steal:false pool lo (lo + span) (Some chunk)
          = expected lo (lo + span)))

let () =
  Alcotest.run "pool"
    [ ("basic", basic_tests);
      ("reuse", reuse_tests);
      ("errors", error_tests);
      ("stealing", stealing_tests);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ determinism_prop; fixed_chunk_prop ]) ]
