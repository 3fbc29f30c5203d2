(* The per-loop scheduling-policy layer: the static cost model's
   decisions on the paper's own programs, the policy table's wire format
   and cache round trip, its verification diagnostics, and the fuzzer's
   guarantee that a policy changes shape but never results. *)

let t name f = Alcotest.test_case name `Quick f

let jacobi = Psc.load_string Ps_models.Models.jacobi

let seidel = Psc.load_string Ps_models.Models.seidel

let hyper_project, hyper_tr = Psc.hyperplane ~target:"A" seidel

let hyper_name = hyper_tr.Psc.Transform.tr_module.Psc.Ast.m_name

(* The scheduled flowchart a policy table is resolved against, as
   [Psc.run ~policy] schedules it without [--collapse]: a table's
   collapse needs no marks. *)
let flowchart ?name ?(sink = false) ?(trim = false) tp =
  let em = Psc.the_module ?name tp in
  (Psc.schedule ~sink ~trim em).Psc.sc_flowchart

let decision table key =
  match Psc.Policy.find table key with
  | Some d -> d
  | None ->
    Alcotest.failf "no decision for %S in %s" key
      (Psc.Policy.table_summary table)

(* --- the static cost model ----------------------------------------- *)

let cost_tests =
  [ t "a single-core host never forks" (fun () ->
        let table =
          Psc.static_policy ~cores:1 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        Alcotest.(check bool) "has entries" true (table.Psc.Policy.t_entries <> []);
        List.iter
          (fun (k, (d : Psc.Policy.decision)) ->
            if d.Psc.Policy.d_par then
              Alcotest.failf "%s forks on a 1-core host" k)
          table.Psc.Policy.t_entries);
    t "tiny trip counts run sequentially" (fun () ->
        (* M=4: every nest is ~16-80 equation evaluations per fork, far
           below the overhead threshold — the W120 situation, now fixed
           by construction instead of warned about. *)
        let table =
          Psc.static_policy ~cores:4 jacobi ~env:[ ("M", 4); ("maxK", 2) ]
        in
        List.iter
          (fun (k, (d : Psc.Policy.decision)) ->
            if d.Psc.Policy.d_par then
              Alcotest.failf "%s forks below the overhead threshold" k)
          table.Psc.Policy.t_entries);
    t "rectangular DOALL bands fork and flatten" (fun () ->
        let table =
          Psc.static_policy ~cores:4 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        (* The relaxation epoch: DO K (DOALL I (DOALL J (eq.3))) — a
           64x64 rectangular band, the paper's central parallel nest. *)
        let d = decision table "K.I" in
        Alcotest.(check bool) "K.I forks" true d.Psc.Policy.d_par;
        Alcotest.(check bool) "K.I flattens" true d.Psc.Policy.d_collapse;
        Alcotest.(check bool) "K.I steals" true d.Psc.Policy.d_steal);
    t "the skewed wavefront band keeps its loops nested" (fun () ->
        (* The hyperplane-transformed relaxation: the inner extent of the
           band varies along the sweep, so flattening trades a balanced
           outer deal for per-point overhead (the recorded h3
           steal+collapse regression). *)
        let table =
          Psc.static_policy ~name:hyper_name ~sink:true ~trim:true ~cores:4
            hyper_project
            ~env:[ ("M", 32); ("maxK", 20) ]
        in
        Alcotest.(check bool) "has entries" true (table.Psc.Policy.t_entries <> []);
        List.iter
          (fun (k, (d : Psc.Policy.decision)) ->
            if d.Psc.Policy.d_collapse then
              Alcotest.failf "%s flattens the wavefront" k)
          table.Psc.Policy.t_entries;
        Alcotest.(check bool) "wide enough to fork at m=32" true
          (List.exists
             (fun (_, (d : Psc.Policy.decision)) -> d.Psc.Policy.d_par)
             table.Psc.Policy.t_entries));
    t "the tiny wavefront stays sequential even on a wide host" (fun () ->
        (* h3 at m=16: ~128 evaluations per epoch, below the threshold —
           the exact workload the global flags regressed 3.3x on. *)
        let table =
          Psc.static_policy ~name:hyper_name ~sink:true ~trim:true ~cores:4
            hyper_project
            ~env:[ ("M", 16); ("maxK", 10) ]
        in
        List.iter
          (fun (k, (d : Psc.Policy.decision)) ->
            if d.Psc.Policy.d_par then
              Alcotest.failf "%s forks the m=16 wavefront" k)
          table.Psc.Policy.t_entries) ]

(* --- wire format and cache ----------------------------------------- *)

let roundtrip_tests =
  [ t "a table survives the JSON round trip" (fun () ->
        let table =
          Psc.static_policy ~cores:4 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        match Psc.Policy.of_json (Psc.Policy.to_json table) with
        | Error m -> Alcotest.failf "re-parse failed: %s" m
        | Ok back ->
          Alcotest.(check string) "summary"
            (Psc.Policy.table_summary table)
            (Psc.Policy.table_summary back);
          Alcotest.(check int) "host_cores" table.Psc.Policy.t_host_cores
            back.Psc.Policy.t_host_cores;
          List.iter2
            (fun (k, (d : Psc.Policy.decision))
                 (k', (d' : Psc.Policy.decision)) ->
              Alcotest.(check string) "key" k k';
              Alcotest.(check bool) "par" d.Psc.Policy.d_par d'.Psc.Policy.d_par;
              Alcotest.(check (option int)) "chunk_min"
                d.Psc.Policy.d_chunk_min d'.Psc.Policy.d_chunk_min;
              Alcotest.(check (option int)) "wake" d.Psc.Policy.d_wake
                d'.Psc.Policy.d_wake)
            table.Psc.Policy.t_entries back.Psc.Policy.t_entries);
    t "garbage JSON is rejected, not crashed on" (fun () ->
        (match Psc.Policy.of_json "{\"nests\":17}" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a table without a schema tag");
        match Psc.Policy.of_json "not json at all" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted non-JSON");
    t "the server cache stores and replays a policy table" (fun () ->
        let cache = Ps_server.Cache.create ~capacity:4 () in
        let src = Ps_models.Models.jacobi in
        let flags = Psc.Exec.default_opts.Psc.Exec.sched_flags in
        let key =
          Ps_server.Cache.policy_key ~src ~module_:None ~flags ~host_cores:4
        in
        let table =
          Psc.static_policy ~cores:4 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        let built = ref 0 in
        let build () =
          incr built;
          Ps_server.Cache.A_policy table
        in
        let _, hit1 = Ps_server.Cache.find_or_build cache key build in
        let art, hit2 = Ps_server.Cache.find_or_build cache key build in
        Alcotest.(check bool) "first is a miss" false hit1;
        Alcotest.(check bool) "second is a hit" true hit2;
        Alcotest.(check int) "built once" 1 !built;
        (match art with
        | Ps_server.Cache.A_policy back ->
          Alcotest.(check string) "same table"
            (Psc.Policy.table_summary table)
            (Psc.Policy.table_summary back)
        | _ -> Alcotest.fail "wrong artifact kind");
        (* A different host core count is a different artifact. *)
        let key8 =
          Ps_server.Cache.policy_key ~src ~module_:None ~flags ~host_cores:8
        in
        Alcotest.(check bool) "keys differ by host_cores" true (key <> key8);
        Alcotest.(check bool) "peek hits the stored key" true
          (Ps_server.Cache.peek cache key <> None);
        Alcotest.(check bool) "peek misses the other host" true
          (Ps_server.Cache.peek cache key8 = None)) ]

(* --- verification -------------------------------------------------- *)

let verify_tests =
  [ t "a sound table verifies cleanly, fresh or static" (fun () ->
        let fc = flowchart jacobi in
        let table =
          Psc.static_policy ~cores:4 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        Alcotest.(check int) "no diagnostics" 0
          (List.length (Psc.Verify.policy_table ~host_cores:4 table fc)));
    t "an unknown nest key is E025" (fun () ->
        let fc = flowchart jacobi in
        let table =
          { Psc.Policy.t_source = Psc.Policy.Tuned;
            t_host_cores = 4;
            t_entries = [ ("Q.R", Psc.Policy.sequential ~why:"test") ] }
        in
        match Psc.Verify.policy_table table fc with
        | [ d ] ->
          Alcotest.(check string) "code" "E025" (Psc.Diag.code_id d.Psc.Diag.d_code)
        | ds -> Alcotest.failf "expected one E025, got %d" (List.length ds));
    t "a chunk floor below one is E025" (fun () ->
        let fc = flowchart jacobi in
        let table =
          { Psc.Policy.t_source = Psc.Policy.Tuned;
            t_host_cores = 4;
            t_entries = [ ("K.I", Psc.Policy.parallel ~chunk_min:0 ~why:"test" ()) ] }
        in
        let ds = Psc.Verify.policy_table table fc in
        Alcotest.(check bool) "at least one error" true
          (Psc.Diag.errors ds <> []));
    t "a table tuned elsewhere is W121 and only W121" (fun () ->
        let fc = flowchart jacobi in
        let table =
          Psc.static_policy ~cores:8 jacobi ~env:[ ("M", 64); ("maxK", 40) ]
        in
        Alcotest.(check bool) "stale for 4 cores" true
          (Psc.Policy.stale table ~host_cores:4);
        match Psc.Verify.policy_table ~host_cores:4 table fc with
        | [ d ] ->
          Alcotest.(check string) "code" "W121"
            (Psc.Diag.code_id d.Psc.Diag.d_code);
          Alcotest.(check bool) "a warning, not an error" false
            (Psc.Diag.is_error d)
        | ds -> Alcotest.failf "expected one W121, got %d" (List.length ds)) ]

(* --- execution ----------------------------------------------------- *)

let exec_tests =
  [ t "the auto path is in the fuzzer's default paths" (fun () ->
        Alcotest.(check bool) "present" true
          (List.mem Ps_fuzz.Diff.Auto Ps_fuzz.Fuzz.default_paths));
    t "a policy-steered run is bit-identical to the reference" (fun () ->
        (* The differential oracle with exactly the reference and the
           auto path: any policy-induced divergence — wrong collapse,
           wrong chunking, a skipped nest — fails here. *)
        List.iter
          (fun (name, tp, sink, trim, scalars) ->
            let em = Psc.the_module ?name tp in
            let inputs = Psc.default_inputs em ~scalars in
            ignore sink;
            ignore trim;
            let r =
              Ps_fuzz.Diff.check
                ~paths:[ Ps_fuzz.Diff.Seq; Ps_fuzz.Diff.Auto ]
                tp ~inputs ~scalars
            in
            match r.Ps_fuzz.Diff.cr_verdict with
            | None -> ()
            | Some v ->
              Alcotest.failf "%s: auto diverged: %s"
                (match name with Some n -> n | None -> "default")
                v)
          [ (None, jacobi, false, false, [ ("M", 16); ("maxK", 6) ]);
            (None, seidel, false, false, [ ("M", 12); ("maxK", 4) ]) ]);
    t "an all-sequential table forks nothing even with a pool" (fun () ->
        let inputs = Ps_models.Models.relaxation_inputs ~m:8 ~maxk:4 in
        let table =
          Psc.Policy.uniform ~source:Psc.Policy.Static ~cores:2
            (flowchart jacobi) (fun _ -> Psc.Policy.sequential ~why:"test")
        in
        Psc.Metrics.set_enabled true;
        let sm =
          Psc.Pool.with_pool 2 (fun pool ->
              ignore (Psc.run ~pool ~policy:table jacobi ~inputs);
              Psc.Pool.summary pool)
        in
        Psc.Metrics.set_enabled false;
        Alcotest.(check int) "no chunks dealt" 0 sm.Psc.Pool.sm_chunks);
    t "a table's collapse flattens a band scheduled without --collapse"
      (fun () ->
        (* fig6 at M=8, maxK=2 runs three 10x10 bands.  Flattened, each
           deals its 100 points to the pool; run nested, only the 10
           outer indices of each are dealt.  The flowchart goes to
           [Exec.run] as scheduled, unmarked, the way the server runs a
           request with a cached table. *)
        let em = Psc.the_module jacobi in
        let sc = Psc.schedule em in
        let inputs = Ps_models.Models.relaxation_inputs ~m:8 ~maxk:2 in
        let table =
          Psc.Policy.uniform ~source:Psc.Policy.Tuned ~cores:2
            sc.Psc.sc_flowchart (fun l ->
              Psc.Policy.parallel ~collapse:(Psc.Collapse.collapsible l)
                ~why:"test" ())
        in
        Alcotest.(check string) "every nest steals and flattens"
          "tuned[I=steal+collapse;K.I=steal+collapse;I#2=steal+collapse]"
          (Psc.Policy.table_summary table);
        Psc.Metrics.set_enabled true;
        let sm =
          Psc.Pool.with_pool 2 (fun pool ->
              ignore
                (Psc.Exec.run
                   ~opts:
                     { Psc.Exec.default_opts with
                       pool = Some pool; policy = Some table }
                   ~flowchart:sc.Psc.sc_flowchart ~windows:sc.Psc.sc_windows
                   ~prog:jacobi.Psc.prog em ~inputs);
              Psc.Pool.summary pool)
        in
        Psc.Metrics.set_enabled false;
        Alcotest.(check int) "flattened points dealt" 300 sm.Psc.Pool.sm_points)
  ]

(* --- paired timing of the static table ----------------------------- *)

(* The static table, sized for this host and run on a pool of that many
   domains, against the sequential run, on the ten row families of the
   paper's programs and the two distance-analysis schedules (DOGROUP,
   DOINSPECT).  Each family's sides are warmed once, then timed in
   interleaved rounds in this one process, the side that runs first
   rotating, so every side sees the same host phases; the check reads
   the medians.  On h3 the hand-picked fixed-chunk, stealing and
   steal+collapse runs join the same rounds. *)

let rounds = 21

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [(name, median seconds)] for each [(name, run)] side. *)
let paired_medians sides =
  let sides = Array.of_list sides in
  let k = Array.length sides in
  Array.iter (fun (_, run) -> run ()) sides;
  let samples = Array.make k [] in
  for r = 0 to rounds - 1 do
    for j = 0 to k - 1 do
      let i = (r + j) mod k in
      let t0 = Psc.Metrics.now_ns () in
      (snd sides.(i)) ();
      samples.(i) <- (Psc.Metrics.now_ns () - t0) :: samples.(i)
    done
  done;
  Array.to_list
    (Array.mapi (fun i (name, _) -> (name, float_of_int (median samples.(i)) /. 1e9)) sides)

type runner = ?pool:Psc.Pool.t -> ?policy:Psc.Policy.table -> collapse:bool -> unit -> unit

(* One family: its static table for [cores], its runner, and the
   flowchart its hand-picked tables are keyed by when it has them. *)
let family name ?hand_picked ~table (run : runner) = (name, hand_picked, table, run)

let relaxation_families =
  List.concat_map
    (fun (m, maxk) ->
      let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
      let env = [ ("M", m); ("maxK", maxk) ] in
      [ family (Printf.sprintf "fig6 M=%d" m)
          ~table:(fun cores -> Psc.static_policy ~cores jacobi ~env)
          (fun ?pool ?policy ~collapse () ->
            ignore (Psc.run ?pool ?policy ~collapse jacobi ~inputs));
        family (Printf.sprintf "h3 M=%d" m)
          ~hand_picked:(flowchart ~name:hyper_name ~sink:true ~trim:true hyper_project)
          ~table:(fun cores ->
            Psc.static_policy ~name:hyper_name ~sink:true ~trim:true ~cores hyper_project ~env)
          (fun ?pool ?policy ~collapse () ->
            ignore
              (Psc.run ?pool ?policy ~collapse ~name:hyper_name ~sink:true
                 ~trim:true hyper_project ~inputs)) ])
    [ (16, 10); (32, 20) ]

let lcs_families =
  let lcs, tr = Psc.hyperplane ~target:"L" (Psc.load_string Ps_models.Models.lcs) in
  let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
  List.map
    (fun n ->
      let seq f = Psc.Exec.array_int ~dims:[ (1, n) ] (fun ix -> f ix.(0) mod 4) in
      let inputs =
        [ ("X", seq (fun i -> (i * 7) + 3)); ("Y", seq (fun i -> (i * 5) + 1));
          ("N", Psc.Exec.scalar_int n) ]
      in
      family (Printf.sprintf "lcs N=%d" n)
        ~table:(fun cores ->
          Psc.static_policy ~name ~sink:true ~trim:true ~cores lcs ~env:[ ("N", n) ])
        (fun ?pool ?policy ~collapse () ->
          ignore
            (Psc.run ?pool ?policy ~collapse ~name ~sink:true ~trim:true lcs
               ~inputs)))
    [ 64; 128 ]

let stride_families =
  let grp = Psc.load_string Ps_models.Models.strided_copy in
  let insp = Psc.load_string Ps_models.Models.param_recurrence in
  let k = 7 in
  List.concat_map
    (fun n ->
      let a =
        Psc.Exec.array_real ~dims:[ (1, n) ] (fun ix -> Ps_models.Models.fill_value ix.(0))
      in
      let grp_inputs = [ ("A", a); ("N", Psc.Exec.scalar_int n) ] in
      let insp_inputs = ("K", Psc.Exec.scalar_int k) :: grp_inputs in
      [ family (Printf.sprintf "grp N=%d" n)
          ~table:(fun cores -> Psc.static_policy ~cores grp ~env:[ ("N", n) ])
          (fun ?pool ?policy ~collapse () ->
            ignore (Psc.run ?pool ?policy ~collapse grp ~inputs:grp_inputs));
        family (Printf.sprintf "insp N=%d" n)
          ~table:(fun cores -> Psc.static_policy ~cores insp ~env:[ ("N", n); ("K", k) ])
          (fun ?pool ?policy ~collapse () ->
            ignore (Psc.run ?pool ?policy ~collapse insp ~inputs:insp_inputs)) ])
    [ 4096; 16384 ]

let paired_case (name, hand_picked, table, (run : runner)) =
  t name (fun () ->
      let cores = Psc.Pool.recommended_size () in
      if cores = 1 then begin
        print_endline
          "skipped: on one core every static table is all-sequential, so auto \
           would be timed against itself";
        Alcotest.skip ()
      end;
      let table = table cores in
      Psc.Pool.with_pool cores @@ fun pool ->
      let hand =
        match hand_picked with
        | None -> []
        | Some fc ->
          let fixed =
            Psc.Policy.uniform ~source:Psc.Policy.Tuned ~cores fc (fun _ ->
                Psc.Policy.parallel ~steal:false ~why:"fixed chunks" ())
          in
          [ ("fixed", fun () -> run ~pool ~policy:fixed ~collapse:false ());
            ("steal", fun () -> run ~pool ~collapse:false ());
            ("steal+collapse", fun () -> run ~pool ~collapse:true ()) ]
      in
      let sides =
        [ ("auto", fun () -> run ~pool ~policy:table ~collapse:false ());
          ("seq", fun () -> run ~collapse:false ()) ]
        @ hand
      in
      (* The first bound one set of medians breaks, if any. *)
      let verdict medians =
        let report =
          Printf.sprintf "%s, %d rounds, pool of %d: %s; %s" name rounds cores
            (String.concat ", "
               (List.map (fun (n, s) -> Printf.sprintf "%s %.3f ms" n (s *. 1e3)) medians))
            (Psc.Policy.table_summary table)
        in
        print_endline report;
        let auto = List.assoc "auto" medians in
        let others = List.map snd (List.remove_assoc "auto" medians) in
        let bounds =
          ((1.1 *. List.assoc "seq" medians) +. 0.001, "1.1 x seq + 1 ms")
          ::
          (if hand = [] then []
           else
             [ ((1.1 *. List.fold_left min infinity others) +. 0.001,
                "1.1 x the best hand-picked run + 1 ms");
               (List.fold_left max 0.0 others, "the worst hand-picked run") ])
        in
        List.find_map
          (fun (limit, what) ->
            if auto <= limit then None
            else
              Some
                (Printf.sprintf "auto %.3f ms exceeds %s (%.3f ms): %s" (auto *. 1e3) what
                   (limit *. 1e3) report))
          bounds
      in
      (* A broken bound earns two fresh sets of rounds before it counts,
         as in the sweeps this check replaces: a real regression breaks
         it three times running, a burst of host load does not. *)
      let rec attempt k =
        match verdict (paired_medians sides) with
        | None -> ()
        | Some m when k < 3 ->
          print_endline ("measuring again: " ^ m);
          attempt (k + 1)
        | Some m -> Alcotest.fail m
      in
      attempt 1)

let paired_tests =
  List.map paired_case (relaxation_families @ lcs_families @ stride_families)

let () =
  Alcotest.run "policy"
    [ ("cost-model", cost_tests);
      ("roundtrip", roundtrip_tests);
      ("verify", verify_tests);
      ("exec", exec_tests);
      ("paired", paired_tests) ]
