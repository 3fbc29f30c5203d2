(* Protocol tests for the compile service (`psc serve`).

   Exercised end to end against a real subprocess: stdio round trips,
   per-request rejection of malformed JSON (E030), expired deadlines
   answered with E031 while the server stays up, the artifact cache
   observable through both the stats operation and the span trace (a
   repeated schedule request is schedule-free), 32 concurrent socket
   clients all getting the same bit-exact answer, and SIGTERM draining
   the server instead of killing it. *)

let t name f = Alcotest.test_case name `Quick f

module Json = Psc.Json

let psc_exe = Util.psc_exe

(* Request lines used throughout: the Jacobi relaxation model. *)
let jacobi_src = Ps_models.Models.jacobi

let schedule_req ?(id = 1) () =
  Printf.sprintf "{\"id\":%d,\"op\":\"schedule\",\"source\":%s}" id
    (Json.str jacobi_src)

let run_req ?(id = 1) () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"run\",\"source\":%s,\"scalars\":{\"M\":6,\"maxK\":4}}"
    id (Json.str jacobi_src)


(* --- response inspection ------------------------------------------- *)

let parse line =
  match Json.parse line with
  | j -> j
  | exception Json.Parse_error m -> Alcotest.failf "bad response %S: %s" line m

let jbool name j = Util.bool_ (Util.field name j)

let jnum name j = int_of_float (Util.num (Util.field name j))

let first_diag name j =
  match Util.field "diagnostics" j with
  | Json.Arr (d :: _) -> Util.str (Util.field name d)
  | _ -> Alcotest.failf "response has no diagnostics"

let first_code = first_diag "code"

let cache_stat name stats_resp = jnum name (Util.field "cache" stats_resp)

(* --- a stdio server session ---------------------------------------- *)

let check_exit = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited with %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Alcotest.failf "server killed by signal %d" n

(* A `psc serve --stdio` child on raw pipes: [f] writes the server's
   stdin and reads its stdout, and may close stdin itself to end the
   input.  Returns [f]'s result with the child's exit status.  A
   watchdog kills the child after 60 s, so a hang fails the test
   instead of wedging the suite. *)
let with_stdio_pipes ?(args = []) f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process psc_exe
      (Array.of_list ([ psc_exe; "serve"; "--stdio" ] @ args))
      in_r out_w devnull
  in
  List.iter Unix.close [ in_r; out_w; devnull ];
  let ic = Unix.in_channel_of_descr out_r in
  let oc = Unix.out_channel_of_descr in_w in
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let rec go n =
          if Atomic.get finished then ()
          else if n = 0 then
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
          else begin
            Unix.sleepf 0.05;
            go (n - 1)
          end
        in
        go 1200)
      ()
  in
  let status = ref (Unix.WEXITED 0) in
  let result =
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        close_in_noerr ic;
        status := snd (Unix.waitpid [] pid);
        Atomic.set finished true;
        Thread.join watchdog)
      (fun () -> f ic oc)
  in
  (result, !status)

(* A scripted session: [f] gets [ask], which sends one request line and
   returns its parsed answer; a shutdown and a clean exit follow. *)
let with_stdio_server ?args f =
  let result, status =
    with_stdio_pipes ?args (fun ic oc ->
        let ask line =
          output_string oc line;
          output_char oc '\n';
          flush oc;
          parse (input_line ic)
        in
        let result = f ask in
        (try ignore (ask {|{"id":99,"op":"shutdown"}|})
         with End_of_file | Sys_error _ -> ());
        result)
  in
  check_exit status;
  result

(* The declared-box elements of an array output, in the row-major order
   the wire uses. *)
let box_floats (sl : Psc.Value.slab) =
  let out = ref [] in
  let n = Psc.Value.ndims sl in
  let ix = Array.map (fun d -> d.Psc.Value.di_lo) sl.Psc.Value.s_dims in
  let rec go p =
    if p = n then
      out := Psc.Value.as_float (Psc.Value.get_scalar sl ix) :: !out
    else
      let d = sl.Psc.Value.s_dims.(p) in
      for v = d.Psc.Value.di_lo to d.Psc.Value.di_lo + d.Psc.Value.di_extent - 1
      do
        ix.(p) <- v;
        go (p + 1)
      done
  in
  go 0;
  List.rev !out

(* --- stdio tests ---------------------------------------------------- *)

let stdio_tests =
  [ t "schedule round trip; the repeat is served from the cache" (fun () ->
        with_stdio_server (fun ask ->
            let r1 = ask (schedule_req ~id:1 ()) in
            Alcotest.(check bool) "ok" true (jbool "ok" r1);
            Alcotest.(check bool) "first is a miss" false (jbool "cached" r1);
            let r2 = ask (schedule_req ~id:2 ()) in
            Alcotest.(check bool) "ok" true (jbool "ok" r2);
            Alcotest.(check bool) "repeat is a hit" true (jbool "cached" r2);
            (match (Json.member "flowchart" r1, Json.member "flowchart" r2) with
            | Some (Json.Str a), Some (Json.Str b) ->
              Alcotest.(check string) "same flowchart" a b
            | _ -> Alcotest.fail "schedule response has no flowchart");
            let s = ask "{\"id\":3,\"op\":\"stats\"}" in
            (* The first populated both stages; the repeat is one lookup
               of its schedule, not of the project behind it. *)
            Alcotest.(check int) "one hit" 1 (cache_stat "hits" s);
            Alcotest.(check int) "one miss per stage" 2 (cache_stat "misses" s)));
    t "malformed JSON is rejected per-request, server stays up" (fun () ->
        with_stdio_server (fun ask ->
            let bad = ask "this is not json" in
            Alcotest.(check bool) "not ok" false (jbool "ok" bad);
            Alcotest.(check string) "E030" "E030" (first_code bad);
            let bad2 = ask "{\"id\":7,\"op\":\"frobnicate\"}" in
            Alcotest.(check string) "unknown op is E030" "E030" (first_code bad2);
            let bad3 = ask "{\"id\":8,\"op\":\"run\"}" in
            Alcotest.(check bool) "missing source rejected" false
              (jbool "ok" bad3);
            (* The server must still answer real work afterwards. *)
            let ok = ask (schedule_req ~id:9 ()) in
            Alcotest.(check bool) "server survived" true (jbool "ok" ok)));
    t "an expired deadline answers E031 and the server stays up" (fun () ->
        with_stdio_server (fun ask ->
            let late =
              ask
                (Printf.sprintf
                   "{\"id\":1,\"op\":\"run\",\"source\":%s,\"scalars\":{\"M\":6,\"maxK\":4},\"deadline_ms\":0}"
                   (Json.str jacobi_src))
            in
            Alcotest.(check bool) "not ok" false (jbool "ok" late);
            Alcotest.(check string) "E031" "E031" (first_code late);
            let s = ask "{\"id\":2,\"op\":\"stats\"}" in
            (match Json.member "metrics" s with
            | Some _ -> ()
            | None -> Alcotest.fail "stats has no metrics");
            let ok = ask (run_req ~id:3 ()) in
            Alcotest.(check bool) "server survived the trip" true
              (jbool "ok" ok)));
    t "run answers match the in-process interpreter bit for bit" (fun () ->
        with_stdio_server (fun ask ->
            let r = ask (run_req ()) in
            Alcotest.(check bool) "ok" true (jbool "ok" r);
            let tp = Psc.load_string jacobi_src in
            let em = Psc.default_module tp in
            let scalars = [ ("M", 6); ("maxK", 4) ] in
            let inputs = Psc.default_inputs em ~scalars in
            let want =
              match
                List.assoc_opt "newA" (Psc.run tp ~inputs).Psc.Exec.outputs
              with
              | Some (Psc.Value.Varray sl) -> box_floats sl
              | _ -> Alcotest.fail "interpreter produced no newA array"
            in
            let got =
              match Json.member "outputs" r with
              | Some (Json.Arr [ out ]) -> (
                match Json.member "values" out with
                | Some (Json.Arr vs) ->
                  List.map
                    (function
                      | Json.Str s -> float_of_string s
                      | _ -> Alcotest.fail "non-string array value")
                    vs
                | _ -> Alcotest.fail "run response has no values")
              | _ -> Alcotest.fail "run response has no outputs"
            in
            Alcotest.(check int) "same element count" (List.length want)
              (List.length got);
            List.iter2
              (fun a b ->
                if not (Float.equal a b) then
                  Alcotest.failf "wire value %.17g <> interpreter %.17g" b a)
              want got));
    t "a malformed number answers E030 and the next request is served"
      (fun () ->
        with_stdio_server (fun ask ->
            Alcotest.(check string) "E030" "E030"
              (first_code (ask {|{"id":1,"op":"stats","x":-}|}));
            Alcotest.(check int) "next request served" 2
              (jnum "id" (ask {|{"id":2,"op":"stats"}|}))));
    t "an ASCII-escaped copy of a non-ASCII source hits the cache" (fun () ->
        (* The second request is what an encoder such as Python's
           json.dumps sends by default: the same program, its non-ASCII
           bytes as \uXXXX escapes. *)
        let body = Json.str jacobi_src in
        let req id comment =
          Printf.sprintf {|{"id":%d,"op":"schedule","source":"(* caf%s *)\n%s}|}
            id comment (String.sub body 1 (String.length body - 1))
        in
        with_stdio_server (fun ask ->
            let r1 = ask (req 1 "\xc3\xa9 \xf0\x9f\x98\x80") in
            Alcotest.(check bool) "raw copy is a miss" false (jbool "cached" r1);
            let r2 = ask (req 2 {|\u00e9 \ud83d\ude00|}) in
            Alcotest.(check bool) "escaped copy is a hit" true (jbool "cached" r2)));
    t "a run without its scalars fails with its id; the server survives"
      (fun () ->
        with_stdio_server (fun ask ->
            let r =
              ask
                (Printf.sprintf {|{"id":1,"op":"run","source_file":%s}|}
                   (Json.str (Util.example "relaxation.ps")))
            in
            Alcotest.(check (option string)) "names the scalar"
              (Some "no value for scalar input M") (Json.member_str "error" r);
            Alcotest.(check int) "its id" 1 (jnum "id" r);
            Alcotest.(check bool) "server survived" true
              (jbool "ok" (ask (run_req ~id:2 ())))));
    t "a run scalar that is not an integer is E030 with its id" (fun () ->
        with_stdio_server (fun ask ->
            List.iteri
              (fun i m ->
                let r =
                  ask
                    (Printf.sprintf
                       {|{"id":%d,"op":"run","source":%s,"scalars":{"M":%s,"maxK":2}}|}
                       (i + 1) (Json.str jacobi_src) m)
                in
                Alcotest.(check string) (m ^ " is E030") "E030" (first_code r);
                Alcotest.(check int) (m ^ " keeps its id") (i + 1) (jnum "id" r);
                Alcotest.(check string) (m ^ " names the scalar")
                  "scalar M must be an integer in int range"
                  (first_diag "message" r))
              [ "2.9"; {|"3"|}; "1e400" ];
            Alcotest.(check bool) "next request served" true
              (jbool "ok" (ask (run_req ~id:4 ()))))) ]

(* --- the tune op ------------------------------------------------------ *)

let tune_req ~id src scalars =
  Printf.sprintf {|{"id":%d,"op":"tune","source":%s,"scalars":%s}|} id
    (Json.str src) scalars

let tune_tests =
  [ t "a subscript out of range answers its tune; the server survives"
      (fun () ->
        with_stdio_server (fun ask ->
            let r = ask (tune_req ~id:5 Util.out_of_range_src {|{"N":4}|}) in
            Alcotest.(check int) "its id" 5 (jnum "id" r);
            Alcotest.(check (option string)) "the bounds error"
              (Some Util.out_of_range_error) (Json.member_str "error" r);
            Alcotest.(check int) "stats answered" 6
              (jnum "id" (ask {|{"id":6,"op":"stats"}|}))));
    t "tune of relaxation answers a policy table" (fun () ->
        with_stdio_server (fun ask ->
            let r = ask (tune_req ~id:1 jacobi_src {|{"M":6,"maxK":4}|}) in
            Alcotest.(check bool) "ok" true (jbool "ok" r);
            Alcotest.(check int) "policy version" 1
              (jnum "policy" (Util.field "policy" r)))) ]

(* --- observability over the wire ------------------------------------ *)

let read_file = Util.read_file

let obs_tests =
  [ t "stats reports uptime, the inflight peak and latency quantiles"
      (fun () ->
        with_stdio_server (fun ask ->
            ignore (ask (schedule_req ~id:1 ()));
            let s = ask "{\"id\":2,\"op\":\"stats\",\"trace_id\":\"tid-1\"}" in
            (match Json.member "trace_id" s with
            | Some (Json.Str "tid-1") -> ()
            | _ -> Alcotest.fail "stats reply did not echo the trace id");
            Alcotest.(check bool) "uptime counted" true (jnum "uptime_ms" s >= 0);
            Alcotest.(check bool) "inflight peak at least 1" true
              (jnum "inflight_peak" s >= 1);
            match Json.member "latency_ns" s with
            | Some l ->
              let quants name =
                match Json.member name l with
                | Some q ->
                  Alcotest.(check bool)
                    (name ^ " quantiles ordered") true
                    (jnum "p50" q <= jnum "p90" q
                    && jnum "p90" q <= jnum "p99" q
                    && jnum "p99" q <= jnum "max" q)
                | None -> Alcotest.failf "latency_ns has no %S" name
              in
              quants "all";
              quants "queue";
              quants "schedule";
              (match Json.member "schedule" l with
              | Some q ->
                Alcotest.(check bool) "the schedule op was measured" true
                  (jnum "count" q >= 1)
              | None -> assert false)
            | None -> Alcotest.fail "stats has no latency_ns"));
    t "--slow-ms 0 captures every request's span subtree" (fun () ->
        with_stdio_server ~args:[ "--slow-ms"; "0" ] (fun ask ->
            ignore (ask (schedule_req ~id:1 ()));
            let s = ask "{\"id\":2,\"op\":\"stats\"}" in
            match Json.member "slow" s with
            | Some (Json.Arr (entry :: _)) ->
              (match Json.member "op" entry with
              | Some (Json.Str "schedule") -> ()
              | _ -> Alcotest.fail "slow entry does not name its op");
              Alcotest.(check bool) "total recorded" true
                (jnum "total_us" entry >= 0);
              (match Json.member "spans" entry with
              | Some (Json.Arr (sp :: _ as sps)) ->
                (match Json.member "name" sp with
                | Some (Json.Str _) -> ()
                | _ -> Alcotest.fail "span row has no name");
                Alcotest.(check bool) "the request span is in the subtree"
                  true
                  (List.exists
                     (fun sp ->
                       Json.member "name" sp
                       = Some (Json.Str "request"))
                     sps)
              | _ -> Alcotest.fail "slow entry has no spans")
            | Some (Json.Arr []) -> Alcotest.fail "slow ring is empty"
            | _ -> Alcotest.fail "stats has no slow array"));
    t "--metrics-json dumps the registry on clean shutdown" (fun () ->
        let file = Filename.temp_file "psc_metrics" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        @@ fun () ->
        with_stdio_server
          ~args:[ "--metrics-json"; file ]
          (fun ask -> ignore (ask (schedule_req ~id:1 ())));
        let j = Json.parse (read_file file) in
        match j with
        | Json.Arr rows ->
          let find name =
            List.find_opt
              (fun r -> Json.member "name" r = Some (Json.Str name))
              rows
          in
          (match find "server.requests" with
          | Some r ->
            Alcotest.(check bool) "requests counted" true
              (jnum "value" r >= 1)
          | None -> Alcotest.fail "no server.requests row");
          (match find "server.latency_ns.all" with
          | Some r ->
            Alcotest.(check (option string)) "latency is a sketch"
              (Some "sketch")
              (match Json.member "kind" r with
              | Some (Json.Str s) -> Some s
              | _ -> None);
            Alcotest.(check bool) "latency measured" true
              (jnum "count" r >= 1)
          | None -> Alcotest.fail "no server.latency_ns.all row")
        | _ -> Alcotest.fail "metrics dump is not a JSON array");
    t "a merged client+server trace validates with one schedule span"
      (fun () ->
        let server_trace = Filename.temp_file "ps_server" ".trace.json" in
        let client_trace = Filename.temp_file "ps_client" ".trace.json" in
        Fun.protect
          ~finally:(fun () ->
            Psc.Trace.set_enabled false;
            (try Sys.remove server_trace with Sys_error _ -> ());
            try Sys.remove client_trace with Sys_error _ -> ())
        @@ fun () ->
        (* The client side of the distributed trace: each request is a
           span in this process, and its span id rides the wire as
           parent_span so the server's request span can point back. *)
        Psc.Trace.set_enabled true;
        with_stdio_server
          ~args:[ "--trace"; server_trace ]
          (fun ask ->
            let request i =
              let sid = Psc.Trace.fresh_span_id () in
              Psc.Trace.with_span "client.request"
                ~args:[ ("sid", sid); ("trace_id", "mt-1") ]
                (fun () ->
                  ask
                    (Printf.sprintf
                       "{\"id\":%d,\"op\":\"schedule\",\"trace_id\":\"mt-1\",\"parent_span\":%S,\"source\":%s}"
                       i sid (Json.str jacobi_src)))
            in
            let r1 = request 1 in
            Alcotest.(check bool) "first ok" true (jbool "ok" r1);
            let r2 = request 2 in
            Alcotest.(check bool) "repeat is a hit" true (jbool "cached" r2);
            match Json.member "trace_id" r2 with
            | Some (Json.Str "mt-1") -> ()
            | _ -> Alcotest.fail "reply did not echo the trace id");
        Psc.Trace.write client_trace;
        Psc.Trace.set_enabled false;
        let fs = Psc.Trace.parse_chrome_file (read_file server_trace) in
        let fc = Psc.Trace.parse_chrome_file (read_file client_trace) in
        let merged = Psc.Trace.merge [ fc; fs ] in
        (match Psc.Trace.validate merged with
        | Ok () -> ()
        | Error m -> Alcotest.failf "merged trace invalid: %s" m);
        let pids =
          List.sort_uniq compare
            (List.map (fun e -> e.Psc.Trace.ev_pid) merged)
        in
        Alcotest.(check int) "two processes on one timeline" 2
          (List.length pids);
        let begins name =
          List.length
            (List.filter
               (fun (e : Psc.Trace.event) ->
                 e.Psc.Trace.ev_ph = Psc.Trace.Begin
                 && e.Psc.Trace.ev_name = name)
               merged)
        in
        Alcotest.(check int) "two client request spans" 2
          (begins "client.request");
        (* Two schedules crossed the wire but the repeat was a cache
           hit: exactly one schedule span on the whole timeline. *)
        Alcotest.(check int) "one schedule span" 1 (begins "schedule");
        (* The server stamped each request span with the client's
           parent span id. *)
        let parent_args =
          List.filter_map
            (fun (e : Psc.Trace.event) ->
              if e.Psc.Trace.ev_ph = Psc.Trace.Begin
                 && e.Psc.Trace.ev_name = "request"
              then List.assoc_opt "parent" e.Psc.Trace.ev_args
              else None)
            merged
        in
        Alcotest.(check int) "both server spans carry a parent" 2
          (List.length parent_args);
        let pid_prefix = string_of_int (Unix.getpid ()) ^ "." in
        List.iter
          (fun p ->
            let n = String.length pid_prefix in
            if String.length p < n || String.sub p 0 n <> pid_prefix then
              Alcotest.failf "parent %S does not name the client process" p)
          parent_args;
        (* The CLI agrees with the library. *)
        let rc =
          Sys.command
            (Printf.sprintf "%s trace-check %s %s >/dev/null 2>&1"
               (Filename.quote psc_exe)
               (Filename.quote server_trace)
               (Filename.quote client_trace))
        in
        Alcotest.(check int) "psc trace-check accepts the pair" 0 rc) ]

(* --- trace: a cache hit is schedule-free ---------------------------- *)

let trace_tests =
  [ t "a repeated schedule request leaves no schedule span in the trace"
      (fun () ->
        let trace_file = Filename.temp_file "ps_server" ".trace.json" in
        with_stdio_server
          ~args:[ "--trace"; trace_file ]
          (fun ask ->
            ignore (ask (schedule_req ~id:1 ()));
            let r2 = ask (schedule_req ~id:2 ()) in
            Alcotest.(check bool) "hit" true (jbool "cached" r2));
        let ic = open_in_bin trace_file in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove trace_file;
        let events = Psc.Trace.parse_chrome text in
        (match Psc.Trace.validate events with
        | Ok () -> ()
        | Error m -> Alcotest.failf "invalid trace: %s" m);
        let begins name =
          List.length
            (List.filter
               (fun (e : Psc.Trace.event) ->
                 e.Psc.Trace.ev_ph = Psc.Trace.Begin
                 && e.Psc.Trace.ev_name = name)
               events)
        in
        (* Three requests crossed the server (two schedules plus the
           shutdown), but only the first schedule touched the pipeline:
           the repeat was answered from the cache. *)
        Alcotest.(check int) "request spans" 3 (begins "request");
        Alcotest.(check int) "schedule ran once" 1 (begins "schedule");
        Alcotest.(check int) "load ran once" 1 (begins "load")) ]

(* --- socket helpers -------------------------------------------------- *)

let wait_for cond msg =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.failf "timeout waiting for %s" msg
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200 (* up to 10 s *)

let start_socket_server ?(workers = 8) ?(extra = []) () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psc_serve_%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let argv =
    Array.of_list
      ([ psc_exe; "serve"; "--socket"; path;
         "--workers"; string_of_int workers ]
      @ extra)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process psc_exe argv devnull devnull devnull in
  Unix.close devnull;
  (* The socket file appears at bind, a moment before listen, when a
     connect is still refused: wait for a connect to succeed. *)
  let listening () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
  in
  wait_for listening "server socket";
  (pid, path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* Blocking reads on a socket are bounded: a hang must fail the test,
   not wedge the suite. *)
let recv_deadline fd = Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0

(* Request lines [first..last] of [line i], written in one burst. *)
let burst oc first last line =
  for i = first to last do
    output_string oc (line i);
    output_char oc '\n'
  done;
  flush oc

(* A schedule request whose comment makes its source digest fresh. *)
let fresh_req tag i =
  Printf.sprintf {|{"id":%d,"op":"schedule","source":%s}|} i
    (Json.str (Printf.sprintf "(* %s %d *)\n%s" tag i jacobi_src))

let ask_fd ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* The server's open-connection gauge, read over a connection of its
   own (so counted in it). *)
let connections path =
  let fd, ic, oc = connect path in
  recv_deadline fd;
  let s = parse (ask_fd ic oc "{\"id\":1,\"op\":\"stats\"}") in
  Unix.close fd;
  jnum "connections" s

let stop_server pid path =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  (try Sys.remove path with Sys_error _ -> ())

(* Every answer left on the server's stdout, up to its end. *)
let rec read_all ic acc =
  match input_line ic with
  | line -> read_all ic (parse line :: acc)
  | exception End_of_file -> List.rev acc

let stdio_pipe_tests =
  [ t "a burst written before any read gets one answer per id, in any order"
      (fun () ->
        let n = 16 in
        let ids, status =
          with_stdio_pipes (fun ic oc ->
              burst oc 1 n (fun id ->
                  if id mod 2 = 0 then schedule_req ~id () else run_req ~id ());
              List.init n (fun _ -> jnum "id" (parse (input_line ic))))
        in
        check_exit status;
        Alcotest.(check (list int)) "one answer per id" (List.init n succ)
          (List.sort compare ids));
    t "--workers 1 --max-queue 1 over stdio sheds E033 and answers every id"
      (fun () ->
        let n = 100 in
        let answers, status =
          with_stdio_pipes ~args:[ "--workers"; "1"; "--max-queue"; "1" ]
            (fun ic oc ->
              burst oc 0 (n - 1) (fresh_req "stdio-flood");
              List.init n (fun _ ->
                  let j = parse (input_line ic) in
                  (jnum "id" j, if jbool "ok" j then "ok" else first_code j)))
        in
        check_exit status;
        Alcotest.(check (list int)) "every id answered once"
          (List.init n Fun.id)
          (List.sort compare (List.map fst answers));
        let codes = List.map snd answers in
        List.iter
          (fun c ->
            if c <> "ok" && c <> "E033" then
              Alcotest.failf "unexpected code %s" c)
          codes;
        Alcotest.(check bool) "some requests were served" true
          (List.mem "ok" codes);
        Alcotest.(check bool) "the flood was shed" true
          (List.mem "E033" codes));
    t "a last line without a newline, then end of input, is answered"
      (fun () ->
        let ids, status =
          with_stdio_pipes (fun ic oc ->
              output_string oc (schedule_req ~id:1 () ^ "\n");
              output_string oc {|{"id":2,"op":"stats"}|};
              close_out oc;
              List.map (jnum "id") (read_all ic []))
        in
        check_exit status;
        Alcotest.(check (list int)) "both requests answered" [ 1; 2 ]
          (List.sort compare ids));
    t "end of input without shutdown exits 0 well inside the drain grace"
      (fun () ->
        let elapsed, status =
          with_stdio_pipes (fun ic oc ->
              let r = parse (ask_fd ic oc (schedule_req ~id:1 ())) in
              Alcotest.(check bool) "answered" true (jbool "ok" r);
              let t0 = Psc.Metrics.now_ns () in
              close_out oc;
              Alcotest.(check int) "nothing more to read" 0
                (List.length (read_all ic []));
              float_of_int (Psc.Metrics.now_ns () - t0) /. 1e9)
        in
        check_exit status;
        (* The default grace is 5 s; end of input drains at once. *)
        if elapsed >= 2.0 then
          Alcotest.failf "the server took %.2f s to exit after end of input"
            elapsed) ]

(* --- a hit answers what its miss rendered ------------------------------ *)

let emit_req ~id ?main src =
  Json.obj
    ([ ("id", Json.int id); ("op", Json.str "emit-c"); ("source", Json.str src) ]
    @
    match main with
    | None -> []
    | Some scalars ->
      [ ("main", "true");
        ("scalars", Json.obj (List.map (fun (n, v) -> (n, Json.int v)) scalars)) ])

(* A stdio session over raw answer lines: [f] gets [ask], which sends
   one request line and returns the answer line unparsed. *)
let with_raw_stdio f =
  let result, status = with_stdio_pipes (fun ic oc -> f (ask_fd ic oc)) in
  check_exit status;
  result

let example_sources () =
  let dir = Filename.dirname (Util.example "relaxation.ps") in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ps")
  |> List.sort compare
  |> List.map (fun f -> (f, Util.read_file (Filename.concat dir f)))

(* Every scalar input of the source's default module, at [v]. *)
let scalar_inputs src v =
  let em = Psc.default_module (Psc.load_string src) in
  List.filter_map
    (fun (d : Psc.Elab.data) ->
      match Psc.Stypes.dims d.Psc.Elab.d_ty with
      | [] -> Some (d.Psc.Elab.d_name, v)
      | _ -> None)
    em.Psc.Elab.em_params

let hit_tests =
  [ t "each emit-c harness carries its own scalars, and a repeat is a hit"
      (fun () ->
        let src = Util.read_file (Util.example "relaxation.ps") in
        with_raw_stdio (fun ask ->
            let expect ~id ~cached ~m scalars =
              let j = parse (ask (emit_req ~id ~main:scalars src)) in
              let what = Printf.sprintf "id %d" id in
              Alcotest.(check bool) (what ^ " ok") true (jbool "ok" j);
              Alcotest.(check bool) (what ^ " cached") cached (jbool "cached" j);
              Alcotest.(check bool) (what ^ " has its own M") true
                (Util.contains (Util.str (Util.field "c" j))
                   (Printf.sprintf "int M = %d;" m))
            in
            expect ~id:1 ~cached:false ~m:4 [ ("M", 4); ("maxK", 2) ];
            expect ~id:2 ~cached:false ~m:9 [ ("M", 9); ("maxK", 7) ];
            (* The key sorts the scalars by name: the order a client
               lists them in does not matter. *)
            expect ~id:3 ~cached:true ~m:4 [ ("maxK", 2); ("M", 4) ];
            expect ~id:4 ~cached:true ~m:9 [ ("M", 9); ("maxK", 7) ]));
    t "on every example, a hit's answer is its miss's, byte for byte" (fun () ->
        with_raw_stdio (fun ask ->
            List.iter
              (fun (name, src) ->
                List.iter
                  (fun (what, line) ->
                    let miss = ask line in
                    let hit = ask line in
                    let what = Printf.sprintf "%s %s" name what in
                    let miss_head = {|{"id":1,"ok":true,"cached":false|} in
                    let n = String.length miss_head in
                    Alcotest.(check string) (what ^ ": the first is an ok miss")
                      miss_head (String.sub miss 0 (min n (String.length miss)));
                    Alcotest.(check string) (what ^ ": the hit is the miss's bytes")
                      ({|{"id":1,"ok":true,"cached":true|}
                      ^ String.sub miss n (String.length miss - n))
                      hit)
                  [ ("schedule",
                     Printf.sprintf {|{"id":1,"op":"schedule","source":%s}|}
                       (Json.str src));
                    ("emit-c", emit_req ~id:1 src);
                    ("emit-c main", emit_req ~id:1 ~main:(scalar_inputs src 5) src) ])
              (example_sources ()))) ]

(* --- stress over both transports -------------------------------------- *)

(* The fixed mix of the transport-agreement case: well-formed requests
   over several models and ops, each twice (the repeat may or may not
   hit the cache, depending on how the workers interleave), garbage
   lines that still carry an id, and garbage whose id cannot be
   recovered (answered with id null).  No stats: its answer changes
   from run to run.  Returns the lines in a seeded order, every id they
   carry, the ids of the garbage among them, and the count of id-less
   lines. *)
let agreement_mix rng =
  let open Ps_models.Models in
  let ops =
    [ ("schedule", ""); ("compile", ""); ("lint", ""); ("emit-c", "");
      ("schedule", {|,"flags":{"sink":true,"fuse":true,"trim":true}|}) ]
  in
  let good =
    List.concat_map
      (fun src -> List.map (fun (op, extra) -> (op, src, extra)) ops)
      [ jacobi; seidel; heat1d; lcs ]
    @ [ ("run", jacobi, {|,"scalars":{"M":6,"maxK":4}|});
        ("run", jacobi, {|,"scalars":{"M":5,"maxK":3}|}) ]
  in
  let good =
    List.mapi
      (fun i (op, src, extra) ->
        Printf.sprintf {|{"id":%d,"op":"%s","source":%s%s}|} (i + 1) op
          (Json.str src) extra)
      (good @ good)
  in
  let garbage =
    List.mapi
      (fun i fmt -> Printf.sprintf fmt (1000 + i))
      [ {|{"id":%d,"op":"frobnicate"}|}; {|{"id":%d}|}; {|{"id":%d,"op":7}|};
        {|{"id":%d,"op":"run","source":"x","scalars":{"M":2.5}}|};
        {|{"id":%d,"op":"lint","flags":{},"scalars":{"M":"3"}}|} ]
  in
  let id_less =
    [ "this is not json"; {|{"id":7,"op":"schedule","x":-}|}; "[1,2,3]";
      {|{"op":"sched|} ]
  in
  let lines =
    List.map snd
      (List.sort compare
         (List.map
            (fun l -> (Random.State.bits rng, l))
            (good @ garbage @ id_less)))
  in
  ( lines,
    List.init (List.length good) succ
    @ List.init (List.length garbage) (fun i -> 1000 + i),
    List.init (List.length garbage) (fun i -> 1000 + i),
    List.length id_less )

(* Write [lines] as one byte stream cut at seeded random boundaries
   (half the fragments are 1-7 bytes), keeping at most a seeded depth of
   complete lines unanswered, and return every answer line. *)
let pipeline rng ic oc lines =
  let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n = String.length stream in
  let depth = 1 + Random.State.int rng 8 in
  let answers = ref [] and sent = ref 0 and got = ref 0 and pos = ref 0 in
  let take () =
    answers := input_line ic :: !answers;
    incr got
  in
  while !pos < n do
    let len =
      min (n - !pos)
        (if Random.State.bool rng then 1 + Random.State.int rng 7
         else 8 + Random.State.int rng 1024)
    in
    output_substring oc stream !pos len;
    flush oc;
    for i = !pos to !pos + len - 1 do
      if stream.[i] = '\n' then incr sent
    done;
    pos := !pos + len;
    while !sent - !got >= depth do
      take ()
    done
  done;
  while !got < !sent do
    take ()
  done;
  !answers

(* The same exchange over a fresh socket server. *)
let over_socket f =
  let pid, path = start_socket_server () in
  Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
  let fd, ic, oc = connect path in
  recv_deadline fd;
  let r = f ic oc in
  Unix.close fd;
  r

let transport_tests =
  [ t "a seeded split, pipelined mix is answered alike on both transports"
      (fun () ->
        let rng = Random.State.make [| 16 |] in
        let lines, ids, garbage_ids, id_less = agreement_mix rng in
        let check name answers =
          let js = List.map parse answers in
          let id_of j =
            match Json.member "id" j with
            | Some (Json.Num f) -> Some (int_of_float f)
            | _ -> None
          in
          Alcotest.(check (list int))
            (name ^ ": one answer per id")
            (List.sort compare ids)
            (List.sort compare (List.filter_map id_of js));
          Alcotest.(check int)
            (name ^ ": one id-less answer per id-less line")
            id_less
            (List.length
               (List.filter (fun j -> Json.member "id" j = Some Json.Null) js));
          List.iter
            (fun j ->
              match id_of j with
              | Some id when not (List.mem id garbage_ids) -> ()
              | _ ->
                Alcotest.(check string) (name ^ ": garbage is E030") "E030"
                  (first_code j))
            js
        in
        let stdio, status =
          with_stdio_pipes (fun ic oc -> pipeline rng ic oc lines)
        in
        check_exit status;
        let socket = over_socket (fun ic oc -> pipeline rng ic oc lines) in
        check "stdio" stdio;
        check "socket" socket;
        (* Whether a request hit the cache depends on the interleaving;
           everything else in an answer must not. *)
        let canon answers =
          List.sort compare
            (List.map
               (fun l ->
                 match parse l with
                 | Json.Obj kvs ->
                   (Json.Obj (List.remove_assoc "cached" kvs), l)
                 | j -> (j, l))
               answers)
        in
        let rec agree = function
          | (a, la) :: xs, (b, lb) :: ys ->
            if a = b then agree (xs, ys)
            else Alcotest.failf "stdio answered %s\nsocket answered %s" la lb
          | [], [] -> ()
          | _ -> Alcotest.fail "the transports gave different answer counts"
        in
        agree (canon stdio, canon socket));
    t "a 16 MiB line is answered in under 2 s on each transport" (fun () ->
        let line =
          Printf.sprintf {|{"id":1,"op":"stats","pad":"%s"}|}
            (String.make (16 lsl 20) 'x')
        in
        let timed ic oc =
          let t0 = Psc.Metrics.now_ns () in
          let j = parse (ask_fd ic oc line) in
          let secs = float_of_int (Psc.Metrics.now_ns () - t0) /. 1e9 in
          Alcotest.(check bool) "answered ok" true (jbool "ok" j);
          secs
        in
        let stdio, status = with_stdio_pipes timed in
        check_exit status;
        let socket = over_socket timed in
        List.iter
          (fun (name, secs) ->
            if secs >= 2.0 then
              Alcotest.failf "%s answered the 16 MiB line in %.2f s" name secs)
          [ ("stdio", stdio); ("socket", socket) ]) ]

(* --- socket tests ----------------------------------------------------- *)

let socket_tests =
  [ t "32 concurrent clients all get the same bit-exact answer" (fun () ->
        let pid, path = start_socket_server () in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        (* Warm both cache stages so the concurrent wave is all hits. *)
        let fd, ic, oc = connect path in
        let warm = parse (ask_fd ic oc (run_req ~id:0 ())) in
        Alcotest.(check bool) "warm request ok" true (jbool "ok" warm);
        Unix.close fd;
        let n = 32 in
        let answers = Array.make n "" in
        let worker i =
          let fd, ic, oc = connect path in
          answers.(i) <- ask_fd ic oc (run_req ~id:i ());
          Unix.close fd
        in
        let threads = List.init n (fun i -> Thread.create worker i) in
        List.iter Thread.join threads;
        let outputs_of line =
          let j = parse line in
          Alcotest.(check bool) "ok" true (jbool "ok" j);
          Alcotest.(check bool) "cached" true (jbool "cached" j);
          match Json.member "outputs" j with
          | Some o -> o
          | None -> Alcotest.fail "no outputs"
        in
        let reference = outputs_of answers.(0) in
        Array.iteri
          (fun i line ->
            if outputs_of line <> reference then
              Alcotest.failf "client %d saw a different answer" i)
          answers;
        (* The warm-up populated both stages (one miss each); each of
           the 32 concurrent runs then hits its schedule, one lookup. *)
        let fd, ic, oc = connect path in
        let s = parse (ask_fd ic oc "{\"id\":1,\"op\":\"stats\"}") in
        Unix.close fd;
        Alcotest.(check int) "one hit per run" n (cache_stat "hits" s);
        Alcotest.(check int) "one miss per stage" 2 (cache_stat "misses" s));
    t "32 concurrent clients each land one JSON access-log line" (fun () ->
        let log_file = Filename.temp_file "psc_access" ".log" in
        let pid, path =
          start_socket_server ~extra:[ "--access-log"; log_file ] ()
        in
        Fun.protect
          ~finally:(fun () ->
            stop_server pid path;
            try Sys.remove log_file with Sys_error _ -> ())
        @@ fun () ->
        (* One warm-up miss, then a 32-client wave of hits. *)
        let fd, ic, oc = connect path in
        ignore (ask_fd ic oc (schedule_req ~id:0 ()));
        Unix.close fd;
        let n = 32 in
        let worker i =
          let fd, ic, oc = connect path in
          ignore (ask_fd ic oc (schedule_req ~id:i ()));
          Unix.close fd
        in
        let threads = List.init n (fun i -> Thread.create worker i) in
        List.iter Thread.join threads;
        (* Lines are flushed as they are written, but the replies race
           the log by a hair; wait for the full count. *)
        let count_lines () =
          let s = read_file log_file in
          String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 s
        in
        wait_for (fun () -> count_lines () >= n + 1) "access log lines";
        let lines =
          String.split_on_char '\n' (read_file log_file)
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int) "one line per request" (n + 1)
          (List.length lines);
        List.iter
          (fun line ->
            let j = parse line in
            (match Json.member "op" j with
            | Some (Json.Str "schedule") -> ()
            | _ -> Alcotest.failf "line does not name its op: %s" line);
            (match Json.member "digest" j with
            | Some (Json.Str _) -> ()
            | _ -> Alcotest.failf "line has no source digest: %s" line);
            Alcotest.(check bool) "ok" true (jbool "ok" j);
            if jnum "total_us" j < 0 then
              Alcotest.failf "negative total_us: %s" line;
            if jnum "queue_us" j < 0 then
              Alcotest.failf "negative queue_us: %s" line;
            if jnum "bytes" j <= 0 then
              Alcotest.failf "no bytes counted: %s" line)
          lines;
        let hits =
          List.filter (fun l -> jbool "cached" (parse l)) lines
        in
        Alcotest.(check int) "the wave is all cache hits" n
          (List.length hits));
    t "SIGTERM drains: E032 for new work, then a clean exit" (fun () ->
        let pid, path = start_socket_server () in
        let fd, ic, oc = connect path in
        let r = parse (ask_fd ic oc (schedule_req ~id:1 ())) in
        Alcotest.(check bool) "pre-drain request ok" true (jbool "ok" r);
        Unix.kill pid Sys.sigterm;
        (* The drain flag is polled; requests racing the signal may
           still be served, so keep asking until E032 shows up. *)
        let saw_e032 = ref false in
        (try
           for i = 2 to 40 do
             if not !saw_e032 then begin
               let j = parse (ask_fd ic oc (schedule_req ~id:i ())) in
               if not (jbool "ok" j) then begin
                 Alcotest.(check string) "draining code" "E032" (first_code j);
                 saw_e032 := true
               end
               else Unix.sleepf 0.05
             end
           done
         with End_of_file | Sys_error _ -> ());
        Alcotest.(check bool) "drain answered E032" true !saw_e032;
        Unix.close fd;
        let _, status = Unix.waitpid [] pid in
        (try Sys.remove path with Sys_error _ -> ());
        check_exit status);
    t "a malformed number on a socket answers E030" (fun () ->
        let pid, path = start_socket_server () in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        let fd, ic, oc = connect path in
        recv_deadline fd;
        Alcotest.(check string) "E030, not an internal error" "E030"
          (first_code (parse (ask_fd ic oc {|{"id":1,"op":"stats","x":-}|})));
        Alcotest.(check bool) "next request served" true
          (jbool "ok" (parse (ask_fd ic oc {|{"id":2,"op":"stats"}|})));
        Unix.close fd);
    t "a client that half-closes still gets every answer" (fun () ->
        let pid, path = start_socket_server () in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        let fd, ic, oc = connect path in
        recv_deadline fd;
        (* The last line has no newline: end of input frames it. *)
        output_string oc (schedule_req ~id:1 () ^ "\n");
        output_string oc {|{"id":2,"op":"stats"}|};
        flush oc;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let rec answers acc =
          match input_line ic with
          | line -> answers (jnum "id" (parse line) :: acc)
          | exception End_of_file -> List.sort compare acc
        in
        Alcotest.(check (list int)) "both requests answered" [ 1; 2 ]
          (answers []);
        Unix.close fd) ]

(* --- cache unit tests ------------------------------------------------- *)

(* The hit/miss/eviction counters live in the global metrics registry
   and are shared by every cache instance in the process, so these
   tests assert deltas, never absolute values. *)
module Cache = Ps_server.Cache

let cache_tests =
  [ t "two threads racing one key agree on the winning artifact" (fun () ->
        let c = Cache.create ~capacity:8 () in
        let before = Cache.stats c in
        let key = Cache.project_key ~digest:(Cache.digest "race-regression") in
        (* Both builders spin until the other has started, so the build
           window genuinely overlaps: both threads miss, both build, and
           the insert race is decided under the shard lock. *)
        let started = Atomic.make 0 in
        let build tag () =
          Atomic.incr started;
          let rec sync n =
            if Atomic.get started < 2 && n > 0 then begin
              Thread.yield ();
              sync (n - 1)
            end
          in
          sync 100_000;
          Cache.A_emit tag
        in
        let results = Array.make 2 ("", false) in
        let worker i =
          match Cache.find_or_build c key (build (Printf.sprintf "art-%d" i)) with
          | Cache.A_emit s, hit -> results.(i) <- (s, hit)
          | _ -> Alcotest.fail "unexpected artifact kind"
        in
        let ths = List.init 2 (fun i -> Thread.create worker i) in
        List.iter Thread.join ths;
        let a0, _ = results.(0) and a1, _ = results.(1) in
        Alcotest.(check string) "both threads hold the same artifact" a0 a1;
        let after = Cache.stats c in
        Alcotest.(check int) "exactly one miss for the built key" 1
          (after.Cache.st_misses - before.Cache.st_misses);
        Alcotest.(check int) "the loser (or late arrival) counts a hit" 1
          (after.Cache.st_hits - before.Cache.st_hits);
        Alcotest.(check int) "one entry, not two" 1 after.Cache.st_entries);
    t "striped eviction keeps the cache bounded per shard" (fun () ->
        let c = Cache.create ~capacity:8 () in
        let before = Cache.stats c in
        for i = 1 to 64 do
          ignore
            (Cache.find_or_build c
               (Cache.project_key ~digest:(Cache.digest (Printf.sprintf "evict-%d" i)))
               (fun () -> Cache.A_emit (string_of_int i)))
        done;
        let after = Cache.stats c in
        Alcotest.(check bool) "entries bounded by capacity" true
          (after.Cache.st_entries <= 8);
        Alcotest.(check int) "every insert was a miss" 64
          (after.Cache.st_misses - before.Cache.st_misses);
        Alcotest.(check bool) "evictions account for the overflow" true
          (after.Cache.st_evictions - before.Cache.st_evictions >= 56)) ]

(* --- stress: churn, overload shedding, pipelining -------------------- *)

let stress_tests =
  [ t "500 open/close connections leave no residue" (fun () ->
        let pid, path = start_socket_server () in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        for i = 1 to 500 do
          let fd, ic, oc = connect path in
          recv_deadline fd;
          (* Every 50th connection does a real round trip so the churn
             also exercises framing and the response path; the rest
             just connect and hang up. *)
          if i mod 50 = 0 then begin
            let j = parse (ask_fd ic oc (schedule_req ~id:i ())) in
            Alcotest.(check bool) "churn request ok" true (jbool "ok" j)
          end;
          Unix.close fd
        done;
        (* The connection gauge must come back down: the event loop
           reaps closed sockets rather than accreting per-connection
           state (the old transport leaked one thread handle each). *)
        wait_for (fun () -> connections path <= 2) "connection gauge to settle";
        (* And the server still does real work. *)
        let fd, ic, oc = connect path in
        recv_deadline fd;
        let j = parse (ask_fd ic oc (schedule_req ~id:9999 ())) in
        Alcotest.(check bool) "server alive after churn" true (jbool "ok" j);
        Unix.close fd);
    t "flooding past --max-queue sheds E033, answers everything, drops no \
       connection" (fun () ->
        let log_file = Filename.temp_file "psc_access" ".log" in
        let pid, path =
          start_socket_server ~workers:1
            ~extra:[ "--max-queue"; "1"; "--access-log"; log_file ]
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            stop_server pid path;
            try Sys.remove log_file with Sys_error _ -> ())
        @@ fun () ->
        let n = 200 in
        let fd, ic, oc = connect path in
        recv_deadline fd;
        (* One write carrying n unique-source requests: the event
           thread frames and admits them far faster than the single
           worker can drain, so with a queue bound of 1 nearly all of
           them must be shed — and every one must still be answered. *)
        burst oc 0 (n - 1) (fresh_req "flood");
        let seen = Hashtbl.create n in
        let ok = ref 0 and shed = ref 0 in
        for _ = 1 to n do
          let j = parse (input_line ic) in
          (match Json.member "id" j with
          | Some (Json.Num f) -> Hashtbl.replace seen (int_of_float f) ()
          | _ -> Alcotest.fail "flood answer lost its id");
          if jbool "ok" j then incr ok
          else begin
            Alcotest.(check string) "reject code" "E033" (first_code j);
            incr shed
          end
        done;
        Alcotest.(check int) "every request answered exactly once" n
          (Hashtbl.length seen);
        Alcotest.(check bool) "some requests were served" true (!ok >= 1);
        Alcotest.(check bool) "the flood was shed" true (!shed >= 1);
        (* The connection survived the overload: stats flows on the
           same socket (it bypasses the bound) and reports the sheds. *)
        let s = parse (ask_fd ic oc "{\"id\":999,\"op\":\"stats\"}") in
        Alcotest.(check bool) "stats counts the sheds" true
          (jnum "shed" s >= !shed);
        Alcotest.(check int) "queue bound reported" 1 (jnum "queue_max" s);
        Unix.close fd;
        (* The access log saw the rejections too. *)
        wait_for
          (fun () ->
            let lines =
              String.split_on_char '\n' (read_file log_file)
              |> List.filter (fun l -> l <> "")
            in
            List.length lines >= n)
          "access log lines";
        let e033_lines =
          String.split_on_char '\n' (read_file log_file)
          |> List.filter (fun l ->
                 l <> ""
                 && Json.member "error" (parse l) = Some (Json.Str "E033"))
        in
        Alcotest.(check int) "one log line per shed request" !shed
          (List.length e033_lines));
    t "a pipelined burst is answered once per id, order free" (fun () ->
        let pid, path = start_socket_server () in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        let fd, ic, oc = connect path in
        recv_deadline fd;
        (* Warm the cache so the burst is all fast hits. *)
        ignore (ask_fd ic oc (schedule_req ~id:0 ()));
        let n = 8 in
        burst oc 1 n (fun id -> schedule_req ~id ());
        let seen = Hashtbl.create n in
        for _ = 1 to n do
          let j = parse (input_line ic) in
          Alcotest.(check bool) "burst answer ok" true (jbool "ok" j);
          match Json.member "id" j with
          | Some (Json.Num f) -> Hashtbl.replace seen (int_of_float f) ()
          | _ -> Alcotest.fail "burst answer lost its id"
        done;
        for i = 1 to n do
          if not (Hashtbl.mem seen i) then
            Alcotest.failf "id %d was never answered" i
        done;
        Unix.close fd);
    t "malformed lines past a full queue are shed; the event thread lives"
      (fun () ->
        let pid, path =
          start_socket_server ~workers:1 ~extra:[ "--max-queue"; "1" ] ()
        in
        Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
        let fd, ic, oc = connect path in
        recv_deadline fd;
        (* Fresh sources keep the one worker busy, so the malformed
           lines between them mostly meet a full queue: the event
           thread itself reads their correlation fields to shed them. *)
        let n = 100 in
        burst oc 0 (n - 1) (fun i ->
            if i mod 2 = 0 then fresh_req "shed" i
            else Printf.sprintf {|{"id":%d,"op":"schedule","x":-}|} i);
        let codes =
          List.init n (fun _ ->
              let j = parse (input_line ic) in
              if jbool "ok" j then "ok" else first_code j)
        in
        List.iter
          (fun c ->
            if not (List.mem c [ "ok"; "E030"; "E033" ]) then
              Alcotest.failf "unexpected code %s" c)
          codes;
        Alcotest.(check bool) "the flood was shed" true (List.mem "E033" codes);
        Alcotest.(check bool) "the connection is still served" true
          (jbool "ok" (parse (ask_fd ic oc {|{"id":999,"op":"stats"}|})));
        Unix.close fd) ]

(* 1024 connections open at once, each with one request in flight: half
   of them hits on a warm source, half fresh sources.  One client thread
   opens them all, writes every request, then reads every answer. *)
let connections_1024 =
  t "1024 connections at once: no error, no shed, hits hit, misses miss"
    (fun () ->
      let pid, path = start_socket_server ~extra:[ "--max-queue"; "4096" ] () in
      Fun.protect ~finally:(fun () -> stop_server pid path) @@ fun () ->
      (let fd, ic, oc = connect path in
       recv_deadline fd;
       Alcotest.(check bool) "warm-up ok" true
         (jbool "ok" (parse (ask_fd ic oc (schedule_req ~id:0 ()))));
       Unix.close fd);
      let floor = connections path in
      let n = 1024 in
      let t0 = Psc.Metrics.now_ns () in
      let conns =
        Array.init n (fun _ ->
            let fd, ic, oc = connect path in
            recv_deadline fd;
            (fd, ic, oc))
      in
      let t1 = Psc.Metrics.now_ns () in
      Array.iteri
        (fun i (_, _, oc) ->
          output_string oc
            (if i mod 2 = 0 then schedule_req ~id:i () else fresh_req "c1024" i);
          output_char oc '\n';
          flush oc)
        conns;
      let errors = ref 0 and shed = ref 0 and hit_misses = ref 0 and miss_hits = ref 0 in
      Array.iteri
        (fun i (_, ic, _) ->
          let j = parse (input_line ic) in
          if jnum "id" j <> i then
            Alcotest.failf "connection %d was answered for id %d" i (jnum "id" j);
          if not (jbool "ok" j) then
            if first_code j = "E033" then incr shed else incr errors
          else if jbool "cached" j <> (i mod 2 = 0) then
            incr (if i mod 2 = 0 then hit_misses else miss_hits))
        conns;
      let t2 = Psc.Metrics.now_ns () in
      Printf.printf "%d connections: connect %.3f s, answers %.3f s\n" n
        (float_of_int (t1 - t0) /. 1e9)
        (float_of_int (t2 - t1) /. 1e9);
      Alcotest.(check int) "errors" 0 !errors;
      Alcotest.(check int) "E033 answers" 0 !shed;
      Alcotest.(check int) "hits not served from the cache" 0 !hit_misses;
      Alcotest.(check int) "misses served from the cache" 0 !miss_hits;
      let _, ic0, oc0 = conns.(0) in
      Alcotest.(check int) "stats.shed" 0
        (jnum "shed" (parse (ask_fd ic0 oc0 {|{"id":-1,"op":"stats"}|})));
      Array.iter (fun (fd, _, _) -> Unix.close fd) conns;
      wait_for (fun () -> connections path <= floor) "connection gauge to settle")

let () =
  Alcotest.run "server"
    [ ("stdio", stdio_tests @ stdio_pipe_tests);
      ("tune", tune_tests);
      ("obs", obs_tests);
      ("trace", trace_tests);
      ("socket", socket_tests);
      ("cache", cache_tests);
      ("hits", hit_tests);
      ("stress", stress_tests @ transport_tests @ [ connections_1024 ]) ]
