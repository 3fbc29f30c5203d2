(* The compile service: a long-lived `psc serve` process answering
   newline-delimited JSON requests over a Unix-domain socket, or over
   stdin/stdout as the single connection of a server with no listener.

   One event-driven transport serves both: a small fixed pool of event
   threads multiplexes every connection with poll(2) (Evpoll), framing
   request lines and feeding a *bounded* queue drained by a fixed pool
   of worker threads.  When the queue is full the server sheds load —
   the request is answered E033 immediately instead of being buffered
   unboundedly (stats and shutdown bypass the bound: they are cheap,
   and they are how operators observe and stop an overload).  Responses
   are staged in per-connection write buffers flushed by the event
   threads as the descriptors accept them, so one slow reader never
   stalls the loop, and connections are pipelined: multiple requests
   may be in flight per connection, with responses correlated by id
   rather than by order.

   A request never kills the server: malformed JSON, unknown
   operations, compile errors, runtime traps and expired deadlines are
   all answered on the wire (the E03x codes come from the unified
   diagnostics engine).  SIGTERM, a shutdown request, or the end of the
   stdio connection flips the draining flag — lines framed from then on
   get E032, in-flight requests finish and are answered, and every
   service thread is joined before the domain pool is shut down. *)

module Json = Psc.Json

type config = {
  cf_socket : string option;  (* None: serve stdin/stdout, no listener *)
  cf_workers : int;           (* worker threads = concurrent request bound *)
  cf_pool : int;              (* domain pool size; 0 = sequential *)
  cf_cache : int;             (* artifact cache capacity *)
  cf_max_queue : int;         (* bounded request queue; past it, E033 *)
  cf_grace_ms : int;          (* drain: wait this long for clients to leave *)
  cf_access_log : string option;  (* one JSON line per request *)
  cf_slow_ms : int option;    (* capture span subtrees of slower requests *)
  cf_metrics_json : string option;  (* dump the registry on clean shutdown *)
}

(* A captured slow request: enough to name the straggler (id, op, the
   client's trace id) and say where the time went (the span subtree
   recorded on the handling thread, folded to durations). *)
type slow_entry = {
  se_id : string;  (* already-rendered JSON, like rq_id *)
  se_op : string;
  se_trace_id : string option;
  se_total_us : int;
  se_queue_us : int;
  se_spans : (string * float) list;  (* (name, duration_us), begin order *)
}

let slow_capacity = 32

(* ------------------------------------------------------------------ *)
(* The bounded request queue.

   Event threads push framed lines, worker threads pop them; [active]
   counts items popped but not yet answered, so the drain logic can ask
   "is every admitted request finished?" ([idle]) without a separate
   in-flight gauge.  [push] refuses rather than blocks when the
   queue is full — refusal is what becomes an E033 on the wire. *)
module Bq = struct
  type 'a t = {
    items : 'a Queue.t;
    max : int;
    mu : Mutex.t;
    nonempty : Condition.t;
    mutable active : int;
    mutable stopped : bool;
  }

  let create max =
    { items = Queue.create ();
      max;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      active = 0;
      stopped = false }

  (* [~force] pushes past the bound, for the two ops that must survive
     an overload. *)
  let push ?(force = false) q x =
    Mutex.protect q.mu (fun () ->
        if q.stopped || ((not force) && Queue.length q.items >= q.max) then
          false
        else begin
          Queue.push x q.items;
          Condition.signal q.nonempty;
          true
        end)

  let rec pop_unlocked q =
    if not (Queue.is_empty q.items) then begin
      q.active <- q.active + 1;
      Some (Queue.pop q.items)
    end
    else if q.stopped then None
    else begin
      Condition.wait q.nonempty q.mu;
      pop_unlocked q
    end

  let pop q = Mutex.protect q.mu (fun () -> pop_unlocked q)

  let finished q = Mutex.protect q.mu (fun () -> q.active <- q.active - 1)

  let idle q =
    Mutex.protect q.mu (fun () -> Queue.is_empty q.items && q.active = 0)

  let depth q = Mutex.protect q.mu (fun () -> Queue.length q.items)

  let stop q =
    Mutex.protect q.mu (fun () ->
        q.stopped <- true;
        Condition.broadcast q.nonempty)
end

type server = {
  sv_cf : config;
  sv_cache : Cache.t;
  sv_pool : Psc.Pool.t option;
  sv_queue : work Bq.t;
  sv_draining : bool Atomic.t;
  sv_inflight_n : int Atomic.t;
  sv_inflight_peak : int Atomic.t;
  sv_connections : int Atomic.t;
  sv_start_ns : int;
  sv_access : (out_channel * Mutex.t) option;
  sv_slow : slow_entry list ref;  (* most recent first, <= slow_capacity *)
  sv_slow_mu : Mutex.t;
  sv_inflight : Psc.Metrics.gauge;
  sv_requests : Psc.Metrics.counter;
  sv_deadline_trips : Psc.Metrics.counter;
  sv_shed : Psc.Metrics.counter;
  (* Quantile sketches: handler latency per op, end-to-end latency
     (queue wait included) and queue wait across all ops.  Held here as
     well as in the registry so the stats op can enumerate them. *)
  sv_lat_ops : (string * Psc.Metrics.sketch) list;
  sv_lat_all : Psc.Metrics.sketch;
  sv_queue_lat : Psc.Metrics.sketch;
}

(* One admitted request: the connection to answer on, the raw line, and
   when the event thread framed it (so queue wait is measured from
   admission, not from when a worker got around to parsing). *)
and work = {
  wk_conn : conn;
  wk_line : string;
  wk_arrival : int;  (* ns *)
}

(* One client connection, owned by exactly one event thread: an input
   and an output descriptor, both the same socket unless it is stdio.
   All fd I/O happens on the owner; workers only append to [cn_out]
   (under [cn_mu]) and wake it.  [cn_rbuf]/[cn_eof]/[cn_wpend]/[cn_woff]
   are event-thread-private. *)
and conn = {
  cn_rfd : Unix.file_descr;
  cn_wfd : Unix.file_descr;
  cn_mu : Mutex.t;
  cn_out : Buffer.t;         (* responses staged by workers *)
  mutable cn_closed : bool;  (* set under cn_mu; fds closed by the owner *)
  cn_inflight : int Atomic.t;  (* admitted requests not yet answered *)
  cn_rbuf : Buffer.t;        (* partial input line accumulator *)
  mutable cn_eof : bool;     (* the client half-closed: read no more *)
  mutable cn_wpend : string; (* in-progress write chunk *)
  mutable cn_woff : int;
  cn_wake : unit -> unit;    (* wake the owning event thread *)
}

let all_ops =
  [ Proto.Compile; Proto.Schedule; Proto.Run; Proto.Emit_c; Proto.Lint;
    Proto.Tune; Proto.Stats; Proto.Shutdown ]

let make_server cf =
  { sv_cf = cf;
    sv_cache = Cache.create ~capacity:cf.cf_cache ();
    sv_pool = (if cf.cf_pool > 0 then Some (Psc.Pool.create cf.cf_pool) else None);
    sv_queue = Bq.create (max 1 cf.cf_max_queue);
    sv_draining = Atomic.make false;
    sv_inflight_n = Atomic.make 0;
    sv_inflight_peak = Atomic.make 0;
    sv_connections = Atomic.make 0;
    sv_start_ns = Psc.Metrics.now_ns ();
    sv_access =
      (match cf.cf_access_log with
       | None -> None
       | Some path -> Some (open_out path, Mutex.create ()));
    sv_slow = ref [];
    sv_slow_mu = Mutex.create ();
    sv_inflight = Psc.Metrics.gauge "server.inflight";
    sv_requests = Psc.Metrics.counter "server.requests";
    sv_deadline_trips = Psc.Metrics.counter "server.deadline.trips";
    sv_shed = Psc.Metrics.counter "server.shed";
    sv_lat_ops =
      List.map
        (fun op ->
          let n = Proto.op_name op in
          (n, Psc.Metrics.sketch ("server.latency_ns." ^ n)))
        all_ops;
    sv_lat_all = Psc.Metrics.sketch "server.latency_ns.all";
    sv_queue_lat = Psc.Metrics.sketch "server.queue_ns" }

let rec update_peak a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then update_peak a v

(* ------------------------------------------------------------------ *)
(* Deadlines: cooperative checks between pipeline stages.  A request
   whose deadline expires is answered with E031; the stage that was
   running when the clock ran out completes normally. *)

exception Deadline

let deadline_of (rq : Proto.request) =
  match rq.Proto.rq_deadline_ms with
  | None -> None
  | Some ms -> Some (Psc.Metrics.now_ns () + (ms * 1_000_000))

let check_deadline = function
  | Some t when Psc.Metrics.now_ns () >= t -> raise Deadline
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pipeline stages through the artifact cache *)

(* Facts about one request gathered on the way through dispatch, for
   the access log: whether the primary artifact came from the cache,
   the source digest, and the error code of a failed answer. *)
type req_info = {
  mutable ri_cached : bool;
  mutable ri_digest : string option;
  mutable ri_error : string option;
}

let fresh_info () = { ri_cached = false; ri_digest = None; ri_error = None }

(* A request's source text and its digest, which is hashed once: every
   cache key of the request and its access-log line share it. *)
type source = { text : string; digest : string }

let request_source info (rq : Proto.request) =
  let text =
    match rq.Proto.rq_source with
    | None -> Psc.error "missing required field: source (or source_file)"
    | Some (Proto.Inline s) -> s
    | Some (Proto.From_file f) -> (
      try
        let ic = open_in_bin f in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      with Sys_error m -> Psc.error "cannot read source_file: %s" m)
  in
  let digest = Cache.digest text in
  info.ri_digest <- Some digest;
  { text; digest }

let project sv ~deadline src =
  check_deadline deadline;
  match
    Cache.find_or_build sv.sv_cache (Cache.project_key ~digest:src.digest)
      (fun () -> Cache.A_project (Psc.load_string src.text))
  with
  | Cache.A_project t, hit -> (t, hit)
  | _ -> assert false

(* An artifact built from the request's project.  Its own key is looked
   up first, so a hit costs one lookup; the project is fetched, or
   built, only when the artifact must be. *)
let from_project sv ~deadline src key build =
  check_deadline deadline;
  Cache.find_or_build sv.sv_cache key (fun () ->
      let t, _ = project sv ~deadline src in
      check_deadline deadline;
      build t)

let windows_json (sc : Psc.scheduled) =
  Json.arr
    (List.map
       (fun (w : Psc.Schedule.window) ->
         Json.obj
           [ ("data", Json.str w.Psc.Schedule.w_data);
             ("dim", Json.int w.Psc.Schedule.w_dim);
             ("window", Json.int w.Psc.Schedule.w_size) ])
       sc.Psc.sc_windows)

let scheduled sv ~deadline src (rq : Proto.request) =
  let f = rq.Proto.rq_flags in
  let key = Cache.schedule_key ~digest:src.digest ~module_:rq.Proto.rq_module ~flags:f in
  match
    from_project sv ~deadline src key (fun t ->
        let em = Psc.the_module ?name:rq.Proto.rq_module t in
        let sc =
          Psc.schedule ~sink:f.Psc.Exec.sf_sink ~fuse:f.Psc.Exec.sf_fuse
            ~trim:f.Psc.Exec.sf_trim ~collapse:f.Psc.Exec.sf_collapse em
        in
        Cache.A_sched
          { Cache.sa_project = t;
            sa_sched = sc;
            sa_fields =
              [ ("flowchart", Json.str (Psc.flowchart_string sc));
                ("windows", windows_json sc);
                ("merged", Json.int sc.Psc.sc_merged);
                ("trimmed", Json.int sc.Psc.sc_trimmed);
                ("collapsed", Json.int sc.Psc.sc_collapsed) ] })
  with
  | Cache.A_sched a, hit -> (a, hit)
  | _ -> assert false

let emitted sv ~deadline src (rq : Proto.request) =
  let main = if rq.Proto.rq_main then Some rq.Proto.rq_scalars else None in
  let key =
    Cache.emit_key ~digest:src.digest ~module_:rq.Proto.rq_module
      ~flags:rq.Proto.rq_flags ~main
  in
  match
    from_project sv ~deadline src key (fun t ->
        let f = rq.Proto.rq_flags in
        let sink = f.Psc.Exec.sf_sink and fuse = f.Psc.Exec.sf_fuse in
        let trim = f.Psc.Exec.sf_trim and collapse = f.Psc.Exec.sf_collapse in
        Cache.A_emit
          (Json.str
             (match main with
              | Some scalars ->
                Psc.emit_c_main ?name:rq.Proto.rq_module ~sink ~fuse ~trim
                  ~collapse ~scalars t
              | None ->
                Psc.emit_c ?name:rq.Proto.rq_module ~sink ~fuse ~trim ~collapse t)))
  with
  | Cache.A_emit c, hit -> (c, hit)
  | _ -> assert false

let policy_key src (rq : Proto.request) ~host_cores =
  Cache.policy_key ~digest:src.digest ~module_:rq.Proto.rq_module
    ~flags:rq.Proto.rq_flags ~host_cores

(* Tuned policy tables are measured once per (source, module, flags,
   host core count) and then served from the artifact cache like any
   other build product.  [Run] only *peeks*: absence of a table is not
   a miss, it just means the static model (or nothing) steers the
   nests. *)
let tuned sv ~deadline src (rq : Proto.request) =
  let host_cores = Psc.Pool.recommended_size () in
  match
    from_project sv ~deadline src (policy_key src rq ~host_cores) (fun t ->
        let f = rq.Proto.rq_flags in
        let em = Psc.the_module ?name:rq.Proto.rq_module t in
        let inputs =
          Psc.default_inputs em ~scalars:rq.Proto.rq_scalars
        in
        Cache.A_policy
          (Psc.tune ?name:rq.Proto.rq_module ~sink:f.Psc.Exec.sf_sink
             ~fuse:f.Psc.Exec.sf_fuse ~trim:f.Psc.Exec.sf_trim
             ~cores:host_cores t ~inputs ~env:rq.Proto.rq_scalars))
  with
  | Cache.A_policy tp, hit -> (tp, hit)
  | _ -> assert false

let cached_policy sv src (rq : Proto.request) =
  let host_cores = Psc.Pool.recommended_size () in
  match Cache.peek sv.sv_cache (policy_key src rq ~host_cores) with
  | Some (Cache.A_policy tp) ->
    if Psc.Policy.stale tp ~host_cores then None else Some tp
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Operations *)

let diag_response ~id code msg =
  Proto.error_response ~id
    [ Psc.Diag.diag code Ps_lang.Loc.dummy "%s" msg ]

let quantiles_json q =
  let s = Psc.Metrics.sk_quantiles q in
  Json.obj
    [ ("count", Json.int s.Psc.Metrics.qs_count);
      ("p50", Json.int s.Psc.Metrics.qs_p50);
      ("p90", Json.int s.Psc.Metrics.qs_p90);
      ("p99", Json.int s.Psc.Metrics.qs_p99);
      ("max", Json.int s.Psc.Metrics.qs_max) ]

let slow_json (e : slow_entry) =
  Json.obj
    ([ ("id", e.se_id); ("op", Json.str e.se_op) ]
    @ Json.opt "trace_id" Json.str e.se_trace_id
    @ [ ("total_us", Json.int e.se_total_us);
        ("queue_us", Json.int e.se_queue_us);
        ("spans",
         Json.arr
           (List.map
              (fun (n, us) ->
                Json.obj
                  [ ("name", Json.str n);
                    ("us", Printf.sprintf "%.1f" us) ])
              e.se_spans)) ])

let dispatch sv ~deadline ~info (rq : Proto.request) : string =
  let id = rq.Proto.rq_id in
  match rq.Proto.rq_op with
  | Proto.Compile ->
    let src = request_source info rq in
    let t, hit = project sv ~deadline src in
    info.ri_cached <- hit;
    Proto.ok_response ~id ~cached:hit
      [ ("modules", Json.arr (List.map Json.str (Psc.modules t)));
        ("warnings", Json.int (List.length (Psc.warnings t))) ]
  | Proto.Schedule ->
    let src = request_source info rq in
    let a, hit = scheduled sv ~deadline src rq in
    info.ri_cached <- hit;
    Proto.ok_response ~id ~cached:hit a.Cache.sa_fields
  | Proto.Run ->
    let src = request_source info rq in
    let a, hit = scheduled sv ~deadline src rq in
    info.ri_cached <- hit;
    check_deadline deadline;
    let t = a.Cache.sa_project and sc = a.Cache.sa_sched in
    let em = sc.Psc.sc_module in
    let inputs = Psc.default_inputs em ~scalars:rq.Proto.rq_scalars in
    (* A tuned policy table cached by a prior [tune] of the same
       (source, module, flags) steers this run's nests; its absence is
       not a miss.  The staleness guard is belt-and-braces — the cache
       key already pins the core count. *)
    let policy = cached_policy sv src rq in
    let opts =
      { Psc.Exec.default_opts with
        pool = sv.sv_pool;
        sched_flags = rq.Proto.rq_flags;
        policy }
    in
    let r =
      Psc.wrap (fun () ->
          Psc.Exec.run ~opts ~flowchart:sc.Psc.sc_flowchart
            ~windows:sc.Psc.sc_windows ~prog:t.Psc.prog em ~inputs)
    in
    Proto.ok_response ~id ~cached:hit
      ([ ("outputs", Json.arr (List.map Proto.output_json r.Psc.Exec.outputs));
         ("allocated",
          Json.obj
            (List.map
               (fun (n, w) -> (n, Json.int w))
               r.Psc.Exec.allocated)) ]
      @ Json.opt "policy" (fun tp -> Json.str (Psc.Policy.table_summary tp)) policy)
  | Proto.Emit_c ->
    let src = request_source info rq in
    let c, hit = emitted sv ~deadline src rq in
    info.ri_cached <- hit;
    Proto.ok_response ~id ~cached:hit [ ("c", c) ]
  | Proto.Lint ->
    let src = request_source info rq in
    check_deadline deadline;
    (* Lenient load: single-assignment errors become diagnostics in the
       answer rather than a failed request. *)
    let t = Psc.load_string_lenient src.text in
    let diags = Psc.lint t in
    Proto.ok_response ~id ~cached:false
      [ ("diagnostics", Psc.Diag.render Psc.Diag.Json diags);
        ("summary", Json.str (Psc.Diag.summary diags)) ]
  | Proto.Tune ->
    let src = request_source info rq in
    let tp, hit = tuned sv ~deadline src rq in
    info.ri_cached <- hit;
    Proto.ok_response ~id ~cached:hit
      [ ("policy", Psc.Policy.to_json tp);
        ("summary", Json.str (Psc.Policy.table_summary tp)) ]
  | Proto.Stats ->
    let s = Cache.stats sv.sv_cache in
    let slow = Mutex.protect sv.sv_slow_mu (fun () -> !(sv.sv_slow)) in
    Proto.ok_response ~id ~cached:false
      [ ("cache",
         Json.obj
           [ ("entries", Json.int s.Cache.st_entries);
             ("shards", Json.int Cache.shards);
             ("hits", Json.int s.Cache.st_hits);
             ("misses", Json.int s.Cache.st_misses);
             ("evictions", Json.int s.Cache.st_evictions) ]);
        ("inflight", Json.int (Atomic.get sv.sv_inflight_n));
        ("inflight_peak", Json.int (Atomic.get sv.sv_inflight_peak));
        ("connections", Json.int (Atomic.get sv.sv_connections));
        ("queue_depth", Json.int (Bq.depth sv.sv_queue));
        ("queue_max", Json.int sv.sv_queue.Bq.max);
        ("shed", Json.int (Psc.Metrics.counter_value sv.sv_shed));
        ("uptime_ms",
         Json.int ((Psc.Metrics.now_ns () - sv.sv_start_ns) / 1_000_000));
        ("latency_ns",
         Json.obj
           (("all", quantiles_json sv.sv_lat_all)
            :: ("queue", quantiles_json sv.sv_queue_lat)
            :: List.map (fun (n, q) -> (n, quantiles_json q)) sv.sv_lat_ops));
        ("slow", Json.arr (List.rev_map slow_json slow));
        ("metrics", Psc.Metrics.render_json ()) ]
  | Proto.Shutdown ->
    Atomic.set sv.sv_draining true;
    Proto.ok_response ~id ~cached:false [ ("draining", Json.bool true) ]

(* Every error a request can produce, mapped to one answer line (the
   access log sees the same classification through [info.ri_error]): an
   expired deadline, a pipeline error, which [Psc.wrap] has already
   turned into one [Psc.Error], or any other exception, answered under
   the request's own id so that a request never takes the service
   down. *)
let answer sv ~deadline ~info (rq : Proto.request) : string =
  let id = rq.Proto.rq_id in
  try dispatch sv ~deadline ~info rq with
  | Deadline ->
    Psc.Metrics.incr sv.sv_deadline_trips;
    info.ri_error <- Some "E031";
    diag_response ~id Psc.Diag.Deadline_exceeded
      (Printf.sprintf "deadline of %d ms expired"
         (Option.value rq.Proto.rq_deadline_ms ~default:0))
  | Psc.Error m ->
    info.ri_error <- Some "error";
    Proto.error_message ~id m
  | e ->
    info.ri_error <- Some "internal";
    Proto.error_message ~id ("internal error: " ^ Printexc.to_string e)

(* One JSON line per request — including rejects, which log with zeroed
   timings.  The channel mutex keeps concurrent connection threads'
   lines whole. *)
let log_access sv ~id ~op ~trace_id ~(info : req_info) ~queue_ns ~handler_ns
    ~total_ns ~bytes ~deadline_margin_us =
  match sv.sv_access with
  | None -> ()
  | Some (oc, mu) ->
    let line =
      Json.obj
        ([ ("ts_us",
            Printf.sprintf "%.0f" (Unix.gettimeofday () *. 1e6));
           ("id", id);
           ("op", Json.str op) ]
        @ Json.opt "trace_id" Json.str trace_id
        @ Json.opt "digest" Json.str info.ri_digest
        @ [ ("cached", Json.bool info.ri_cached);
            ("queue_us", Json.int (queue_ns / 1000));
            ("handler_us", Json.int (handler_ns / 1000));
            ("total_us", Json.int (total_ns / 1000));
            ("bytes", Json.int bytes) ]
        @ Json.opt "deadline_margin_us" Json.int deadline_margin_us
        @ Json.opt "error" Json.str info.ri_error
        @ [ ("ok", Json.bool (info.ri_error = None)) ])
    in
    Mutex.protect mu (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)

let push_slow sv e =
  Mutex.protect sv.sv_slow_mu (fun () ->
      let keep =
        if List.length !(sv.sv_slow) >= slow_capacity then
          List.filteri (fun i _ -> i < slow_capacity - 1) !(sv.sv_slow)
        else !(sv.sv_slow)
      in
      sv.sv_slow := e :: keep)

(* The answer to a rejected line (E030, E032, E033): a diagnostic
   correlated by the client's id and trace context, counted, and logged
   with zeroed timings. *)
let reject sv (id, op, trace_id) code msg =
  Psc.Metrics.incr sv.sv_requests;
  let resp = Proto.with_trace_id ~trace_id (diag_response ~id code msg) in
  let info = fresh_info () in
  info.ri_error <- Some (Psc.Diag.code_id code);
  log_access sv ~id ~op ~trace_id ~info ~queue_ns:0 ~handler_ns:0 ~total_ns:0
    ~bytes:(String.length resp) ~deadline_margin_us:None;
  resp

(* Handle one request line: parse, time the answer (queue wait and
   handler time separately), feed the latency sketches and the access
   log, capture slow span subtrees, and stamp the client's trace
   context on the reply.  Draining and overload are refused before a
   line is queued ([admit]), so only a parse failure is rejected here.
   Concurrency needs no gate: only the [cf_workers] worker threads ever
   call this.  [arrival_ns] is when the event thread framed the line,
   so queue_ns measures real queue wait. *)
let handle_line sv ~arrival_ns (line : string) : string =
  match Proto.parse_request line with
  | Error (id, msg) -> reject sv (id, "invalid", None) Psc.Diag.Bad_request msg
  | Ok rq ->
    Psc.Metrics.incr sv.sv_requests;
    let id = rq.Proto.rq_id in
    let op = Proto.op_name rq.Proto.rq_op in
    let trace_id = rq.Proto.rq_trace_id in
    let deadline = deadline_of rq in
    let info = fresh_info () in
    let t_start = Psc.Metrics.now_ns () in
    let n = Atomic.fetch_and_add sv.sv_inflight_n 1 + 1 in
    update_peak sv.sv_inflight_peak n;
    Psc.Metrics.set sv.sv_inflight (Atomic.get sv.sv_inflight_n);
    let finally () =
      ignore (Atomic.fetch_and_add sv.sv_inflight_n (-1));
      Psc.Metrics.set sv.sv_inflight (Atomic.get sv.sv_inflight_n)
    in
    Fun.protect ~finally (fun () ->
        let run_answer () =
          let span_args =
            [ ("op", op); ("sid", Psc.Trace.fresh_span_id ()) ]
            @ (match trace_id with
               | Some t -> [ ("trace_id", t) ]
               | None -> [])
            @ (match rq.Proto.rq_parent_span with
               | Some p -> [ ("parent", p) ]
               | None -> [])
          in
          Psc.Trace.with_span "request" ~args:span_args (fun () ->
              answer sv ~deadline ~info rq)
        in
        let resp, spans =
          (* [collect] flips the global not-off switch, so only pay
             for it when slow-capture is on. *)
          match sv.sv_cf.cf_slow_ms with
          | None -> (run_answer (), [])
          | Some _ -> Psc.Trace.collect run_answer
        in
        let resp = Proto.with_trace_id ~trace_id resp in
        let t_end = Psc.Metrics.now_ns () in
        let queue_ns = t_start - arrival_ns in
        let handler_ns = t_end - t_start in
        let total_ns = t_end - arrival_ns in
        (match List.assoc_opt op sv.sv_lat_ops with
         | Some q -> Psc.Metrics.sk_observe q handler_ns
         | None -> ());
        Psc.Metrics.sk_observe sv.sv_lat_all total_ns;
        Psc.Metrics.sk_observe sv.sv_queue_lat queue_ns;
        (match sv.sv_cf.cf_slow_ms with
         | Some thresh when total_ns >= thresh * 1_000_000 ->
           push_slow sv
             { se_id = id;
               se_op = op;
               se_trace_id = trace_id;
               se_total_us = total_ns / 1000;
               se_queue_us = queue_ns / 1000;
               se_spans = Psc.Trace.span_durations spans }
         | _ -> ());
        log_access sv ~id ~op ~trace_id ~info ~queue_ns ~handler_ns ~total_ns
          ~bytes:(String.length resp)
          ~deadline_margin_us:
            (Option.map (fun d -> (d - t_end) / 1000) deadline);
        resp)

(* ------------------------------------------------------------------ *)
(* The transport: event threads + bounded queue + workers. *)

(* An event thread: owns a subset of the connections, multiplexed with
   poll(2).  The self-pipe is its doorbell — workers ring it after
   staging a response, the accept loop after assigning a connection.
   [ev_wake_flag] coalesces rings so the pipe never fills. *)
type ev = {
  ev_wake_r : Unix.file_descr;
  ev_wake_w : Unix.file_descr;
  ev_wake_flag : bool Atomic.t;
  ev_incoming : (Unix.file_descr * Unix.file_descr) Queue.t;
      (* (input, output) pairs assigned, not yet adopted *)
  ev_inc_mu : Mutex.t;
  mutable ev_conns : conn list;  (* owned by this thread only *)
  ev_scratch : Bytes.t;          (* read buffer, thread-private *)
}

let make_ev () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { ev_wake_r = r;
    ev_wake_w = w;
    ev_wake_flag = Atomic.make false;
    ev_incoming = Queue.create ();
    ev_inc_mu = Mutex.create ();
    ev_conns = [];
    ev_scratch = Bytes.create 65536 }

let wake_byte = Bytes.make 1 '!'

let ev_wake ev =
  if Atomic.compare_and_set ev.ev_wake_flag false true then
    try ignore (Unix.write ev.ev_wake_w wake_byte 0 1)
    with Unix.Unix_error _ -> ()

let assign sv ev (rfd, wfd) =
  Unix.set_nonblock rfd;
  Unix.set_nonblock wfd;
  ignore (Atomic.fetch_and_add sv.sv_connections 1);
  Mutex.protect ev.ev_inc_mu (fun () -> Queue.push (rfd, wfd) ev.ev_incoming);
  ev_wake ev

let close_fds (rfd, wfd) =
  (try Unix.close rfd with Unix.Unix_error _ -> ());
  if wfd <> rfd then try Unix.close wfd with Unix.Unix_error _ -> ()

let conn_closed c = Mutex.protect c.cn_mu (fun () -> c.cn_closed)

(* With no listener nothing can connect again, so the close of the last
   connection drains the server. *)
let close_conn sv c =
  let fresh =
    Mutex.protect c.cn_mu (fun () ->
        if c.cn_closed then false
        else begin
          c.cn_closed <- true;
          true
        end)
  in
  if fresh then begin
    close_fds (c.cn_rfd, c.cn_wfd);
    if
      Atomic.fetch_and_add sv.sv_connections (-1) = 1
      && sv.sv_cf.cf_socket = None
    then Atomic.set sv.sv_draining true
  end

(* Stage a response on the connection's write buffer and ring the
   owner's doorbell.  Responses for a connection that closed while its
   request was in flight are dropped — there is nobody to read them. *)
let conn_send c resp =
  let staged =
    Mutex.protect c.cn_mu (fun () ->
        if c.cn_closed then false
        else begin
          Buffer.add_string c.cn_out resp;
          Buffer.add_char c.cn_out '\n';
          true
        end)
  in
  if staged then c.cn_wake ()

let conn_pending c =
  c.cn_woff < String.length c.cn_wpend
  || Mutex.protect c.cn_mu (fun () -> Buffer.length c.cn_out > 0)

(* Flush as much staged output as the descriptor accepts right now.
   The in-progress chunk is event-thread-private, so a partial write
   picks up exactly where it left off; workers keep staging into
   [cn_out] meanwhile without blocking on the descriptor. *)
let conn_flush sv c =
  if c.cn_woff >= String.length c.cn_wpend then begin
    let chunk =
      Mutex.protect c.cn_mu (fun () ->
          if Buffer.length c.cn_out = 0 then ""
          else begin
            let s = Buffer.contents c.cn_out in
            Buffer.clear c.cn_out;
            s
          end)
    in
    c.cn_wpend <- chunk;
    c.cn_woff <- 0
  end;
  let len = String.length c.cn_wpend - c.cn_woff in
  if len > 0 then
    match Unix.write_substring c.cn_wfd c.cn_wpend c.cn_woff len with
    | n -> c.cn_woff <- c.cn_woff + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn sv c

(* Admit one framed line, in stream order, or refuse it at once: E032
   once the server drains, so every line framed before a shutdown is
   answered however the workers interleave, and E033 past the queue
   bound.  Stats (how operators see an overload) and shutdown (how they
   stop it) are cheap and bypass both refusals. *)
let admit sv c line =
  let line = String.trim line in
  if line <> "" then begin
    let fields = lazy (Proto.reject_fields line) in
    let exempt () =
      let _, op, _ = Lazy.force fields in
      op = "stats" || op = "shutdown"
    in
    if Atomic.get sv.sv_draining && not (exempt ()) then
      conn_send c
        (reject sv (Lazy.force fields) Psc.Diag.Server_draining
           "server is draining; request rejected")
    else begin
      let wk =
        { wk_conn = c; wk_line = line; wk_arrival = Psc.Metrics.now_ns () }
      in
      Atomic.incr c.cn_inflight;
      if
        not
          (Bq.push sv.sv_queue wk
          || (exempt () && Bq.push ~force:true sv.sv_queue wk))
      then begin
        Atomic.decr c.cn_inflight;
        Psc.Metrics.incr sv.sv_shed;
        conn_send c
          (reject sv (Lazy.force fields) Psc.Diag.Server_overloaded
             (Printf.sprintf "server overloaded: request queue (max %d) is full"
                sv.sv_queue.Bq.max))
      end
    end
  end

(* Read whatever the descriptor has and admit each line it completes,
   searching only the new bytes for '\n' and copying out only complete
   lines, so framing is linear in the line length however it is split.
   One read per readiness report keeps a flooding client from starving
   its neighbours; poll is level triggered, so leftover bytes re-report
   immediately.  End of input is the client half-closing: a final
   unterminated line is admitted, and the connection stays open until
   its admitted requests are answered and flushed. *)
let conn_read sv ev c =
  let buf = ev.ev_scratch in
  match Unix.read c.cn_rfd buf 0 (Bytes.length buf) with
  | 0 ->
    c.cn_eof <- true;
    let last = Buffer.contents c.cn_rbuf in
    Buffer.clear c.cn_rbuf;
    admit sv c last
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get buf i = '\n' then begin
        let line =
          if Buffer.length c.cn_rbuf = 0 then
            Bytes.sub_string buf !start (i - !start)
          else begin
            Buffer.add_subbytes c.cn_rbuf buf !start (i - !start);
            let s = Buffer.contents c.cn_rbuf in
            Buffer.reset c.cn_rbuf;
            s
          end
        in
        start := i + 1;
        admit sv c line
      end
    done;
    Buffer.add_subbytes c.cn_rbuf buf !start (n - !start)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn sv c

let drain_wake_pipe ev =
  Atomic.set ev.ev_wake_flag false;
  let rec go () =
    match Unix.read ev.ev_wake_r ev.ev_scratch 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* The event loop.  Draining protocol: once the flag is up, keep
   serving — queued requests are answered (E032 for new work), write
   buffers flush — and exit when every owned connection is gone, or
   when the grace period has passed with the queue idle and all output
   flushed (then lingering connections are closed).  Every admitted
   request is answered before its connection is torn down. *)
let ev_loop sv cf ev () =
  let grace_deadline = ref None in
  let running = ref true in
  while !running do
    (* Adopt connections assigned to this thread. *)
    let adopted =
      Mutex.protect ev.ev_inc_mu (fun () ->
          let xs = List.of_seq (Queue.to_seq ev.ev_incoming) in
          Queue.clear ev.ev_incoming;
          xs)
    in
    List.iter
      (fun (rfd, wfd) ->
        let c =
          { cn_rfd = rfd;
            cn_wfd = wfd;
            cn_mu = Mutex.create ();
            cn_out = Buffer.create 256;
            cn_closed = false;
            cn_inflight = Atomic.make 0;
            cn_rbuf = Buffer.create 256;
            cn_eof = false;
            cn_wpend = "";
            cn_woff = 0;
            cn_wake = (fun () -> ev_wake ev) }
        in
        ev.ev_conns <- c :: ev.ev_conns)
      adopted;
    ev.ev_conns <- List.filter (fun c -> not (conn_closed c)) ev.ev_conns;
    let draining = Atomic.get sv.sv_draining in
    if draining && !grace_deadline = None then
      grace_deadline :=
        Some (Psc.Metrics.now_ns () + (cf.cf_grace_ms * 1_000_000));
    let past_grace =
      match !grace_deadline with
      | Some d -> Psc.Metrics.now_ns () >= d
      | None -> false
    in
    let no_incoming =
      Mutex.protect ev.ev_inc_mu (fun () -> Queue.is_empty ev.ev_incoming)
    in
    let work_done =
      Bq.idle sv.sv_queue
      && List.for_all (fun c -> not (conn_pending c)) ev.ev_conns
    in
    if draining && no_incoming && (ev.ev_conns = [] || (past_grace && work_done))
    then begin
      List.iter (close_conn sv) ev.ev_conns;
      ev.ev_conns <- [];
      running := false
    end
    else begin
      let conns = Array.of_list ev.ev_conns in
      (* One poll entry per open input and one per output with bytes
         pending (a socket with both appears twice).  A half-closed
         input is not watched: a hangup it keeps reporting would spin
         the loop, and the worker answering it rings the doorbell
         anyway. *)
      let watched =
        Array.of_list
          (List.concat_map
             (fun c ->
               (if c.cn_eof then [] else [ (c, true) ])
               @ if conn_pending c then [ (c, false) ] else [])
             ev.ev_conns)
      in
      let spec =
        Array.init
          (Array.length watched + 1)
          (fun i ->
            if i = 0 then
              (ev.ev_wake_r, Evpoll.{ want_read = true; want_write = false })
            else
              let c, input = watched.(i - 1) in
              ( (if input then c.cn_rfd else c.cn_wfd),
                Evpoll.{ want_read = input; want_write = not input } ))
      in
      let ready = Evpoll.poll spec ~timeout_ms:100 in
      drain_wake_pipe ev;
      List.iter
        (fun (i, (r : Evpoll.ready)) ->
          if i > 0 then begin
            let c, input = watched.(i - 1) in
            if
              input
              && (r.Evpoll.readable || r.Evpoll.errored)
              && not (conn_closed c)
            then conn_read sv ev c
          end)
        ready;
      (* Opportunistic flush of everything pending, not just what
         polled writable: a response staged during the poll is usually
         writable immediately, and a failed attempt just EAGAINs. *)
      Array.iter
        (fun c ->
          if not (conn_closed c) && conn_pending c then conn_flush sv c;
          if c.cn_eof && Atomic.get c.cn_inflight = 0 && not (conn_pending c)
          then close_conn sv c)
        conns
    end
  done

(* Workers: pop, answer, stage the response on the connection.
   [answer] turns every exception a request raises into its reply. *)
let worker_loop sv () =
  let running = ref true in
  while !running do
    match Bq.pop sv.sv_queue with
    | None -> running := false
    | Some wk ->
      conn_send wk.wk_conn (handle_line sv ~arrival_ns:wk.wk_arrival wk.wk_line);
      (* Answered (staged) before it leaves the in-flight count that a
         half-closed connection waits on; the owner re-checks after. *)
      Atomic.decr wk.wk_conn.cn_inflight;
      wk.wk_conn.cn_wake ();
      Bq.finished sv.sv_queue
  done

(* The one serve routine.  With a socket path the serving thread
   accepts clients (polling the listener with a timeout, so a drain is
   noticed promptly) and deals them round-robin to the event threads;
   without one, stdin/stdout is the single connection, duplicated so
   that closing it never frees descriptors 0 and 1 for reuse, and
   before anything else is opened, so a closed stdin fails here instead
   of aliasing one of the server's own descriptors.  On drain: stop
   listening, then join every event thread, stop the queue, and join
   every worker — only after all of them are gone does [main] shut the
   domain pool down, so no request can race a dying pool. *)
let serve sv cf =
  let stdio =
    if cf.cf_socket <> None then None
    else
      let rfd = Unix.dup Unix.stdin in
      Some (rfd, Unix.dup Unix.stdout)
  in
  let listener =
    Option.map
      (fun path ->
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lfd (Unix.ADDR_UNIX path);
        (* Deep backlog: a client may open hundreds of connections at
           once (the 1024-connection stress case does), and a refused
           connect at that moment is a test artifact, not a server
           property. *)
        Unix.listen lfd 512;
        Unix.set_nonblock lfd;
        (lfd, path))
      cf.cf_socket
  in
  let n_ev =
    if listener = None then 1
    else max 1 (min 4 (Psc.Pool.recommended_size () / 2))
  in
  let evs = Array.init n_ev (fun _ -> make_ev ()) in
  let ev_threads =
    Array.map (fun ev -> Thread.create (ev_loop sv cf ev) ()) evs
  in
  let workers =
    Array.init (max 1 cf.cf_workers) (fun _ ->
        Thread.create (worker_loop sv) ())
  in
  Option.iter (assign sv evs.(0)) stdio;
  (match listener with
   | None -> ()
   | Some (lfd, path) ->
     let rr = ref 0 in
     while not (Atomic.get sv.sv_draining) do
       match
         Evpoll.poll
           [| (lfd, Evpoll.{ want_read = true; want_write = false }) |]
           ~timeout_ms:100
       with
       | [] -> ()
       | _ :: _ ->
         let accepting = ref true in
         while !accepting do
           match Unix.accept lfd with
           | fd, _ ->
             assign sv evs.(!rr mod n_ev) (fd, fd);
             incr rr
           | exception Unix.Unix_error _ -> accepting := false
         done
     done;
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  (* Drain: event threads finish answering and flushing (bounded by the
     grace period), then the workers run the queue dry and exit.  Join
     them all — unconditionally — before returning to [main]'s pool
     shutdown. *)
  Array.iter Thread.join ev_threads;
  Bq.stop sv.sv_queue;
  Array.iter Thread.join workers;
  Array.iter
    (fun ev ->
      (* Connections accepted but never adopted (the assignment raced
         the drain): close them now so nothing leaks. *)
      Mutex.protect ev.ev_inc_mu (fun () ->
          Queue.iter close_fds ev.ev_incoming;
          Queue.clear ev.ev_incoming);
      (try Unix.close ev.ev_wake_r with Unix.Unix_error _ -> ());
      try Unix.close ev.ev_wake_w with Unix.Unix_error _ -> ())
    evs;
  (* Descriptors 0 and 1 may be a terminal shared with the parent
     shell: give them back blocking. *)
  if stdio <> None then
    List.iter
      (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
      [ Unix.stdin; Unix.stdout ]

let main cf =
  Psc.Metrics.set_enabled true;
  let sv = make_server cf in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Atomic.set sv.sv_draining true));
  (* A client vanishing mid-response must not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      (* By the time we get here every event and worker thread has been
         joined ([serve]), so the pool has no remaining users. *)
      (match sv.sv_pool with Some p -> Psc.Pool.shutdown p | None -> ());
      (match sv.sv_access with
       | Some (oc, mu) -> Mutex.protect mu (fun () -> close_out_noerr oc)
       | None -> ());
      (* The registry dump happens after the drain, so a SIGTERM'd
         server still leaves its final counters behind. *)
      match cf.cf_metrics_json with
      | Some path ->
        let oc = open_out path in
        output_string oc (Psc.Metrics.render_json ());
        output_char oc '\n';
        close_out oc
      | None -> ())
    (fun () -> serve sv cf)
