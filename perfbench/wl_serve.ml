(* The `serve` workload: a spawned `psc serve --socket` driven in a
   closed loop.  One client thread holds [nproc] connections and keeps
   [window] requests in flight on each (pipelining), so the server
   never idles and the numbers measure its CPU path, not thread
   wake-ups.  The seed draws every request from three classes:

   - hit: `schedule` or `emit-c` of one of [ws_size] working-set
     sources, salted so that each lands in its own cache shard and the
     set fits the default cache — transport, Proto parse/render,
     digest, cache hit;
   - run: `run` of a paper kernel (fig6, h3, lcs) at small sizes —
     Exec plus rendering the result as JSON;
   - miss: `schedule` of a working-set source with a fresh trailing
     comment, so a fresh digest — front end plus cache insert and
     evict.

   The server runs with --workers = nproc and every other flag at its
   default. *)

open Pb
module Rng = Ps_fuzz.Gen.Rng
module Proto = Ps_server.Proto
module Json = Psc.Trace.Json

(* Requests in flight per connection.  With 4, throughput on a 2-vCPU
   host whose neighbours load it fell to 40% of its quiet value while a
   CPU-bound loop slowed by 1.4x: client and server waited on each
   other's wake-ups.  With 16 the server always has queued work, and a
   CPU-bound process beside it moved throughput by under 10%.  With 64,
   throughput rose by a tenth and every latency fourfold. *)
let window = 16

let ws_size = 8

(* The server's default cache: 64 artifacts in 8 shards.  A working-set
   source holds three (project, schedule, C) in its digest's shard. *)
let shards = 8

let run_pct = 2

let miss_pct = 4

let socket = work_file "serve.sock"

(* ------------------------------------------------------------------ *)
(* Requests and their expected answers *)

type cls = Hit | Run of int | Miss

let cls_name = function Hit -> "hit" | Run _ -> "run" | Miss -> "miss"

type expect =
  | Fragment of string  (* the answer must contain this JSON text *)
  | Grid of float array  (* row-major newA, bit for bit *)
  | Length of int  (* the LCS length *)

type ws_entry = {
  ws_raw : string;  (* the source text *)
  ws_src : string;  (* ... as a JSON string literal *)
  ws_fc : string;  (* its flowchart text *)
  ws_sched : string;  (* expected "flowchart" value, JSON-escaped *)
  ws_c_raw : string;  (* its C *)
  ws_c : string;  (* expected "c" value, JSON-escaped *)
  ws_base : string;  (* the unsalted source, for miss edits *)
}

type run_kernel = {
  rk_raw : string;
  rk_src : string;  (* JSON string literal *)
  rk_module : string option;
  rk_sink_trim : bool;
  rk_em : Psc.Elab.emodule;
  rk_scalars : Rng.t -> (string * int) list;
}

let shard_of src =
  int_of_string ("0x" ^ String.sub (Ps_server.Cache.digest src) 0 2) mod shards

(* A trailing comment changes the digest, not the program. *)
let salted base tag want =
  let rec go k =
    let s = Printf.sprintf "%s\n(* %s %d *)\n" base tag k in
    if shard_of s = want then s else go (k + 1)
  in
  go 0

(* The working set is the same programs for every seed — the first
   [ws_size] models the C back end is pinned to take — so the seed
   moves digests and the request order, never the cost of a hit.  A
   back end that refuses one of them fails the run's set-up. *)
let working_set ~seed =
  let bases =
    List.filter_map
      (fun (_, src, _, emit) -> if emit then Some src else None)
      Corpus.models
    |> Array.of_list
  in
  Array.init ws_size (fun i ->
      let base = bases.(i mod Array.length bases) in
      let src = salted base (Printf.sprintf "ws %d %d" seed i) (i mod shards) in
      let t = Psc.load_string src in
      let fc = Psc.flowchart_string (Psc.schedule (Psc.default_module t)) in
      let c = Psc.emit_c t in
      { ws_raw = src; ws_src = Proto.jstr src; ws_fc = fc;
        ws_sched = Proto.jstr fc; ws_c_raw = c; ws_c = Proto.jstr c;
        ws_base = base })

let run_kernels () =
  let hyper src target =
    let t, tr = Psc.hyperplane ~target (Psc.load_string src) in
    let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
    let text = Psc.Pretty.module_to_string tr.Psc.Transform.tr_module in
    (Psc.find_module t name, text, name)
  in
  let relax rng = [ ("M", Rng.range rng 8 16); ("maxK", Rng.range rng 4 8) ] in
  let jt = Psc.load_string Ps_models.Models.jacobi in
  let h_em, h_text, h_name = hyper Ps_models.Models.seidel "A" in
  let l_em, l_text, l_name = hyper Ps_models.Models.lcs "L" in
  [| { rk_raw = Ps_models.Models.jacobi;
       rk_src = Proto.jstr Ps_models.Models.jacobi; rk_module = None;
       rk_sink_trim = false; rk_em = Psc.default_module jt; rk_scalars = relax };
     { rk_raw = h_text; rk_src = Proto.jstr h_text; rk_module = Some h_name;
       rk_sink_trim = true; rk_em = h_em; rk_scalars = relax };
     { rk_raw = l_text; rk_src = Proto.jstr l_text; rk_module = Some l_name;
       rk_sink_trim = true; rk_em = l_em;
       rk_scalars = (fun rng -> [ ("N", Rng.range rng 32 64) ]) } |]

(* The reference answer of a run request, on the inputs the server
   fills for it.  Memoized per (kernel, scalars). *)
let refs_memo : (int * (string * int) list, expect) Hashtbl.t = Hashtbl.create 64

let run_expect rks k scalars =
  match Hashtbl.find_opt refs_memo (k, scalars) with
  | Some e -> e
  | None ->
    let rk = rks.(k) in
    let inputs = Ps_fuzz.Diff.default_inputs rk.rk_em ~scalars in
    (* Kernel 2 is lcs; 0 and 1 are the relaxations. *)
    let e =
      if k = 2 then
        let n = List.assoc "N" scalars in
        let ints name =
          Array.init n (fun i ->
              Psc.Exec.read_int (List.assoc name inputs) [| i + 1 |])
        in
        Length (Refs.lcs (ints "X") (ints "Y"))
      else
        let m = List.assoc "M" scalars and maxk = List.assoc "maxK" scalars in
        let init = Refs.grid_values ~m (List.assoc "InitialA" inputs) in
        Grid ((if k = 0 then Refs.jacobi else Refs.seidel) ~m ~maxk init)
    in
    Hashtbl.replace refs_memo (k, scalars) e;
    e

type req = {
  rq_cls : cls;
  rq_op : string;
  rq_raw : string;  (* source text *)
  rq_src : string;  (* ... as a JSON string literal *)
  rq_extra : (string * string) list;  (* other members, rendered *)
  rq_scalars : (string * int) list;
  rq_expect : expect;
  rq_field : string * string;  (* hit/miss: the text field the answer renders *)
}

type ctx = {
  ws : ws_entry array;
  rks : run_kernel array;
  rng : Rng.t;
  trace : bool;  (* attach trace_id / parent_span *)
  mutable next_id : int;
  mutable edits : int;
  mutable sent : (req * string) list;  (* traced run: the first requests *)
  mutable n_sent : int;
}

let hit_request (w : ws_entry) op =
  let sched = op = "schedule" in
  { rq_cls = Hit; rq_op = op; rq_raw = w.ws_raw; rq_src = w.ws_src;
    rq_extra = []; rq_scalars = [];
    rq_expect = Fragment (if sched then w.ws_sched else w.ws_c);
    rq_field = (if sched then ("flowchart", w.ws_fc) else ("c", w.ws_c_raw)) }

let run_request ctx k scalars =
  let rk = ctx.rks.(k) in
  let extra =
    (match rk.rk_module with
     | Some m -> [ ("module", Proto.jstr m) ]
     | None -> [])
    @ (if rk.rk_sink_trim then
         [ ("flags", Proto.jobj [ ("sink", "true"); ("trim", "true") ]) ]
       else [])
    @ [ ("scalars",
         Proto.jobj (List.map (fun (n, v) -> (n, Proto.jint v)) scalars)) ]
  in
  { rq_cls = Run k; rq_op = "run"; rq_raw = rk.rk_raw; rq_src = rk.rk_src;
    rq_extra = extra; rq_scalars = scalars;
    rq_expect = run_expect ctx.rks k scalars; rq_field = ("", "") }

(* The seed's next request. *)
let choose ctx =
  let r = Rng.int ctx.rng 100 in
  if r < run_pct then begin
    let k = Rng.int ctx.rng (Array.length ctx.rks) in
    run_request ctx k (ctx.rks.(k).rk_scalars ctx.rng)
  end
  else if r < run_pct + miss_pct then begin
    let w = ctx.ws.(Rng.int ctx.rng ws_size) in
    ctx.edits <- ctx.edits + 1;
    let raw = Printf.sprintf "%s\n(* edit %d *)\n" w.ws_base ctx.edits in
    { (hit_request w "schedule") with
      rq_cls = Miss; rq_raw = raw; rq_src = Proto.jstr raw }
  end
  else
    let w = ctx.ws.(Rng.int ctx.rng ws_size) in
    hit_request w (if Rng.bool ctx.rng then "schedule" else "emit-c")

(* How many sent requests the traced run keeps for the in-process
   layer timings. *)
let keep_sent = 2000

(* Number a request and render its line. *)
let render ctx rq =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  let trace_fields =
    if ctx.trace then
      [ ("trace_id", Proto.jstr (Printf.sprintf "%s-%d" (cls_name rq.rq_cls) id));
        ("parent_span", Proto.jstr (Printf.sprintf "client.%d" id)) ]
    else []
  in
  let line =
    Proto.jobj
      ([ ("id", Proto.jint id); ("op", Proto.jstr rq.rq_op); ("source", rq.rq_src) ]
      @ rq.rq_extra @ trace_fields)
  in
  if ctx.trace && ctx.n_sent < keep_sent then begin
    ctx.sent <- (rq, line) :: ctx.sent;
    ctx.n_sent <- ctx.n_sent + 1
  end;
  (id, line)

(* ------------------------------------------------------------------ *)
(* Checking answers *)

(* Where [sub] first occurs in [s]; no allocation. *)
let find ~sub s =
  let n = String.length s and m = String.length sub in
  let rec matches i j =
    j = m
    || (String.unsafe_get s (i + j) = String.unsafe_get sub j
       && matches i (j + 1))
  in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some i else go (i + 1)
  in
  go 0

let contains ~sub s = find ~sub s <> None

(* The id of an answer line: the first "id": member (a trace_id member,
   when present, comes before it). *)
let answer_id line =
  match find ~sub:"\"id\":" line with
  | None -> None
  | Some i ->
    let j = i + 5 in
    let k = ref j in
    while !k < String.length line && line.[!k] >= '0' && line.[!k] <= '9' do
      incr k
    done;
    int_of_string_opt (String.sub line j (!k - j))

let member_exn name j =
  match Json.member name j with Some v -> v | None -> raise Not_found

let output_named name j =
  match member_exn "outputs" j with
  | Json.Arr outs ->
    List.find (fun o -> member_exn "name" o = Json.Str name) outs
  | _ -> raise Not_found

let str_value = function Json.Str s -> s | _ -> raise Not_found

let answer_ok line expect =
  contains ~sub:"\"ok\":true" line
  &&
  match expect with
  | Fragment f -> contains ~sub:f line
  | Grid expected -> (
    match Json.parse line with
    | j -> (
      match member_exn "values" (output_named "newA" j) with
      | Json.Arr vs ->
        List.length vs = Array.length expected
        && List.for_all2
             (fun v e -> Refs.same_bits (float_of_string (str_value v)) e)
             vs (Array.to_list expected)
      | _ -> false)
    | exception _ -> false)
  | Length n -> (
    match Json.parse line with
    | j -> (
      match member_exn "value" (output_named "len" j) with
      | Json.Str s -> int_of_string_opt s = Some n
      | Json.Num f -> int_of_float f = n
      | _ -> false)
    | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* The client loop *)

type pending = {
  p_cls : cls;
  p_t0 : int;  (* monotonic ns at write *)
  p_wall : float;  (* wall clock at write, for the merged trace *)
  p_slot : int;
  p_expect : expect;
  p_bytes : int;
}

type sample = {
  s_cls : cls;
  s_ns : int;
  s_req_bytes : int;
  s_resp_bytes : int;
  s_span : (int * float * float * string) option;
      (* slot, wall begin, wall end, trace id: one client span *)
}

type conn = { fd : Unix.file_descr; rbuf : Buffer.t; mutable free : int list }

let connect ~timeout_s =
  let t0 = now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN | EINTR), _, _)
      when secs_since t0 < timeout_s ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

type loop = {
  conns : conn array;
  inflight : (int, pending) Hashtbl.t;
  mutable samples : sample list;
  mutable failed : int;
  mutable attempted : int;
  chunk : Bytes.t;
  mutable meter : Yardstick.meter option;
      (* in the timed phase: reads every latency at the reference speed *)
}

let make_loop conns =
  { conns; inflight = Hashtbl.create 64; samples = []; failed = 0;
    attempted = 0; chunk = Bytes.create 65536; meter = None }

(* The key a sample's normalized latency is kept under. *)
let cls_key = function Hit -> "hit" | Run k -> "run" ^ string_of_int k | Miss -> "miss"

let send lp ctx ci =
  let c = lp.conns.(ci) in
  match c.free with
  | [] -> ()
  | slot :: rest ->
    c.free <- rest;
    let rq = choose ctx in
    let id, line = render ctx rq in
    lp.attempted <- lp.attempted + 1;
    Hashtbl.replace lp.inflight id
      { p_cls = rq.rq_cls; p_t0 = now_ns (); p_wall = Unix.gettimeofday ();
        p_slot = slot; p_expect = rq.rq_expect;
        p_bytes = String.length line + 1 };
    write_all c.fd (line ^ "\n")

(* Read what one connection has and settle every complete answer line;
   [refill] decides whether each settled slot gets a new request. *)
let receive lp ctx ci ~refill =
  let c = lp.conns.(ci) in
  let n = Unix.read c.fd lp.chunk 0 (Bytes.length lp.chunk) in
  if n = 0 then failwith "server closed a connection";
  Buffer.add_subbytes c.rbuf lp.chunk 0 n;
  let s = Buffer.contents c.rbuf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    Buffer.clear c.rbuf;
    Buffer.add_substring c.rbuf s (last + 1) (String.length s - last - 1);
    List.iter
      (fun line ->
        let t1 = now_ns () in
        let id = answer_id line in
        match Option.bind id (Hashtbl.find_opt lp.inflight) with
        | None ->
          (* An answer to nothing in flight: a duplicate or a garbled id. *)
          lp.failed <- lp.failed + 1
        | Some p ->
          let id = Option.get id in
          Hashtbl.remove lp.inflight id;
          let ok = answer_ok line p.p_expect in
          if not ok then begin
            lp.failed <- lp.failed + 1;
            Printf.eprintf "serve: wrong answer to %s request %d: %s\n%!"
              (cls_name p.p_cls) id
              (String.sub line 0 (min 200 (String.length line)))
          end;
          Option.iter
            (fun m ->
              Yardstick.add m (cls_key p.p_cls) (float_of_int (t1 - p.p_t0)))
            lp.meter;
          lp.samples <-
            { s_cls = p.p_cls; s_ns = t1 - p.p_t0;
              s_req_bytes = p.p_bytes; s_resp_bytes = String.length line + 1;
              s_span =
                (if ctx.trace then
                   Some
                     ( (ci * window) + p.p_slot,
                       p.p_wall,
                       Unix.gettimeofday (),
                       Printf.sprintf "%s-%d" (cls_name p.p_cls) id )
                 else None) }
            :: lp.samples;
          c.free <- p.p_slot :: c.free;
          if refill then send lp ctx ci)
      (String.split_on_char '\n' (String.sub s 0 last))

let select_round lp ctx ~refill =
  let fds = Array.to_list (Array.map (fun c -> c.fd) lp.conns) in
  match Unix.select fds [] [] 1.0 with
  | ready, _, _ ->
    Array.iteri
      (fun ci c -> if List.memq c.fd ready then receive lp ctx ci ~refill)
      lp.conns
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Wait until nothing is in flight; what never comes back is failed. *)
let drain lp ctx =
  let t0 = now_ns () in
  while Hashtbl.length lp.inflight > 0 && secs_since t0 < 20.0 do
    select_round lp ctx ~refill:false
  done;
  lp.failed <- lp.failed + Hashtbl.length lp.inflight;
  Hashtbl.reset lp.inflight

(* Closed loop: fill every window, then answer each reply with a new
   request until [seconds] have elapsed.  With a [meter], every
   [interval_ms] the client stops refilling, lets the server drain,
   times the yardstick on the idle host and fills the windows again, so
   the yardstick measures the host's speed and not the server's threads
   beside it; every latency, and the loaded time, is read at the
   reference speed.  Returns the answers that arrived within the phase
   and the raw throughput, answers per second. *)
let closed_loop ?meter lp ctx ~seconds =
  let fill () =
    Array.iteri
      (fun ci _ ->
        for _ = 1 to window do
          send lp ctx ci
        done)
      lp.conns
  in
  lp.samples <- [];
  lp.meter <- meter;
  fill ();
  let t0 = now_ns () in
  while secs_since t0 < seconds do
    select_round lp ctx ~refill:true;
    Option.iter
      (fun m ->
        if Yardstick.due m then begin
          drain lp ctx;
          Yardstick.cut m;
          fill ()
        end)
      meter
  done;
  Option.iter
    (fun m ->
      drain lp ctx;
      Yardstick.cut m)
    meter;
  let elapsed = secs_since t0 in
  lp.meter <- None;
  let in_phase = lp.samples in
  drain lp ctx;
  (in_phase, float_of_int (List.length in_phase) /. elapsed)

(* ------------------------------------------------------------------ *)
(* The server process *)

(* Servers not yet reaped.  Whatever way the benchmark exits, none
   outlives it. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

type server = { pid : int; loop : loop }

let open_conns () =
  Array.init nproc (fun _ ->
      { fd = connect ~timeout_s:30.0; rbuf = Buffer.create 65536;
        free = List.init window Fun.id })

let spawn ?trace_file () =
  let args =
    [ psc_exe; "serve"; "--socket"; socket; "--workers"; string_of_int nproc ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  (* A socket left by a server that outlived a killed run must not
     answer the connect that waits for this one. *)
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process psc_exe (Array.of_list args) null null Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  pid

(* Send every working-set request and one run per kernel, pipelined
   on one connection, and wait for the answers: after this the hit
   class hits. *)
let warm lp ctx =
  let reqs =
    List.concat_map
      (fun w -> [ hit_request w "schedule"; hit_request w "emit-c" ])
      (Array.to_list ctx.ws)
    @ List.init (Array.length ctx.rks) (fun k ->
          run_request ctx k
            (if k = 2 then [ ("N", 48) ] else [ ("M", 12); ("maxK", 6) ]))
  in
  List.iter
    (fun rq ->
      let id, line = render ctx rq in
      lp.attempted <- lp.attempted + 1;
      Hashtbl.replace lp.inflight id
        { p_cls = rq.rq_cls; p_t0 = now_ns (); p_wall = Unix.gettimeofday ();
          p_slot = 0; p_expect = rq.rq_expect; p_bytes = String.length line + 1 };
      write_all lp.conns.(0).fd (line ^ "\n"))
    reqs;
  drain lp ctx

let start ?trace_file ctx =
  let pid = spawn ?trace_file () in
  let lp = make_loop (open_conns ()) in
  warm lp ctx;
  { pid; loop = lp }

let wait_exit pid =
  live := List.filter (( <> ) pid) !live;
  let t0 = now_ns () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when secs_since t0 < 20.0 ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  go ()

(* Ask the server to drain, read its answer, hang up, reap it. *)
let stop sv =
  let c = sv.loop.conns.(0) in
  write_all c.fd "{\"id\":\"bye\",\"op\":\"shutdown\"}\n";
  let rec await () =
    let n = Unix.read c.fd sv.loop.chunk 0 (Bytes.length sv.loop.chunk) in
    if n > 0 && not (contains ~sub:"draining" (Bytes.sub_string sv.loop.chunk 0 n))
    then await ()
  in
  (try await () with Unix.Unix_error _ -> ());
  Array.iter (fun c -> Unix.close c.fd) sv.loop.conns;
  wait_exit sv.pid

(* One `stats` answer, parsed. *)
let stats sv =
  let c = sv.loop.conns.(0) in
  write_all c.fd "{\"id\":\"stats\",\"op\":\"stats\"}\n";
  let b = Buffer.create 65536 in
  let rec await () =
    let n = Unix.read c.fd sv.loop.chunk 0 (Bytes.length sv.loop.chunk) in
    if n = 0 then failwith "server closed during stats";
    Buffer.add_subbytes b sv.loop.chunk 0 n;
    if not (String.contains (Bytes.sub_string sv.loop.chunk 0 n) '\n') then await ()
  in
  await ();
  Json.parse (String.trim (Buffer.contents b))

let new_ctx ~seed ~trace =
  { ws = working_set ~seed; rks = run_kernels (); rng = Rng.create (seed * 7919 + 1);
    trace; next_id = 1; edits = 0; sent = []; n_sent = 0 }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let lat_ms samples f =
  sorted
    (List.filter_map
       (fun s -> if f s.s_cls then Some (ms s.s_ns) else None)
       samples)

(* p99.9 of a 30 s run is the slowest 30 ms worth of replies, so a
   single contention episode on the host lands there whole: across ten
   seeds it read 8-47 ms.  p99 still leaves thousands of samples beyond
   it. *)
let tail = P99

(* The client pins itself, and so the server it spawns, to one vCPU.
   Spread over the host's two vCPUs, client and server waited on each
   other's cross-vCPU wake-ups, and a host that took one vCPU away for
   a while stalled the whole loop: over five 30 s runs one read 40%
   fewer answers while a single-threaded job beside it slowed 20%, and
   its server got 17.6 s of CPU against 24-26 s in the others.  On one
   vCPU, whichever of them is runnable runs: the loop is bound by their
   CPU work, as the yardstick is (README.md gives the spreads).  The
   server still runs
   --workers = nproc of the host, the client still holds nproc
   connections; the workers share one runtime lock, so two vCPUs bought
   the server overlap of system calls, not of its OCaml work. *)
let pin () =
  match pin_one_cpu () with
  | -1 -> print_endline "serve: could not pin to one CPU, running unpinned"
  | c -> Printf.printf "serve: client and server pinned to CPU %d\n" c

(* The load pauses for a drain (about 3 ms) and the yardstick (about
   5 ms) every [slice_ms], about 3% of the phase: often enough to follow
   a host that changes speed from one second to the next. *)
let slice_ms = 250.0

let run ~seed ~seconds =
  pin ();
  (* Set-up (the client's inputs, spawn to ready, the cache warm) runs
     as [Yardstick.setups] says; every server but the last is stopped
     off the clock, and the last is the one measured.  A server that does not
     exit cleanly counts as a failed op. *)
  let warm_att = ref 0 and warm_failed = ref 0 in
  let (ctx, sv), setup_s =
    Yardstick.setups
      ~after:(fun (_, sv) ->
        warm_att := !warm_att + sv.loop.attempted;
        warm_failed := !warm_failed + sv.loop.failed + if stop sv then 0 else 1)
      (fun () ->
        let ctx = new_ctx ~seed ~trace:false in
        (ctx, start ctx))
  in
  let lp = sv.loop in
  let meter = Yardstick.meter ~interval_ms:slice_ms () in
  let cpu0 = Unix.times () and scpu0 = cpu_us sv.pid in
  let samples, raw_ops_per_s = closed_loop ~meter lp ctx ~seconds in
  let cpu1 = Unix.times () and scpu1 = cpu_us sv.pid in
  Printf.printf "CPU in the timed phase: client %.2f s, server %.2f s\n"
    (cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime
     -. cpu0.Unix.tms_stime)
    (float_of_int (scpu1 - scpu0) /. 1e6);
  let rss = peak_rss_mb (string_of_int sv.pid) in
  let clean = stop sv in
  let raw = lat_ms samples (fun _ -> true) in
  Printf.printf "serve: %d answers at %.0f/s over %d connections x %d in flight\n"
    (Array.length raw) raw_ops_per_s nproc window;
  Yardstick.report meter;
  let raw_run k = pct (lat_ms samples (fun c -> c = Run k)) 0.5 in
  Printf.printf "raw: p50 %.3f ms, run p50 fig6 %.3f h3 %.3f lcs %.3f ms\n"
    (pct raw 0.5) (raw_run 0) (raw_run 1) (raw_run 2);
  let norm keys =
    sorted
      (List.concat_map
         (fun k -> List.map (fun ns -> ns /. 1e6) (Yardstick.normalized meter k))
         keys)
  in
  let lat = norm [ "hit"; "run0"; "run1"; "run2"; "miss" ] in
  let tail_ms = report_tail tail lat in
  let run_p50 k = pct (norm [ "run" ^ string_of_int k ]) 0.5 in
  let attempted = !warm_att + lp.attempted in
  let failed = !warm_failed + lp.failed + if clean then 0 else 1 in
  { attempted;
    failed;
    correct = failed = 0;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" rss;
        metric "ops_per_s" "1/s"
          (float_of_int (List.length samples) /. meter.Yardstick.norm_s);
        metric "latency_ms_p50" "ms" (pct lat 0.5);
        metric "latency_ms_tail" "ms" tail_ms;
        metric "fig6_ms" "ms" (run_p50 0);
        metric "h3_ms" "ms" (run_p50 1);
        metric "lcs_ms" "ms" (run_p50 2) ] }

(* ------------------------------------------------------------------ *)
(* The traced run *)

let num path j =
  let rec go j = function
    | [] -> ( match j with Json.Num f -> f | _ -> 0.0)
    | k :: rest -> (
      match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

(* The client's request spans as Chrome events: one pseudo-thread per
   in-flight slot, so the spans of pipelined requests never overlap on
   one timeline. *)
let client_events samples ~epoch =
  let pid = Unix.getpid () in
  let by_slot = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.s_span with
      | Some (slot, b, e, tid) ->
        Hashtbl.replace by_slot slot
          ((b, e, tid) :: Option.value (Hashtbl.find_opt by_slot slot) ~default:[])
      | None -> ())
    samples;
  Hashtbl.fold
    (fun slot spans acc ->
      let spans = List.sort compare spans in
      List.concat_map
        (fun (b, e, tid) ->
          let ev ph t =
            { Psc.Trace.ev_name = "pb.client.request"; ev_ph = ph;
              ev_ts = (t -. epoch) *. 1e6; ev_pid = pid; ev_tid = 1000 + slot;
              ev_args = [ ("trace_id", tid) ] }
          in
          [ ev Psc.Trace.Begin b; ev Psc.Trace.End e ])
        spans
      @ acc)
    by_slot []

(* Durations of matched Begin/End pairs named [name], keyed by their
   trace_id argument. *)
let spans_by_trace_id name (events : Psc.Trace.event list) =
  let open_ = Hashtbl.create 64 and out = Hashtbl.create 4096 in
  List.iter
    (fun (e : Psc.Trace.event) ->
      let key = (e.Psc.Trace.ev_pid, e.Psc.Trace.ev_tid) in
      match e.Psc.Trace.ev_ph with
      | Psc.Trace.Begin ->
        let tid = List.assoc_opt "trace_id" e.Psc.Trace.ev_args in
        Hashtbl.replace open_ key
          ((e.Psc.Trace.ev_name, e.Psc.Trace.ev_ts, tid)
           :: Option.value (Hashtbl.find_opt open_ key) ~default:[])
      | Psc.Trace.End -> (
        match Hashtbl.find_opt open_ key with
        | Some ((n, t0, tid) :: rest) ->
          Hashtbl.replace open_ key rest;
          (match tid with
           | Some tid when n = name -> Hashtbl.replace out tid (e.Psc.Trace.ev_ts -. t0)
           | _ -> ())
        | _ -> ())
      | Psc.Trace.Instant -> ())
    events;
  out

(* Mean microseconds of [f] over [xs], inside one span. *)
let mean_us name xs f =
  match xs with
  | [] -> 0.0
  | _ ->
    span name (fun () ->
        let t0 = now_ns () in
        List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        float_of_int (now_ns () - t0) /. 1e3 /. float_of_int (List.length xs))

(* The server's request-path layers timed in-process on the lines the
   traced phase sent: parse, render, digest, and a cache hit. *)
let in_process ctx =
  let sent = List.rev ctx.sent in
  let parse = mean_us "server.proto.parse" sent (fun (_, l) -> Proto.parse_request l) in
  (* Run answers render the kernel's outputs, computed here once per
     distinct request. *)
  let outputs = Hashtbl.create 16 in
  let run_outputs k scalars =
    match Hashtbl.find_opt outputs (k, scalars) with
    | Some o -> o
    | None ->
      let rk = ctx.rks.(k) in
      let o =
        (Psc.run ?name:rk.rk_module ~sink:rk.rk_sink_trim ~trim:rk.rk_sink_trim
           (Psc.load_string rk.rk_raw)
           ~inputs:(Ps_fuzz.Diff.default_inputs rk.rk_em ~scalars))
          .Psc.Exec.outputs
      in
      Hashtbl.replace outputs (k, scalars) o;
      o
  in
  let to_render =
    List.map
      (fun (rq, _) ->
        match rq.rq_cls with
        | Run k -> `Outputs (run_outputs k rq.rq_scalars)
        | Hit | Miss -> `Field rq.rq_field)
      sent
  in
  let render =
    mean_us "server.proto.render" to_render (function
      | `Outputs outs ->
        Proto.ok_response ~id:"1" ~cached:true
          [ ("outputs", Proto.jarr (List.map Proto.output_json outs)) ]
      | `Field (name, text) ->
        Proto.ok_response ~id:"1" ~cached:true [ (name, Proto.jstr text) ])
  in
  let digest =
    mean_us "server.cache.digest" sent (fun (rq, _) ->
        Ps_server.Cache.digest rq.rq_raw)
  in
  let cache = Ps_server.Cache.create () in
  let keys =
    Array.to_list
      (Array.map
         (fun w ->
           let key =
             Ps_server.Cache.sched_key ~src:w.ws_raw ~module_:None
               ~flags:Psc.Exec.no_sched_flags
           in
           ignore
             (Ps_server.Cache.find_or_build cache key (fun () ->
                  Ps_server.Cache.A_emit w.ws_c_raw));
           key)
         ctx.ws)
  in
  let hits = List.concat (List.init 100 (fun _ -> keys)) in
  let hit =
    mean_us "server.cache.hit" hits (fun key ->
        Ps_server.Cache.find_or_build cache key (fun () -> assert false))
  in
  [ metric "server.proto.parse_us" "us" parse;
    metric "server.proto.render_us" "us" render;
    metric "server.cache.digest_us" "us" digest;
    metric "server.cache.hit_us" "us" hit ]

(* The traced phases are short: the server's trace grows by about
   50 000 events a second, and the merged file is parsed in memory. *)
let traced_phase_s = 3.0

let run_traced ~seed ~seconds =
  pin ();
  let half = Float.min traced_phase_s (seconds /. 2.0) in
  (* Untraced first, for the overhead ratio. *)
  let ctx0 = new_ctx ~seed ~trace:false in
  let sv0 = start ctx0 in
  let _, ops_plain = closed_loop sv0.loop ctx0 ~seconds:half in
  let clean0 = stop sv0 in
  let server_trace = work_file "server.trace.json" in
  let ctx = new_ctx ~seed ~trace:true in
  Psc.Trace.set_enabled true;
  let epoch = Unix.gettimeofday () in
  let sv = start ~trace_file:server_trace ctx in
  let st0 = stats sv in
  let cpu0 = cpu_us sv.pid in
  let samples, ops_traced = closed_loop sv.loop ctx ~seconds:half in
  let cpu1 = cpu_us sv.pid in
  let st1 = stats sv in
  let clean = stop sv in
  let n = List.length samples in
  let layers = in_process ctx in
  Psc.Trace.set_enabled false;
  print_layer_table (layer_times (Psc.Trace.events ()));
  let client_file = work_file "client.trace.json" in
  Psc.Trace.write client_file;
  let requests_file = work_file "requests.trace.json" in
  Psc.Trace.write_events ~epoch_us:(epoch *. 1e6) requests_file
    (client_events samples ~epoch);
  let merged = work_file "serve.merged.json" in
  let trace_ok =
    trace_check ~merged_out:merged [ server_trace; client_file; requests_file ]
  in
  let events =
    if trace_ok then (Psc.Trace.parse_chrome_file (read_file merged)).Psc.Trace.f_events
    else []
  in
  (* The server's own spans, self time per stage: queue-to-answer
     "request" spans and the pipeline stages the library records inside
     them. *)
  print_layer_table
    (layer_times ~keep:(fun _ -> true)
       (List.filter (fun (e : Psc.Trace.event) -> e.Psc.Trace.ev_pid = sv.pid) events));
  let server_spans = spans_by_trace_id "request" events in
  let client_spans = spans_by_trace_id "pb.client.request" events in
  let transport =
    Hashtbl.fold
      (fun tid c acc ->
        match Hashtbl.find_opt server_spans tid with
        | Some s -> ((c -. s) /. 1e3) :: acc
        | None -> acc)
      client_spans []
  in
  let busy cls =
    Hashtbl.fold
      (fun tid d acc ->
        if String.length tid > String.length cls
           && String.sub tid 0 (String.length cls + 1) = cls ^ "-"
        then acc +. d
        else acc)
      server_spans 0.0
  in
  let total_busy = busy "hit" +. busy "run" +. busy "miss" in
  let share c = if total_busy > 0.0 then busy c /. total_busy else 0.0 in
  let p50 f = pct (lat_ms samples f) 0.5 in
  let mean_bytes f = mean (List.map (fun s -> float_of_int (f s)) samples) in
  let d path = num path st1 -. num path st0 in
  let ms_of path = num path st1 /. 1e6 in
  let failed = sv0.loop.failed + sv.loop.failed + (if clean && clean0 then 0 else 1) in
  Printf.printf "serve (traced): %d answers; server busy share hit %.3f run %.3f miss %.3f\n"
    n (share "hit") (share "run") (share "miss");
  Printf.printf "tracing overhead (traced / untraced ops_per_s): %.4f\n"
    (ops_traced /. ops_plain);
  { attempted = sv0.loop.attempted + sv.loop.attempted;
    failed;
    correct = failed = 0 && trace_ok && transport <> [];
    metrics =
      [ metric "server.hit_ms_p50" "ms" (p50 (fun c -> c = Hit));
        metric "server.run_ms_p50" "ms" (p50 (function Run _ -> true | _ -> false));
        metric "server.miss_ms_p50" "ms" (p50 (fun c -> c = Miss));
        metric "server.req_bytes" "bytes" (mean_bytes (fun s -> s.s_req_bytes));
        metric "server.resp_bytes" "bytes" (mean_bytes (fun s -> s.s_resp_bytes));
        metric "server.queue_ms_p50" "ms" (ms_of [ "latency_ns"; "queue"; "p50" ]);
        metric "server.queue_ms_p99" "ms" (ms_of [ "latency_ns"; "queue"; "p99" ]);
        metric "server.handler_ms_p50.schedule" "ms" (ms_of [ "latency_ns"; "schedule"; "p50" ]);
        metric "server.handler_ms_p50.emit-c" "ms" (ms_of [ "latency_ns"; "emit-c"; "p50" ]);
        metric "server.handler_ms_p50.run" "ms" (ms_of [ "latency_ns"; "run"; "p50" ]);
        metric "server.cache.hit_ratio" "ratio"
          (let h = d [ "cache"; "hits" ] and m = d [ "cache"; "misses" ] in
           if h +. m > 0.0 then h /. (h +. m) else 0.0);
        metric "server.cache.evictions" "count" (d [ "cache"; "evictions" ]);
        metric "server.shed" "count" (d [ "shed" ]);
        metric "server.inflight_peak" "count" (num [ "inflight_peak" ] st1);
        metric "server.cpu_us_per_req" "us" (float_of_int (cpu1 - cpu0) /. float_of_int (max 1 n));
        metric "server.transport_ms_p50" "ms" (median transport);
        metric "server.busy_share.hit" "ratio" (share "hit");
        metric "server.busy_share.run" "ratio" (share "run");
        metric "server.busy_share.miss" "ratio" (share "miss");
        metric "trace.overhead" "ratio" (ops_traced /. ops_plain) ]
      @ layers }
