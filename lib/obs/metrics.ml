(* Process-wide metrics registry: counters, gauges, quantile sketches.

   Like [Trace], the registry is off by default and instrumented call
   sites are expected to guard on [enabled ()] — one atomic load — so
   the hot paths of the runtime pool stay free when nobody is watching.
   The metric operations themselves are unconditional lock-free atomics;
   registration (get-or-create by name) takes a mutex but happens once
   per site.

   Values are integers.  Quantities that are naturally fractional
   (utilizations, ratios) are registered in scaled units and named
   accordingly (…_permille, …_ns); the renderer prints raw integers and
   leaves unit interpretation to the name, which keeps the JSON form
   trivially parseable. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

type counter = { c_name : string; c_v : int Atomic.t }

type gauge = { g_name : string; g_v : int Atomic.t }

(* Power-of-two buckets: bucket [i] counts samples in [2^i, 2^(i+1)).
   62 buckets cover the non-negative int range. *)
let nbuckets = 62

(* A mergeable quantile sketch: a *windowed* log2 histogram.  The
   window's buckets answer p50/p90/p99 with one-bucket resolution
   (relative error < 2x, plenty for latency SLOs), [sk_rotate] starts a
   fresh window while the all-time count/sum keep accumulating, and
   [sk_merge_into] folds one sketch into another bucket-wise — the
   property that lets per-op sketches roll up into an end-to-end one,
   or per-process sketches into a fleet view. *)
type sketch = {
  q_name : string;
  q_window : int Atomic.t array;  (* current window, log2 buckets *)
  q_wcount : int Atomic.t;        (* window sample count *)
  q_wmax : int Atomic.t;          (* window max, exact *)
  q_count : int Atomic.t;         (* all-time *)
  q_sum : int Atomic.t;
}

type metric = C of counter | G of gauge | Q of sketch

let mutex = Mutex.create ()

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let with_registry f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let get_or_create name make classify =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match classify m with
        | Some x -> x
        | None -> invalid_arg (name ^ " is registered as a different metric kind"))
      | None ->
        let m, x = make () in
        Hashtbl.add registry name m;
        x)

let counter name =
  get_or_create name
    (fun () ->
      let c = { c_name = name; c_v = Atomic.make 0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let gauge name =
  get_or_create name
    (fun () ->
      let g = { g_name = name; g_v = Atomic.make 0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let sketch name =
  get_or_create name
    (fun () ->
      let q =
        { q_name = name;
          q_window = Array.init nbuckets (fun _ -> Atomic.make 0);
          q_wcount = Atomic.make 0;
          q_wmax = Atomic.make 0;
          q_count = Atomic.make 0;
          q_sum = Atomic.make 0 }
      in
      (Q q, q))
    (function Q q -> Some q | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.c_v 1)

let add c n = ignore (Atomic.fetch_and_add c.c_v n)

let counter_value c = Atomic.get c.c_v

let set g v = Atomic.set g.g_v v

let gauge_value g = Atomic.get g.g_v

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
    min (nbuckets - 1) (go 0 v)

(* Racy-but-convergent max: a lost CAS retries against the fresher
   bound, so the final value is exact once writers quiesce. *)
let rec update_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then update_max a v

let sk_observe q v =
  let v = max 0 v in
  ignore (Atomic.fetch_and_add q.q_window.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add q.q_wcount 1);
  update_max q.q_wmax v;
  ignore (Atomic.fetch_and_add q.q_count 1);
  ignore (Atomic.fetch_and_add q.q_sum v)

let sk_rotate q =
  Array.iter (fun b -> Atomic.set b 0) q.q_window;
  Atomic.set q.q_wcount 0;
  Atomic.set q.q_wmax 0

let sk_merge_into ~into src =
  Array.iteri
    (fun i b ->
      let n = Atomic.get b in
      if n > 0 then ignore (Atomic.fetch_and_add into.q_window.(i) n))
    src.q_window;
  ignore (Atomic.fetch_and_add into.q_wcount (Atomic.get src.q_wcount));
  update_max into.q_wmax (Atomic.get src.q_wmax);
  ignore (Atomic.fetch_and_add into.q_count (Atomic.get src.q_count));
  ignore (Atomic.fetch_and_add into.q_sum (Atomic.get src.q_sum))

type quantiles = {
  qs_count : int;
  qs_p50 : int;
  qs_p90 : int;
  qs_p99 : int;
  qs_max : int;
}

(* One coherent pass over a point-in-time copy of the window.  A
   quantile estimate is the upper bound of the bucket holding the
   ceil(q * count)-th sample (bucket i covers [2^i, 2^(i+1)), bucket 0
   covers 0..1), clamped to the exact window max — which both tightens
   the top bucket and makes p50 <= p90 <= p99 <= max hold by
   construction. *)
let sk_quantiles q =
  let window = Array.map Atomic.get q.q_window in
  let total = Array.fold_left ( + ) 0 window in
  let wmax = Atomic.get q.q_wmax in
  if total = 0 then { qs_count = 0; qs_p50 = 0; qs_p90 = 0; qs_p99 = 0; qs_max = 0 }
  else begin
    let at quantile =
      let rank = max 1 (int_of_float (ceil (quantile *. float_of_int total))) in
      let rec walk i cum =
        if i >= nbuckets then wmax
        else
          let cum = cum + window.(i) in
          if cum >= rank then
            let upper = if i = 0 then 1 else (1 lsl (i + 1)) - 1 in
            min upper wmax
          else walk (i + 1) cum
      in
      walk 0 0
    in
    { qs_count = total;
      qs_p50 = at 0.50;
      qs_p90 = at 0.90;
      qs_p99 = at 0.99;
      qs_max = wmax }
  end

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c_v 0
          | G g -> Atomic.set g.g_v 0
          | Q q ->
            Array.iter (fun b -> Atomic.set b 0) q.q_window;
            Atomic.set q.q_wcount 0;
            Atomic.set q.q_wmax 0;
            Atomic.set q.q_count 0;
            Atomic.set q.q_sum 0)
        registry)

let clear () = with_registry (fun () -> Hashtbl.reset registry)

let sorted_metrics () =
  let all = with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  let name = function
    | C c -> c.c_name
    | G g -> g.g_name
    | Q q -> q.q_name
  in
  List.sort (fun a b -> String.compare (name a) (name b)) all

let find name = with_registry (fun () -> Hashtbl.find_opt registry name)

let counter_value_opt name =
  match find name with Some (C c) -> Some (counter_value c) | _ -> None

(* ------------------------------------------------------------------ *)
(* Renderers *)

let render_json () =
  let row name kind fields =
    Ps_json.obj
      (("name", Ps_json.str name) :: ("kind", Ps_json.str kind) :: fields)
  in
  let ints = List.map (fun (k, v) -> (k, Ps_json.int v)) in
  let row = function
    | C c -> row c.c_name "counter" (ints [ ("value", counter_value c) ])
    | G g -> row g.g_name "gauge" (ints [ ("value", gauge_value g) ])
    | Q q ->
      let s = sk_quantiles q in
      row q.q_name "sketch"
        (ints
           [ ("count", s.qs_count); ("p50", s.qs_p50); ("p90", s.qs_p90);
             ("p99", s.qs_p99); ("max", s.qs_max);
             ("total", Atomic.get q.q_count) ])
  in
  Ps_json.arr (List.map row (sorted_metrics ()))

(* ------------------------------------------------------------------ *)
(* Clock shared with the pool, the profiler and the server.  Every
   caller takes differences or compares deadlines, so it reads
   CLOCK_MONOTONIC: a wall-clock step cannot move a deadline or corrupt
   a duration. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
