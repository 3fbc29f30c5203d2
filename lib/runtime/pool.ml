(* A fixed pool of worker domains executing parallel for-loops.

   This is the MIMD substrate the scheduler's DOALL loops target.  The
   hot path is designed around the shape the hyperplane schedules
   produce — an outer iterative loop issuing one small-to-medium DOALL
   per time step — so publishing a job must be cheap enough to do
   thousands of times:

   - [size] worker domains are spawned once; between jobs they spin
     briefly on the epoch counter and then park on a condition variable,
     so a caller that issues DOALLs back to back never touches the mutex
     (an atomic store per epoch, a broadcast only when somebody actually
     went to sleep);
   - [parallel_for] splits the index range into one contiguous slice per
     worker (never smaller than a fixed grain: tiny wavefront DOALLs
     stay a single slice and don't wake parked workers); every slice
     has its own atomic cursor, and a worker that exhausts its slice
     *steals* from the other slices, scanning round-robin from its own
     position;
   - claims are guided self-scheduling: each claim takes half of the
     slice's remainder, clamped between the minimum chunk and a quarter
     of the slice, so early chunks are large, the tail self-balances,
     and no preempted worker sits on an outsized claim;
   - completion is a reusable barrier: an atomic count of unfinished
     points that the caller spin-waits on after helping — no per-job
     allocation beyond the one job record.

   Exceptions raised by the body are caught, the first one is recorded,
   and the remaining iterations are *drained without executing* (claimed
   and counted, their bodies skipped), so a failing body raises once at
   the caller instead of thousands of times in the workers.

   For A/B measurement stealing can be turned off per job
   ([parallel_for ~steal:false], a policy decision's [d_steal]): the
   range then becomes a single shared slice handed out in fixed chunks
   of span / (4 * size) — the classic static self-scheduling loop, kept
   as the measurable baseline. *)

module Metrics = Ps_obs.Metrics

(* Per-worker cumulative counters, updated only while the metrics
   registry is enabled ([Metrics.enabled ()] — one atomic load on every
   disabled path).  Each worker adds to its own record, so the atomics
   never contend. *)
type wc = {
  wc_chunks : int Atomic.t;         (* chunks claimed *)
  wc_points : int Atomic.t;         (* iteration points executed *)
  wc_steal_attempts : int Atomic.t; (* claim attempts on foreign slices *)
  wc_steals : int Atomic.t;         (* chunks claimed from foreign slices *)
  wc_parks : int Atomic.t;          (* times this worker went to sleep *)
  wc_wakes : int Atomic.t;          (* times it was woken from a park *)
  wc_busy_ns : int Atomic.t;        (* wall time spent inside jobs *)
}

let make_wc () =
  { wc_chunks = Atomic.make 0;
    wc_points = Atomic.make 0;
    wc_steal_attempts = Atomic.make 0;
    wc_steals = Atomic.make 0;
    wc_parks = Atomic.make 0;
    wc_wakes = Atomic.make 0;
    wc_busy_ns = Atomic.make 0 }

type job = {
  j_body : int -> int -> unit;  (* [body lo hi] runs indices lo..hi *)
  j_next : int Atomic.t array;  (* per-slice cursor (next unclaimed) *)
  j_limit : int array;          (* per-slice inclusive upper bound *)
  j_pending : int Atomic.t;     (* points not yet finished *)
  j_error : exn option Atomic.t;
  j_min_chunk : int;            (* smallest guided claim *)
  j_max_chunk : int;            (* largest guided claim: bounds how long a
                                   preempted worker can sit on a chunk *)
  j_fixed : int;                (* > 0: fixed chunk size (stealing off) *)
  (* Stats plumbing.  [j_stats] is captured at publish time so the
     metrics flag flipping mid-job cannot leave half-counted work.
     [j_points] is filled *before* the pending decrement, so it is
     complete once the caller's barrier opens; the cumulative [j_wc]
     counters are published after a worker's last chunk, so the caller
     additionally waits for [j_active] to drain before reading them. *)
  j_stats : bool;
  j_points : int Atomic.t array;  (* per-worker points, this job only *)
  j_wc : wc array;
  j_active : int Atomic.t;        (* stats-mode workers mid-publication *)
}

type t = {
  p_size : int;                 (* total workers including the caller *)
  p_mutex : Mutex.t;
  p_wake : Condition.t;
  p_busy : bool Atomic.t;       (* a job is in flight: re-entrant calls run inline *)
  p_job : job option Atomic.t;
  p_epoch : int Atomic.t;       (* bumped for every new job *)
  p_sleepers : int Atomic.t;    (* workers parked on [p_wake] *)
  p_shutdown : bool Atomic.t;
  mutable p_domains : unit Domain.t list;
  p_wc : wc array;
  (* Job-level accumulators, touched only by the caller that holds
     [p_busy] (and by [stats]/[reset_stats] between jobs). *)
  mutable p_sjobs : int;        (* parallel_for calls measured *)
  mutable p_elapsed_ns : int;   (* wall time inside those calls *)
  mutable p_imb_sum : float;    (* sum of per-job max/mean point ratios *)
}

(* How many [cpu_relax] spins a worker performs on the epoch counter
   before parking.  Large enough that back-to-back DOALL epochs (the
   wavefront shape) are mutex-free, small enough that an idle pool does
   not burn a core for long. *)
let spin_budget = 1024

(* Minimum points a slice is worth: a range smaller than [2 * slice_grain]
   is published as a single slice, so tiny wavefront DOALLs don't pay
   per-slice cursor traffic for work the caller finishes alone. *)
let slice_grain = 32

(* Jobs below this span never broadcast: waking a parked worker costs
   more than the whole loop.  Workers still spinning from the previous
   epoch help regardless — that is the back-to-back wavefront case. *)
let wake_threshold = 64

(* ------------------------------------------------------------------ *)
(* Claiming and executing chunks *)

(* Claim a chunk from slice [s] of [job]; [None] when the slice is dry.
   Guided self-scheduling: take half of what remains, never less than
   the minimum chunk (or exactly [j_fixed] when stealing is off). *)
let rec claim job s =
  let cur = Atomic.get job.j_next.(s) in
  let limit = job.j_limit.(s) in
  if cur > limit then None
  else
    let remaining = limit - cur + 1 in
    let take =
      if job.j_fixed > 0 then min job.j_fixed remaining
      else
        min remaining
          (max job.j_min_chunk (min job.j_max_chunk (remaining / 2)))
    in
    if Atomic.compare_and_set job.j_next.(s) cur (cur + take) then
      Some (cur, cur + take - 1)
    else claim job s

let exec_chunk job lo hi =
  (* Once a body has failed, later chunks are claimed and counted but
     not executed, so the loop drains deterministically without raising
     the same exception once per chunk. *)
  (if Atomic.get job.j_error = None then
     try job.j_body lo hi
     with exn -> ignore (Atomic.compare_and_set job.j_error None (Some exn)));
  ignore (Atomic.fetch_and_add job.j_pending (-(hi - lo + 1)))

let drain_slice job s =
  let rec loop () =
    match claim job s with
    | Some (lo, hi) ->
      exec_chunk job lo hi;
      loop ()
    | None -> ()
  in
  loop ()

(* Stats-mode execution: per-job points are recorded *before* the
   pending decrement, so once the caller's pending barrier opens the
   [j_points] array is complete and the imbalance summary is exact. *)
let exec_chunk_stats job index lo hi =
  (if Atomic.get job.j_error = None then
     try job.j_body lo hi
     with exn -> ignore (Atomic.compare_and_set job.j_error None (Some exn)));
  ignore (Atomic.fetch_and_add job.j_points.(index) (hi - lo + 1));
  ignore (Atomic.fetch_and_add job.j_pending (-(hi - lo + 1)))

(* Like [drain_slice] but counting: returns (chunks, points) claimed
   from slice [s] by worker [index]. *)
let drain_slice_counted job index s =
  let chunks = ref 0 and points = ref 0 in
  let rec loop () =
    match claim job s with
    | Some (lo, hi) ->
      exec_chunk_stats job index lo hi;
      incr chunks;
      points := !points + (hi - lo + 1);
      loop ()
    | None -> ()
  in
  loop ();
  (!chunks, !points)

(* Run chunks as worker [index]: own slice first, then steal from the
   other slices round-robin.  Completion never depends on any *other*
   worker waking up — whoever runs this to the end has visited every
   slice, so the caller alone can finish the whole job. *)
let run_chunks_plain job index =
  let slices = Array.length job.j_next in
  let start = if index < slices then index else 0 in
  for i = 0 to slices - 1 do
    drain_slice job ((start + i) mod slices)
  done

(* The counted twin.  A claim on a foreign slice is a steal; a visit to
   a foreign slice costs one failed attempt plus one per stolen chunk.
   Workers that execute nothing publish nothing, so a straggler waking
   into an already-drained job cannot pollute the next job's counters.
   Publication is bracketed by [j_active] so the caller can wait for the
   cumulative counters to be complete before reading them. *)
let run_chunks_stats job index =
  Atomic.incr job.j_active;
  let t0 = Metrics.now_ns () in
  let slices = Array.length job.j_next in
  let start = if index < slices then index else 0 in
  let chunks = ref 0 and steals = ref 0 and attempts = ref 0 in
  for i = 0 to slices - 1 do
    let s = (start + i) mod slices in
    let c, _ = drain_slice_counted job index s in
    chunks := !chunks + c;
    if i > 0 then begin
      attempts := !attempts + c + 1;
      steals := !steals + c
    end
  done;
  (if !chunks > 0 then begin
     let c = job.j_wc.(index) in
     ignore (Atomic.fetch_and_add c.wc_chunks !chunks);
     ignore (Atomic.fetch_and_add c.wc_points (Atomic.get job.j_points.(index)));
     ignore (Atomic.fetch_and_add c.wc_steal_attempts !attempts);
     ignore (Atomic.fetch_and_add c.wc_steals !steals);
     ignore (Atomic.fetch_and_add c.wc_busy_ns (Metrics.now_ns () - t0))
   end);
  Atomic.decr job.j_active

let run_chunks job index =
  if job.j_stats then run_chunks_stats job index
  else run_chunks_plain job index

(* ------------------------------------------------------------------ *)
(* Workers *)

let worker pool index =
  let rec wait epoch =
    let rec spin budget =
      if Atomic.get pool.p_shutdown then ()
      else if Atomic.get pool.p_epoch <> epoch then ()
      else if budget = 0 then park ()
      else begin
        Domain.cpu_relax ();
        spin (budget - 1)
      end
    and park () =
      (* Parking is already the slow path (mutex + condvar), so the
         one-atomic-load metrics guard costs nothing measurable here. *)
      if Metrics.enabled () then
        Atomic.incr pool.p_wc.(index).wc_parks;
      Mutex.lock pool.p_mutex;
      Atomic.incr pool.p_sleepers;
      while
        (not (Atomic.get pool.p_shutdown)) && Atomic.get pool.p_epoch = epoch
      do
        Condition.wait pool.p_wake pool.p_mutex
      done;
      Atomic.decr pool.p_sleepers;
      Mutex.unlock pool.p_mutex;
      if Metrics.enabled () && not (Atomic.get pool.p_shutdown) then
        Atomic.incr pool.p_wc.(index).wc_wakes
    in
    spin spin_budget;
    if Atomic.get pool.p_shutdown then ()
    else begin
      (* Reading the epoch before the job is what makes this safe: a job
         is published before its epoch bump, so whatever epoch we see,
         the job read below is either that epoch's job (we help), an
         already-finished one (its cursors are dry), or None (the job
         completed without us).  Claims are idempotent under re-entry. *)
      let epoch' = Atomic.get pool.p_epoch in
      (match Atomic.get pool.p_job with
       | Some job -> run_chunks job index
       | None -> ());
      wait epoch'
    end
  in
  wait 0

let create size =
  let size = max 1 size in
  let pool =
    { p_size = size;
      p_mutex = Mutex.create ();
      p_wake = Condition.create ();
      p_busy = Atomic.make false;
      p_job = Atomic.make None;
      p_epoch = Atomic.make 0;
      p_sleepers = Atomic.make 0;
      p_shutdown = Atomic.make false;
      p_domains = [];
      p_wc = Array.init size (fun _ -> make_wc ());
      p_sjobs = 0;
      p_elapsed_ns = 0;
      p_imb_sum = 0.0 }
  in
  pool.p_domains <-
    List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker pool (i + 1)));
  pool

let size pool = pool.p_size

let shutdown pool =
  Atomic.set pool.p_shutdown true;
  Mutex.lock pool.p_mutex;
  Condition.broadcast pool.p_wake;
  Mutex.unlock pool.p_mutex;
  List.iter Domain.join pool.p_domains;
  pool.p_domains <- []

let parallel_for ?chunk ?(steal = true) ?wake pool ~lo ~hi
    (body : int -> int -> unit) =
  if lo > hi then ()
  else if hi = lo then body lo hi
  else if pool.p_size = 1 then body lo hi
  else if not (Atomic.compare_and_set pool.p_busy false true) then
    (* Re-entrant call (e.g. a nested DOALL reached dynamically): run
       inline rather than queue behind the outer job. *)
    body lo hi
  else begin
    let span = hi - lo + 1 in
    (* Per-job settings: a scheduling policy's choices for one nest. *)
    let wake_at = match wake with Some w -> w | None -> wake_threshold in
    (* Captured once per job: flipping the metrics flag mid-flight must
       not leave a half-counted job. *)
    let stats = Metrics.enabled () in
    let t_start = if stats then Metrics.now_ns () else 0 in
    let points =
      if stats then Array.init pool.p_size (fun _ -> Atomic.make 0) else [||]
    in
    let active = Atomic.make 0 in
    let job =
      if steal then begin
        (* One contiguous slice per worker — but never slices smaller
           than the grain; slice [i] owns [lo + i*len .. ...], the last
           slice takes the remainder. *)
        let slices = max 1 (min pool.p_size (span / slice_grain)) in
        let len = span / slices in
        let next =
          Array.init slices (fun i -> Atomic.make (lo + (i * len)))
        in
        let limit =
          Array.init slices (fun i ->
              if i = slices - 1 then hi else lo + ((i + 1) * len) - 1)
        in
        { j_body = body;
          j_next = next;
          j_limit = limit;
          j_pending = Atomic.make span;
          j_error = Atomic.make None;
          (* Halving from len bottoms out at min_chunk: an eighth of a
             slice keeps 8 stealable pieces per slice while claiming no
             more often than the fixed baseline does. *)
          j_min_chunk =
            (match chunk with Some c -> max 1 c | None -> max 1 (len / 8));
          j_max_chunk = max slice_grain (len / 4);
          j_fixed = 0;
          j_stats = stats;
          j_points = points;
          j_wc = pool.p_wc;
          j_active = active }
      end
      else begin
        (* Baseline scheduler: one shared slice, fixed chunks sized for
           several chunks per worker. *)
        let c =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 (span / (pool.p_size * 4))
        in
        { j_body = body;
          j_next = [| Atomic.make lo |];
          j_limit = [| hi |];
          j_pending = Atomic.make span;
          j_error = Atomic.make None;
          j_min_chunk = c;
          j_max_chunk = max_int;
          j_fixed = c;
          j_stats = stats;
          j_points = points;
          j_wc = pool.p_wc;
          j_active = active }
      end
    in
    (* Publish: job first, then the epoch bump the workers watch.  The
       mutex is only touched when somebody is actually parked. *)
    Atomic.set pool.p_job (Some job);
    Atomic.incr pool.p_epoch;
    if span >= wake_at && Atomic.get pool.p_sleepers > 0 then begin
      Mutex.lock pool.p_mutex;
      Condition.broadcast pool.p_wake;
      Mutex.unlock pool.p_mutex
    end;
    (* The caller works too (as worker 0), then waits out stragglers on
       the reusable barrier: at most one chunk per worker remains in
       flight, so spin briefly, then yield the processor — on a machine
       with fewer cores than workers the straggler needs this core to
       finish its chunk at all. *)
    run_chunks job 0;
    let spins = ref 0 in
    while
      Atomic.get job.j_pending > 0
      || (job.j_stats && Atomic.get job.j_active > 0)
    do
      incr spins;
      if !spins >= spin_budget then begin
        spins := 0;
        Thread.yield ()
      end
      else Domain.cpu_relax ()
    done;
    if job.j_stats then begin
      (* Everything below is caller-only state ([p_busy] is still
         held) and the waits above ordered the workers' publications
         before these reads. *)
      pool.p_sjobs <- pool.p_sjobs + 1;
      pool.p_elapsed_ns <-
        pool.p_elapsed_ns + (Metrics.now_ns () - t_start);
      let max_points =
        Array.fold_left (fun m a -> max m (Atomic.get a)) 0 job.j_points
      in
      let mean = float_of_int span /. float_of_int pool.p_size in
      pool.p_imb_sum <- pool.p_imb_sum +. (float_of_int max_points /. mean)
    end;
    Atomic.set pool.p_job None;
    Atomic.set pool.p_busy false;
    match Atomic.get job.j_error with
    | Some exn -> raise exn
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Statistics *)

type worker_stats = {
  ws_chunks : int;
  ws_points : int;
  ws_steal_attempts : int;
  ws_steals : int;
  ws_parks : int;
  ws_wakes : int;
  ws_busy_ns : int;
}

type summary = {
  sm_jobs : int;
  sm_elapsed_ns : int;
  sm_busy_ns : int;
  sm_utilization : float;
  sm_imbalance : float;
  sm_chunks : int;
  sm_points : int;
  sm_steal_attempts : int;
  sm_steals : int;
  sm_parks : int;
  sm_wakes : int;
}

let stats pool =
  Array.map
    (fun c ->
      { ws_chunks = Atomic.get c.wc_chunks;
        ws_points = Atomic.get c.wc_points;
        ws_steal_attempts = Atomic.get c.wc_steal_attempts;
        ws_steals = Atomic.get c.wc_steals;
        ws_parks = Atomic.get c.wc_parks;
        ws_wakes = Atomic.get c.wc_wakes;
        ws_busy_ns = Atomic.get c.wc_busy_ns })
    pool.p_wc

let summary pool =
  let ws = stats pool in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 ws in
  let busy = sum (fun w -> w.ws_busy_ns) in
  let elapsed = pool.p_elapsed_ns in
  { sm_jobs = pool.p_sjobs;
    sm_elapsed_ns = elapsed;
    sm_busy_ns = busy;
    sm_utilization =
      (if elapsed = 0 then 0.0
       else float_of_int busy /. (float_of_int elapsed *. float_of_int pool.p_size));
    sm_imbalance =
      (if pool.p_sjobs = 0 then 0.0
       else pool.p_imb_sum /. float_of_int pool.p_sjobs);
    sm_chunks = sum (fun w -> w.ws_chunks);
    sm_points = sum (fun w -> w.ws_points);
    sm_steal_attempts = sum (fun w -> w.ws_steal_attempts);
    sm_steals = sum (fun w -> w.ws_steals);
    sm_parks = sum (fun w -> w.ws_parks);
    sm_wakes = sum (fun w -> w.ws_wakes) }

let reset_stats pool =
  Array.iter
    (fun c ->
      Atomic.set c.wc_chunks 0;
      Atomic.set c.wc_points 0;
      Atomic.set c.wc_steal_attempts 0;
      Atomic.set c.wc_steals 0;
      Atomic.set c.wc_parks 0;
      Atomic.set c.wc_wakes 0;
      Atomic.set c.wc_busy_ns 0)
    pool.p_wc;
  pool.p_sjobs <- 0;
  pool.p_elapsed_ns <- 0;
  pool.p_imb_sum <- 0.0

(* Flush the pool's counters into the process-wide registry and zero
   them, so stats from consecutive pools (or consecutive drains of one
   pool) aggregate without double-counting. *)
let drain_stats pool =
  let sm = summary pool in
  Metrics.add (Metrics.counter "pool.jobs") sm.sm_jobs;
  Metrics.add (Metrics.counter "pool.elapsed_ns") sm.sm_elapsed_ns;
  Metrics.add (Metrics.counter "pool.busy_ns") sm.sm_busy_ns;
  Metrics.add (Metrics.counter "pool.chunks") sm.sm_chunks;
  Metrics.add (Metrics.counter "pool.points") sm.sm_points;
  Metrics.add (Metrics.counter "pool.steal_attempts") sm.sm_steal_attempts;
  Metrics.add (Metrics.counter "pool.steals") sm.sm_steals;
  Metrics.add (Metrics.counter "pool.parks") sm.sm_parks;
  Metrics.add (Metrics.counter "pool.wakes") sm.sm_wakes;
  Metrics.set (Metrics.gauge "pool.size") pool.p_size;
  Metrics.set (Metrics.gauge "pool.utilization_permille")
    (int_of_float (sm.sm_utilization *. 1000.0));
  Metrics.set (Metrics.gauge "pool.imbalance_permille")
    (int_of_float (sm.sm_imbalance *. 1000.0));
  reset_stats pool

let render_stats pool =
  let ws = stats pool in
  let sm = summary pool in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "pool: %d workers, %d jobs, utilization %.1f%%, imbalance %.2fx\n"
       pool.p_size sm.sm_jobs
       (sm.sm_utilization *. 100.0)
       sm.sm_imbalance);
  Buffer.add_string b
    (Printf.sprintf "%-8s %10s %10s %8s %9s %7s %7s %10s\n" "worker" "chunks"
       "points" "steals" "attempts" "parks" "wakes" "busy ms");
  Array.iteri
    (fun i w ->
      Buffer.add_string b
        (Printf.sprintf "%-8s %10d %10d %8d %9d %7d %7d %10.3f\n"
           (if i = 0 then "caller" else Printf.sprintf "w%d" i)
           w.ws_chunks w.ws_points w.ws_steals w.ws_steal_attempts w.ws_parks
           w.ws_wakes
           (float_of_int w.ws_busy_ns /. 1e6)))
    ws;
  Buffer.contents b

(* Run [f] with a temporary pool of [size] workers.  When the metrics
   registry is live the pool's counters are drained into it on the way
   out (also on exceptions), so back-to-back pools aggregate instead of
   vanishing with the pool — and each pool starts from zero. *)
let with_pool size f =
  let pool = create size in
  Fun.protect
    ~finally:(fun () ->
      if Metrics.enabled () then drain_stats pool;
      shutdown pool)
    (fun () -> f pool)

let recommended_size () = Domain.recommended_domain_count ()
