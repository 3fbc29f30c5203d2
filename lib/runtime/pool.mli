(** A fixed pool of worker domains executing parallel for loops — the
    MIMD substrate the scheduler's DOALL loops target.

    Workers are spawned once; between jobs they spin briefly on an epoch
    counter and then park, so issuing a job from a tight outer loop
    (the wavefront shape, [DO K (DOALL ...)]) costs an atomic store per
    epoch rather than a mutex round-trip.  {!parallel_for} splits the
    range into per-worker slices with guided self-scheduling chunks;
    workers that finish their slice steal from the others, so uneven
    iteration costs still balance. *)

type t

val create : int -> t
(** [create n] spawns a pool of [n] workers total (including the calling
    domain); clamped to at least 1. *)

val size : t -> int

val shutdown : t -> unit
(** Terminate and join the workers.  The pool must not be used after. *)

val with_pool : int -> (t -> 'a) -> 'a
(** Run with a temporary pool, shutting it down on exit (also on
    exceptions).  While {!Ps_obs.Metrics} is enabled, the pool's
    counters are flushed into the registry ([pool.steals],
    [pool.busy_ns], [pool.utilization_permille], …) on the way out. *)

val parallel_for :
  ?chunk:int ->
  ?steal:bool ->
  ?wake:int ->
  t ->
  lo:int ->
  hi:int ->
  (int -> int -> unit) ->
  unit
(** [parallel_for pool ~lo ~hi body] runs [body a b] over disjoint chunks
    covering [lo..hi] (inclusive), concurrently.  Empty ranges do
    nothing.  A re-entrant call from inside a running job executes
    inline.  If bodies raise, the remaining iterations are drained
    without executing and the first exception is re-raised at the
    caller.

    The optionals are one job's settings, a scheduling policy's choices
    for one nest.  [steal] (default [true]) deals per-worker slices with
    guided chunks and work stealing; [~steal:false] keeps a single
    shared queue with fixed [span / (4 * size)] chunks — the measurable
    baseline for A/B runs.  [chunk] sets the minimum claim size
    (stealing) or the fixed chunk size (baseline); at least 1.  [wake]
    replaces {!wake_threshold} for this job's parked-worker broadcast. *)

val recommended_size : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val wake_threshold : int
(** Jobs whose span is below this never wake parked workers — waking
    costs more than the whole loop.  Exposed so the lint pass can warn
    about DOALLs that will run effectively sequentially (W120). *)

(** {1 Statistics}

    Collected only while {!Ps_obs.Metrics.enabled} — every disabled
    call site in the hot path costs a single atomic load.  Whether a
    given job is measured is captured when it is published, so flipping
    the flag mid-job cannot half-count work. *)

type summary = {
  sm_jobs : int;            (** measured [parallel_for] invocations *)
  sm_elapsed_ns : int;      (** wall time inside those invocations *)
  sm_busy_ns : int;         (** sum of worker busy time *)
  sm_utilization : float;   (** busy / (elapsed × size), in [0,1] *)
  sm_imbalance : float;     (** mean over jobs of max/mean worker points;
                                1.0 is perfectly balanced *)
  sm_chunks : int;
  sm_points : int;
  sm_steal_attempts : int;
  sm_steals : int;
  sm_parks : int;
  sm_wakes : int;
}

val summary : t -> summary
(** Pool-wide rollup of the per-worker counters plus per-job
    imbalance/elapsed data. *)

val reset_stats : t -> unit
(** Zero all counters.  Call between jobs, not while one is in flight. *)

val render_stats : t -> string
(** Human-readable per-worker table plus the {!summary} header line. *)
