(** Process-wide metrics registry: counters, gauges, quantile sketches.

    Off by default; instrumented call sites guard on {!enabled} (one
    atomic load).  Metric updates are lock-free atomics; registration by
    name takes a mutex once per site.  All values are integers — scale
    and name fractional quantities explicitly ([…_ns], […_permille]). *)

val enabled : unit -> bool

val set_enabled : bool -> unit

type counter

type gauge

val counter : string -> counter
(** Get or create by name.
    @raise Invalid_argument if the name exists with another kind. *)

val gauge : string -> gauge

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val set : gauge -> int -> unit

val gauge_value : gauge -> int

type sketch
(** A quantile sketch: a log2 histogram of every sample since the last
    {!reset}, answering p50/p90/p99/max with one-bucket resolution
    (relative error below 2x). *)

val sketch : string -> sketch
(** Get or create by name, like {!counter}. *)

val sk_observe : sketch -> int -> unit
(** Record a sample (negative values clamp to 0).  Lock-free. *)

type quantiles = {
  qs_count : int;  (** samples recorded; 0 means all else is 0 *)
  qs_p50 : int;
  qs_p90 : int;
  qs_p99 : int;
  qs_max : int;  (** exact max *)
}

val sk_quantiles : sketch -> quantiles
(** Each estimate is the holding bucket's upper bound clamped to the
    exact max, so p50 <= p90 <= p99 <= max always holds. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val clear : unit -> unit
(** Drop all registrations — tests only; live [counter] handles held by
    instrumented code keep working but detach from the registry. *)

val counter_value_opt : string -> int option
(** Look up a counter by name (None if absent or not a counter). *)

val render_json : unit -> string
(** A JSON array of [{"name","kind",...}] rows, sorted by name. *)

val now_ns : unit -> int
(** CLOCK_MONOTONIC in nanoseconds, from an arbitrary origin — the
    clock shared by the pool counters, the profiler and the server's
    deadlines and latencies.  Only differences are meaningful; {!Trace}
    keeps the wall clock, whose epoch trace merging needs. *)
