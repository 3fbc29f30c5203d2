(** Span-based tracing with a Chrome trace-event JSON exporter.

    Off by default: every instrumented call site pays exactly one atomic
    load until {!set_enabled}[ true] (or a {!collect} is live).  Spans
    nest per thread — the recording thread's id (systhreads and domains
    both get distinct ids) becomes the Chrome [tid] and the real OS
    process id the [pid].  Timestamps are microseconds from the moment
    tracing was enabled and are monotone per thread; the absolute
    wall-clock epoch is recorded in the file so {!merge} can stitch
    traces from several processes onto one timeline.  The emitted file
    loads in Perfetto / chrome://tracing and round-trips through
    {!parse_chrome} / {!parse_chrome_file} and {!validate}. *)

type phase = Begin | End | Instant

type event = {
  ev_name : string;
  ev_ph : phase;
  ev_ts : float;  (** microseconds since the trace was enabled *)
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

val set_enabled : bool -> unit
(** Enabling also {!reset}s the store and restarts the clock. *)

val reset : unit -> unit
(** Drop all recorded events and restart the trace clock. *)

val fresh_span_id : unit -> string
(** A process-unique span id ("pid.counter").  Attach it as a ["sid"]
    arg on a Begin span; {!validate} rejects a timeline in which the
    same sid appears on two Begin events, which catches one process's
    trace merged twice. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], bracketing it with Begin/End events
    when tracing is enabled or this thread is inside {!collect} (the
    End is recorded even when [f] raises).  Otherwise this is [f ()]
    after a single atomic load. *)

val collect : (unit -> 'a) -> 'a * event list
(** [collect f] runs [f] and returns the events recorded on this thread
    during the call, in record order — even when the global store is
    disabled.  Used by the server to capture a slow request's span
    subtree without tracing every request.  Does not nest. *)

val events : unit -> event list
(** Everything recorded since the last reset, in record order. *)

val to_chrome_json : unit -> string
(** The Chrome trace-event rendering ({v {"traceEvents": [...]} v}),
    including the absolute epoch under ["otherData"]["epoch_us"]. *)

val render_events : ?epoch_us:float -> event list -> string
(** Render an explicit event list (e.g. a {!merge} result) in the same
    file format.  [epoch_us] defaults to [0.0]. *)

val write : string -> unit
(** Write {!to_chrome_json} to a file. *)

val write_events : ?epoch_us:float -> string -> event list -> unit
(** Write {!render_events} to a file. *)

val span_durations : event list -> (string * float) list
(** Fold matched Begin/End pairs into [(name, duration_us)] rows in
    begin order; unmatched events are dropped.  The rendering of a
    collected span subtree in the server's slow-request ring. *)

(** The shared JSON module, kept under this name for existing callers. *)
module Json = Ps_json

exception Invalid_trace of string

type file = {
  f_epoch_us : float;  (** absolute wall-clock epoch; 0 when absent *)
  f_events : event list;
}

val parse_chrome_file : string -> file
(** Parse a Chrome trace-event file (object or bare-array form) back
    into events, in file order, keeping the recorded epoch.  Events
    written before the exporter carried pids default to pid 1.
    @raise Invalid_trace on malformed input. *)

val parse_chrome : string -> event list
(** [parse_chrome s] is [(parse_chrome_file s).f_events]. *)

val merge : file list -> event list
(** Stitch traces from several processes onto one timeline: each file's
    timestamps are shifted by its epoch's offset from the earliest one,
    then all events are stably sorted by timestamp (ties keep file
    order, preserving per-(pid,tid) monotonicity). *)

val validate : event list -> (unit, string) result
(** Per-(pid,tid) structural checks: timestamps never decrease, every
    [E] closes the matching innermost [B], nothing is left open, and no
    ["sid"] arg appears on two Begin events. *)
