(** The compile service: a long-lived [psc serve] process answering
    newline-delimited JSON requests ({!Proto}) over a Unix-domain
    socket, or over stdin/stdout.

    There is one event-driven transport: the serving thread runs one
    poll(2) event loop ({!Evpoll}) over the listener and every
    connection, accepting clients and framing request lines in time
    linear in their length into a bounded queue drained by a fixed pool
    of worker threads.  Stdio is
    one more connection of that core (stdin in, stdout out), so it is
    pipelined, shed and drained exactly like a socket client.  When the
    queue is full the server sheds load — the request is answered E033
    immediately ([stats] and [shutdown] bypass the bound) — and
    responses are staged in per-connection write buffers flushed as the
    descriptors accept them, so one slow reader never stalls the loop.
    Connections are pipelined: responses correlate by id, not by
    arrival order.

    A request never kills the server: malformed JSON, unknown
    operations, compile errors, runtime traps and expired deadlines are
    all answered on the wire with the unified E03x diagnostic codes.
    SIGTERM, a [shutdown] request or the end of the stdio connection
    flips the draining flag — the listener closes, lines framed from
    then on get E032, in-flight requests finish and are answered, every
    worker thread is joined, and the process exits cleanly. *)

type config = {
  cf_socket : string option;  (** [None]: stdin/stdout, no listener *)
  cf_workers : int;           (** worker threads = concurrent request bound *)
  cf_pool : int;              (** domain pool size; 0 = sequential *)
  cf_cache : int;             (** artifact cache capacity *)
  cf_max_queue : int;
      (** bounded request queue depth; requests past it are shed with
          E033 instead of buffered unboundedly *)
  cf_grace_ms : int;          (** drain: wait this long for clients to leave *)
  cf_access_log : string option;
      (** write one structured JSON line per request (rejects included) *)
  cf_slow_ms : int option;
      (** capture the span subtree of requests slower than this into a
          bounded ring, visible in the [stats] reply under ["slow"] *)
  cf_metrics_json : string option;
      (** dump the final metrics registry here on clean shutdown *)
}

val main : config -> unit
(** Run the server until it drains: SIGTERM or a [shutdown] request,
    or, in stdio mode, the stdio connection closing (end of input once
    every admitted request is answered and flushed).  A drain waits at
    most [cf_grace_ms] for connections that stay open, the stdio one
    included.  Enables {!Psc.Metrics}, installs the SIGTERM handler,
    ignores SIGPIPE, puts stdin and stdout back in blocking mode after a
    stdio session, and shuts the domain pool down only after every
    worker thread has been joined. *)
