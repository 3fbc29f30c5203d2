(** Readiness multiplexing for the compile service's event loop.

    A thin wrapper over poll(2).  Unix.select cannot watch descriptors
    numbered past FD_SETSIZE (1024 on Linux), and a server may hold
    1024 client sockets at once (a stress case does), so the event loop
    polls instead.  The underlying stub releases the OCaml runtime lock for
    the duration of the wait, so worker threads keep draining the
    request queue while the event loop sleeps. *)

type interest = { want_read : bool; want_write : bool }

type ready = { readable : bool; writable : bool; errored : bool }

val poll :
  (Unix.file_descr * interest) array ->
  timeout_ms:int ->
  (int * ready) list
(** [poll spec ~timeout_ms] waits until one of the watched descriptors
    is ready (or the timeout, in milliseconds, expires; [-1] blocks)
    and returns the ready subset as [(index into spec, ready)] pairs in
    ascending index order — the caller maps indices straight back to
    its connection records.  Hangups and errors report as [readable] (a
    subsequent read surfaces the condition), with [errored]
    additionally set for error/invalid descriptors.  An interrupted
    wait (EINTR) returns the empty list so callers re-check their state
    (the draining flag) on their normal path. *)
