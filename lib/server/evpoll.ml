(* Readiness multiplexing for the compile service's event loop.

   A thin wrapper over poll(2) (see psc_poll_stubs.c).  Unix.select
   cannot watch descriptors numbered past FD_SETSIZE (1024 on Linux),
   and a server may hold 1024 client sockets at once (a stress case
   does), so the event loop polls instead.  The stub releases the OCaml
   runtime lock for the duration of the wait, so worker threads keep
   draining the request queue while the event loop sleeps.

   Results are reported by index into the watch array: the caller built
   that array this iteration and maps indices straight back to its
   connection records, with no fd-to-connection lookup. *)

type interest = { want_read : bool; want_write : bool }

type ready = { readable : bool; writable : bool; errored : bool }

external poll_stub : (Unix.file_descr * int) array -> int -> int array
  = "psc_poll_stub"

let poll (spec : (Unix.file_descr * interest) array) ~timeout_ms :
    (int * ready) list =
  let arr =
    Array.map
      (fun (fd, i) ->
        ( fd,
          (if i.want_read then 1 else 0) lor (if i.want_write then 2 else 0) ))
      spec
  in
  let revents = poll_stub arr timeout_ms in
  let out = ref [] in
  for i = Array.length revents - 1 downto 0 do
    let r = revents.(i) in
    if r <> 0 then
      out :=
        ( i,
          { readable = r land 1 <> 0;
            writable = r land 2 <> 0;
            errored = r land 4 <> 0 } )
        :: !out
  done;
  !out
