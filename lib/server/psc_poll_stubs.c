/* poll(2) binding for the compile service's event loop.

   Unix.select is fd_set-based: any descriptor numbered >= FD_SETSIZE
   (1024 on Linux) is out of reach, and a server may hold 1024 client
   sockets at once.  poll has no such ceiling, so the event loop uses
   this stub instead.

   Interface (see evpoll.ml):
     input  - an array of (fd, interest) pairs, interest bit 0 = read,
              bit 1 = write; and a timeout in milliseconds (-1 = block).
     output - an int array of the same length: bit 0 = readable (or
              hangup/error, which a read will surface), bit 1 =
              writable, bit 2 = error/invalid.

   The runtime lock is released around the poll call so worker threads
   keep running while the event loop sleeps; EINTR reports "no events"
   rather than failing, letting the caller notice signal-driven state
   (the draining flag) on its normal path. */

#include <poll.h>
#include <errno.h>
#include <stdlib.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

CAMLprim value psc_poll_stub(value v_fds, value v_timeout_ms)
{
  CAMLparam2(v_fds, v_timeout_ms);
  CAMLlocal2(v_res, v_pair);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds = NULL;
  mlsize_t i;
  int rc = 0;

  if (n > 0) {
    pfds = malloc(n * sizeof(struct pollfd));
    if (pfds == NULL) caml_failwith("psc_poll: out of memory");
    for (i = 0; i < n; i++) {
      int interest;
      v_pair = Field(v_fds, i);
      /* Unix.file_descr is an int on Unix. */
      pfds[i].fd = Int_val(Field(v_pair, 0));
      interest = Int_val(Field(v_pair, 1));
      pfds[i].events = (short)(((interest & 1) ? POLLIN : 0)
                               | ((interest & 2) ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
  }

  caml_release_runtime_system();
  rc = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (rc < 0 && errno != EINTR) {
    free(pfds);
    caml_failwith("psc_poll: poll failed");
  }

  v_res = caml_alloc(n, 0);
  for (i = 0; i < n; i++) {
    int r = 0;
    if (rc > 0) {
      short re = pfds[i].revents;
      if (re & (POLLIN | POLLHUP | POLLERR)) r |= 1;
      if (re & POLLOUT) r |= 2;
      if (re & (POLLERR | POLLNVAL)) r |= 4;
    }
    Store_field(v_res, i, Val_int(r));
  }
  free(pfds);
  CAMLreturn(v_res);
}
