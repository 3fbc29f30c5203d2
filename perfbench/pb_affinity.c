/* CPU affinity for the serve workload (Pb.pin_one_cpu). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pin the calling thread, and so every process it spawns afterwards,
   to the highest-numbered CPU of its current affinity mask.  Returns
   that CPU, or -1 where the mask cannot be read or set. */
value pb_pin_one_cpu(value unit)
{
  cpu_set_t set;
  int c, last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(last);
}
