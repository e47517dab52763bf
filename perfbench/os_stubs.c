/* Scheduling controls for the benchmark process (Linux; no-ops
   elsewhere).  Threads and child processes created afterwards inherit
   both settings. */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#endif

/* Shrink the timer slack so the open-loop sender wakes close to each
   request's due time (the default adds up to 50 us to every sleep). */
value perfbench_set_timerslack_ns(value ns)
{
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#endif
  return Val_unit;
}

/* Restrict the calling thread to the last CPU it may run on; returns
   that CPU, or -1 when the affinity could not be set. */
value perfbench_pin_last_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0; i--) {
      if (CPU_ISSET(i, &set)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(i, &one);
        return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? i : -1);
      }
    }
  }
#endif
  return Val_int(-1);
}

/* In a freshly forked child: be killed when the parent dies, so a
   server never outlives the benchmark that started it. */
value perfbench_die_with_parent(value unit)
{
  (void)unit;
#ifdef __linux__
  prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
#endif
  return Val_unit;
}
