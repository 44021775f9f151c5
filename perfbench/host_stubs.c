/* Host access the OCaml standard library lacks: CPU affinity, so
   rounds can alternate between the CPUs the process may use, and a
   nanosecond monotonic clock. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The CPUs this process may run on, ascending; empty if unknown. */
value bench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int cpus[CPU_SETSIZE];
  int n = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; c++)
      if (CPU_ISSET(c, &set)) cpus[n++] = c;
  if (n == 0) CAMLreturn(Atom(0));
  res = caml_alloc_tuple(n);
  for (int i = 0; i < n; i++) Store_field(res, i, Val_int(cpus[i]));
  CAMLreturn(res);
}

/* Restrict the calling thread to one CPU; false if the kernel refused. */
value bench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* CLOCK_MONOTONIC in nanoseconds: exact to the nanosecond where
   gettimeofday's seconds-since-1970 double keeps only ~0.2 us. */
value bench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
