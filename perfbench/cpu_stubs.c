/* The calling thread's CPU time, for per-item costs that exclude time
   the machine's host steals from it. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
