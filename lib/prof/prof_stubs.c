/* Allocation-free clock probe for the profiler.
 *
 * A probe must not move the GC counter the profiler reads around it:
 * a boxed float result would land on the minor heap inside every span
 * window. This stub is [@@noalloc] + [@unboxed]: the value crosses into
 * OCaml in a register. The boxed entry point serves bytecode only.
 */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double prof_monotonic_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

CAMLprim value prof_monotonic_ns(value unit)
{
  return caml_copy_double(prof_monotonic_ns_unboxed(unit));
}
