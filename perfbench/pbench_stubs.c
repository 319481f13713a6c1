/* Allocation-free monotonic clock for the benchmark's spans and slices:
 * the value crosses into OCaml unboxed, so reading the clock does not
 * move the minor-heap counter the benchmark also reports. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double pb_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

CAMLprim value pb_now_ns(value unit)
{
  return caml_copy_double(pb_now_ns_unboxed(unit));
}
