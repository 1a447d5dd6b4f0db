/* Peak resident set sizes for the benchmark worker: its own, and the
   largest child it has reaped (the sandbox children under --isolate
   proc).  getrusage reports both in KiB on Linux. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

CAMLprim value octobench_maxrss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
