// Reproduces Fig. 10 of the paper: the detailed per-MIL-statement
// execution trace of TPC-D query 13 — elapsed time and page faults per
// statement, with the implementation the dynamic optimizer chose (the
// paper's narrative: binary-search select on Order_clerk, merge join via
// Item_order, datavector semijoins for the value attributes, whose results
// are synced, so the multiplexes over them run positionally).

#include <cstdio>
#include <cstdlib>

#include "moa/query.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

int main() {
  using namespace moaflat;  // NOLINT
  double sf = 0.01;
  if (const char* env = std::getenv("MOAFLAT_SF")) sf = std::atof(env);

  auto inst = tpcd::MakeInstance(sf).ValueOrDie();
  tpcd::QuerySuite suite(inst);

  std::printf("== Fig. 10: Q13 detailed Monet execution (SF %.3f) ==\n", sf);
  std::printf("MOA source:\n%s\n\n", suite.MoaText(13).c_str());

  storage::IoStats io;
  const kernel::ExecContext ctx = kernel::ExecContext().WithIo(&io);
  auto qr = moa::RunMoa(ctx, inst->db, suite.MoaText(13)).ValueOrDie();

  std::printf("%10s %8s %7s  %s\n", "elapsed-ms", "faults", "#out",
              "MIL statement  [chosen implementation]");
  for (const auto& t : qr.traces) {
    std::printf("%10.3f %8llu %7zu  %s", t.elapsed_us / 1000.0,
                static_cast<unsigned long long>(t.faults), t.out_size,
                t.text.c_str());
    if (!t.impl.empty()) std::printf("  [%s]", t.impl.c_str());
    std::printf("\n");
  }
  std::printf("\nresult structure: %s\n",
              qr.translation.result->ToString().c_str());
  std::printf("result:\n%s\n", qr.Render(10).ValueOrDie().c_str());
  std::printf("total page faults: %llu\n",
              static_cast<unsigned long long>(io.faults()));
  return 0;
}
