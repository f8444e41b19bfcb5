// Ablation for Section 5.2.1: the datavector semijoin against the hash
// and merge semijoins, on the workload that motivates it — one selection
// followed by p semijoins fetching value attributes ("in many TPC-D
// queries it reduces the cost of multiple semijoins by more than half").
// The `Repeated` benchmarks time the p semijoins: every datavector
// semijoin probes the dense extent (one subtraction per right-operand oid)
// and then fetches the hits positionally.

#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <vector>

#include "bat/datavector.h"
#include "common/rng.h"
#include "kernel/operators.h"

namespace {

using namespace moaflat;  // NOLINT
using bat::Bat;
using bat::Column;
using bat::ColumnPtr;

/// Timing only: no tracer, no page accountant.
const kernel::ExecContext kCtx;

struct Fixture {
  std::vector<Bat> attrs_dv;    // tail-sorted, datavector attached
  std::vector<Bat> attrs_nodv;  // tail-sorted, no accelerator
  Bat selection;                // [oid, void], hsorted

  Fixture(size_t n, double selectivity, int num_attrs) {
    std::vector<Oid> oids(n);
    std::iota(oids.begin(), oids.end(), Oid{1});
    ColumnPtr extent = Column::MakeOid(oids);
    Rng rng(7);
    for (int a = 0; a < num_attrs; ++a) {
      std::vector<int32_t> vals(n);
      for (size_t i = 0; i < n; ++i) {
        vals[i] = static_cast<int32_t>(rng.Next() & 0xfffff);
      }
      ColumnPtr values = Column::MakeInt(vals);
      Bat oid_ordered(extent, values,
                      bat::Properties{true, false, true, false});
      Bat sorted = kernel::SortTail(kCtx, oid_ordered).ValueOrDie();
      Bat sorted_dv = sorted;
      sorted_dv.SetDatavector(
          std::make_shared<bat::Datavector>(extent, values));
      attrs_dv.push_back(std::move(sorted_dv));
      attrs_nodv.push_back(std::move(sorted));
    }
    // An oid-sorted selection of the requested selectivity.
    std::vector<Oid> sel;
    const size_t step = static_cast<size_t>(1.0 / selectivity);
    for (size_t i = 1; i <= n; i += step) sel.push_back(i);
    selection = Bat(Column::MakeOid(sel), Column::MakeVoid(0, sel.size()),
                    bat::Properties{true, false, true, true});
  }
};

void BM_HashSemijoin(benchmark::State& state) {
  Fixture f(1 << 18, 0.01, 1);
  for (auto _ : state) {
    auto out = kernel::Semijoin(kCtx, f.attrs_nodv[0], f.selection);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashSemijoin);

void BM_DatavectorSemijoin(benchmark::State& state) {
  Fixture f(1 << 18, 0.01, 1);
  for (auto _ : state) {
    auto out = kernel::Semijoin(kCtx, f.attrs_dv[0], f.selection);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DatavectorSemijoin);

/// The paper's OLAP pattern: one selection, then p value-attribute
/// fetches.
void BM_RepeatedSemijoins(benchmark::State& state, bool use_dv) {
  const int p = static_cast<int>(state.range(0));
  Fixture f(1 << 18, 0.01, p);
  auto& attrs = use_dv ? f.attrs_dv : f.attrs_nodv;
  for (auto _ : state) {
    for (int a = 0; a < p; ++a) {
      auto out = kernel::Semijoin(kCtx, attrs[a], f.selection);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(use_dv ? "datavector" : "hash");
}

void BM_RepeatedSemijoins_Hash(benchmark::State& state) {
  BM_RepeatedSemijoins(state, false);
}
void BM_RepeatedSemijoins_Datavector(benchmark::State& state) {
  BM_RepeatedSemijoins(state, true);
}
BENCHMARK(BM_RepeatedSemijoins_Hash)->Arg(3)->Arg(6)->Arg(12);
BENCHMARK(BM_RepeatedSemijoins_Datavector)->Arg(3)->Arg(6)->Arg(12);

void BM_SyncSemijoin(benchmark::State& state) {
  // Synced operands short-circuit to a zero-copy view.
  ColumnPtr head = Column::MakeOid([] {
    std::vector<Oid> v(1 << 18);
    std::iota(v.begin(), v.end(), Oid{1});
    return v;
  }());
  Bat a(head, Column::MakeInt(std::vector<int32_t>(1 << 18, 7)));
  Bat b(head, Column::MakeInt(std::vector<int32_t>(1 << 18, 9)));
  for (auto _ : state) {
    auto out = kernel::Semijoin(kCtx, a, b);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SyncSemijoin);

}  // namespace

BENCHMARK_MAIN();
