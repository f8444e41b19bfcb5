// Validates the page-fault cost model against reality: for TPC-D Q1/Q13
// operator variants, the variant the KernelRegistry predicts cheapest
// (expected page faults, Section 5.2.2) must also be the measured-cheapest
// under the ExecContext IoStats accountant. Every variant runs on a
// freshly loaded instance so a head hash built by one variant cannot
// subsidize another.

#include <gtest/gtest.h>

#include <any>
#include <cmath>
#include <map>
#include <string>

#include "kernel/operators.h"
#include "kernel/registry.h"
#include "storage/page_accountant.h"
#include "tpcd/loader.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;

constexpr double kScale = 0.005;

Value D(int y, int m, int d) {
  return Value::MakeDate(Date::FromYmd(y, m, d));
}

std::shared_ptr<tpcd::TpcdInstance> FreshInstance() {
  return tpcd::MakeInstance(kScale).ValueOrDie();
}

/// Measured page faults of one registered variant, run in isolation.
template <typename Sig, typename RunFn>
uint64_t Measure(const KernelRegistry::Variant& v, const char* op,
                 RunFn&& run) {
  storage::IoStats io;
  ExecContext ctx;
  ctx.WithIo(&io);
  OpRecorder rec(ctx, op);
  const auto* fn = std::any_cast<std::function<Sig>>(&v.exec);
  EXPECT_NE(fn, nullptr) << v.name;
  auto result = run(ctx, *fn, rec);
  EXPECT_TRUE(result.ok()) << v.name << ": " << result.status().ToString();
  return io.faults();
}

std::string ArgminName(const std::map<std::string, uint64_t>& measured) {
  std::string best;
  for (const auto& [name, faults] : measured) {
    if (best.empty() || faults < measured.at(best)) best = name;
  }
  return best;
}

TEST(CostDispatchTest, Q1SelectPredictedCheapestIsMeasuredCheapest) {
  // The Q1 shipdate selection, narrowed to one month so the variants
  // separate clearly (the full <= 1998-09-02 predicate selects ~97% and
  // degenerates both variants into a full sweep).
  const Bound lo{true, true, D(1995, 6, 1)};
  const Bound hi{true, true, D(1995, 6, 30)};

  auto inst = FreshInstance();
  Bat shipdate = inst->db.Get("Item_shipdate").ValueOrDie();
  const DispatchInput in = MakeInput(shipdate);
  auto& reg = KernelRegistry::Global();

  std::map<std::string, uint64_t> measured;
  for (const auto& v : *reg.VariantsOf("select")) {
    if (!v.applicable(in)) continue;
    auto fresh = FreshInstance();
    Bat bat = fresh->db.Get("Item_shipdate").ValueOrDie();
    measured[v.name] = Measure<SelectImplSig>(
        v, "select", [&](const ExecContext& ctx, const auto& fn,
                         OpRecorder& rec) { return fn(ctx, bat, lo, hi, rec); });
  }
  ASSERT_EQ(measured.size(), 2u);  // binsearch_select and scan_select

  const KernelRegistry::Variant* chosen = reg.Choose("select", in);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->name, "binsearch_select");
  EXPECT_EQ(chosen->name, ArgminName(measured))
      << reg.Explain("select", in).ToString();
}

TEST(CostDispatchTest, Q13SemijoinPredictedCheapestIsMeasuredCheapest) {
  // The Q13 fragment-reassembly shape: a selective shipdate predicate,
  // then a value attribute semijoined down to the qualifying items —
  // exactly the access pattern the datavector accelerator exists for.
  const auto select_items = [](tpcd::TpcdInstance& inst) {
    Bat shipdate = inst.db.Get("Item_shipdate").ValueOrDie();
    return kernel::SelectRange(ExecContext(), shipdate, D(1995, 6, 1),
                               D(1995, 6, 7))
        .ValueOrDie();
  };

  auto inst = FreshInstance();
  Bat price = inst->db.Get("Item_extendedprice").ValueOrDie();
  Bat sel = select_items(*inst);
  ASSERT_GT(sel.size(), 0u);
  const DispatchInput in = MakeInput(price, sel);
  auto& reg = KernelRegistry::Global();

  std::map<std::string, uint64_t> measured;
  for (const auto& v : *reg.VariantsOf("semijoin")) {
    if (!v.applicable(in)) continue;
    auto fresh = FreshInstance();
    Bat ab = fresh->db.Get("Item_extendedprice").ValueOrDie();
    Bat cd = select_items(*fresh);
    measured[v.name] = Measure<BinaryImplSig>(
        v, "semijoin", [&](const ExecContext& ctx, const auto& fn,
                           OpRecorder& rec) { return fn(ctx, ab, cd, rec); });
  }
  ASSERT_GE(measured.size(), 2u);  // at least datavector vs hash
  ASSERT_TRUE(measured.count("datavector_semijoin"));

  const KernelRegistry::Variant* chosen = reg.Choose("semijoin", in);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->name, ArgminName(measured))
      << reg.Explain("semijoin", in).ToString();
}

TEST(CostDispatchTest, Q13JoinPredictedCheapestIsMeasuredCheapest) {
  // Q13's `orderdates := join(orders, Order_orderdate)`: the returned
  // items' order oids joined into the Order class attribute — the
  // datavector join's shape (AB's tail oids index CD's VECTOR).
  const auto orders_of = [](tpcd::TpcdInstance& inst) {
    const ExecContext ctx;
    Bat clerk_sel = Select(ctx, inst.db.Get("Order_clerk").ValueOrDie(),
                           Value::Str(inst.probe_clerk))
                        .ValueOrDie();
    Bat items =
        Join(ctx, inst.db.Get("Item_order").ValueOrDie(), clerk_sel)
            .ValueOrDie();
    Bat flags = Semijoin(ctx, inst.db.Get("Item_returnflag").ValueOrDie(),
                         items)
                    .ValueOrDie();
    Bat sel = Select(ctx, flags, Value::Chr('R')).ValueOrDie();
    return Semijoin(ctx, inst.db.Get("Item_order").ValueOrDie(), sel)
        .ValueOrDie();
  };

  auto inst = FreshInstance();
  Bat orders = orders_of(*inst);
  ASSERT_GT(orders.size(), 0u);
  const DispatchInput in =
      MakeInput(orders, inst->db.Get("Order_orderdate").ValueOrDie());
  auto& reg = KernelRegistry::Global();

  std::map<std::string, uint64_t> measured;
  for (const auto& v : *reg.VariantsOf("join")) {
    if (!v.applicable(in)) continue;
    auto fresh = FreshInstance();
    Bat ab = orders_of(*fresh);
    Bat cd = fresh->db.Get("Order_orderdate").ValueOrDie();
    measured[v.name] = Measure<BinaryImplSig>(
        v, "join", [&](const ExecContext& ctx, const auto& fn,
                       OpRecorder& rec) { return fn(ctx, ab, cd, rec); });
  }
  ASSERT_TRUE(measured.count("datavector_join"));
  ASSERT_TRUE(measured.count("hash_join"));

  const KernelRegistry::Variant* chosen = reg.Choose("join", in);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->name, "datavector_join");
  EXPECT_EQ(chosen->name, ArgminName(measured))
      << reg.Explain("join", in).ToString();
}

TEST(CostDispatchTest, ExplainRendersFinitePageFaultCosts) {
  auto inst = FreshInstance();
  Bat shipdate = inst->db.Get("Item_shipdate").ValueOrDie();
  auto ex = KernelRegistry::Global().Explain("select", shipdate);
  ASSERT_FALSE(ex.candidates.empty());
  for (const auto& c : ex.candidates) {
    ASSERT_TRUE(c.applicable) << c.name;
    EXPECT_TRUE(std::isfinite(c.cost)) << c.name;
    EXPECT_GT(c.cost, 0.0) << c.name;
    // Page-fault costs, not BUN touches: a fault estimate can never
    // exceed one page per BUN-pair and sits far below the row count.
    EXPECT_LT(c.cost, static_cast<double>(shipdate.size())) << c.name;
  }
}

}  // namespace
}  // namespace moaflat::kernel
