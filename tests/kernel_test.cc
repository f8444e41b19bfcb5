#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <functional>
#include <numeric>
#include <random>

#include "bat/bat.h"
#include "bat/datavector.h"
#include "kernel/exec_context.h"
#include "kernel/exec_tracer.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"
#include "force_fanout.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;
using bat::Properties;

/// Default execution context: no tracer, no page accountant.
const ExecContext kCtx;

Bat AttrBat(std::vector<Oid> heads, std::vector<int32_t> tails,
            Properties props = Properties{}) {
  return Bat(Column::MakeOid(std::move(heads)),
             Column::MakeInt(std::move(tails)), props);
}

std::vector<Oid> Heads(const Bat& b) {
  std::vector<Oid> out;
  for (size_t i = 0; i < b.size(); ++i) out.push_back(b.head().OidAt(i));
  return out;
}

std::vector<int32_t> IntTails(const Bat& b) {
  std::vector<int32_t> out;
  for (size_t i = 0; i < b.size(); ++i) {
    out.push_back(static_cast<int32_t>(b.tail().NumAt(i)));
  }
  return out;
}

// ---------------------------------------------------------------- select

TEST(SelectTest, PointSelectScan) {
  Bat ab = AttrBat({1, 2, 3, 4}, {7, 5, 7, 9});
  Bat out = Select(kCtx, ab, Value::Int(7)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_TRUE(out.props().tsorted);  // all tail values equal
}

TEST(SelectTest, PointSelectBinarySearchOnSorted) {
  Bat ab = AttrBat({4, 2, 1, 3}, {1, 5, 7, 7}, Properties{false, false,
                                                          false, true});
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Select(ctx, ab, Value::Int(7)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_EQ(tracer.LastImplOf("select"), "binsearch_select");
}

TEST(SelectTest, RangeSelectInclusiveBothEnds) {
  Bat ab = AttrBat({1, 2, 3, 4, 5}, {10, 20, 30, 40, 50},
                   Properties{true, false, false, true});
  Bat out =
      SelectRange(kCtx, ab, Value::Int(20), Value::Int(40)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3, 4}));
}

TEST(SelectTest, OpenEndedRange) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat lo = SelectRange(kCtx, ab, Value::Int(20), Value()).ValueOrDie();
  EXPECT_EQ(Heads(lo), (std::vector<Oid>{2, 3}));
  Bat hi = SelectRange(kCtx, ab, Value(), Value::Int(20)).ValueOrDie();
  EXPECT_EQ(Heads(hi), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, CmpVariants) {
  Bat ab = AttrBat({1, 2, 3, 4}, {1, 2, 3, 4});
  EXPECT_EQ(Heads(SelectCmp(kCtx, ab, CmpOp::kLt, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2}));
  EXPECT_EQ(Heads(SelectCmp(kCtx, ab, CmpOp::kLe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2, 3}));
  EXPECT_EQ(Heads(SelectCmp(kCtx, ab, CmpOp::kGt, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{4}));
  EXPECT_EQ(Heads(SelectCmp(kCtx, ab, CmpOp::kGe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{3, 4}));
  EXPECT_EQ(Heads(SelectCmp(kCtx, ab, CmpOp::kNe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2, 4}));
}

TEST(SelectTest, SelectOnStrings) {
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeStr({"alpha", "beta", "alpha"}));
  Bat out = Select(kCtx, ab, Value::Str("alpha")).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, SelectLikePattern) {
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeStr({"PROMO BRASS", "SMALL STEEL", "LARGE BRASS"}));
  Bat out = SelectLike(kCtx, ab, "%BRASS").ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, SelectOnDates) {
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeDate({Date::FromYmd(1994, 1, 1),
                           Date::FromYmd(1994, 6, 1),
                           Date::FromYmd(1995, 1, 1)}));
  Bat out = SelectRange(kCtx, ab, Value::MakeDate(Date::FromYmd(1994, 1, 1)),
                        Value::MakeDate(Date::FromYmd(1994, 12, 31)))
                .ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, EmptyResult) {
  Bat ab = AttrBat({1, 2}, {5, 6});
  Bat out = Select(kCtx, ab, Value::Int(99)).ValueOrDie();
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------- join

TEST(JoinTest, HashJoinProjectsOutJoinColumns) {
  // AB = [item, order], CD = [order, clerk-code]
  Bat ab = AttrBat({100, 101, 102}, {7, 8, 7});
  Bat cd = AttrBat({7, 9}, {55, 66});
  // int tails join with oid-typed... use oid-oid: rebuild.
  Bat ab2(Column::MakeOid({100, 101, 102}), Column::MakeOid({7, 8, 7}));
  Bat cd2(Column::MakeOid({7, 9}), Column::MakeInt({55, 66}));
  Bat out = Join(kCtx, ab2, cd2).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{100, 102}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{55, 55}));
}

TEST(JoinTest, MergeJoinChosenWhenSorted) {
  Bat ab(Column::MakeOid({1, 2, 3}), Column::MakeOid({10, 20, 30}),
         Properties{true, true, true, true});
  Bat cd(Column::MakeOid({10, 20, 40}), Column::MakeInt({1, 2, 4}),
         Properties{true, true, true, true});
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("join"), "merge_join");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{1, 2}));
}

TEST(JoinTest, MergeJoinHandlesDuplicateKeysBothSides) {
  Bat ab(Column::MakeOid({1, 2}), Column::MakeOid({10, 10}),
         Properties{false, false, false, true});
  Bat cd(Column::MakeOid({10, 10}), Column::MakeInt({5, 6}),
         Properties{false, false, true, false});
  Bat out = Join(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.size(), 4u);  // full cross product of the key run
}

TEST(JoinTest, PositionalFetchJoinOnVoidAlignment) {
  Bat ab(Column::MakeOid({5, 6, 7}), Column::MakeVoid(0, 3));
  Bat cd(Column::MakeVoid(0, 3), Column::MakeInt({11, 12, 13}));
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("join"), "fetch_join");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{5, 6, 7}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{11, 12, 13}));
}

TEST(JoinTest, JoinIsClosedInBinaryModel) {
  Bat ab(Column::MakeOid({1}), Column::MakeOid({2}));
  Bat cd(Column::MakeOid({2}), Column::MakeStr({"x"}));
  Bat out = Join(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.head().type(), MonetType::kOidT);
  EXPECT_EQ(out.tail().type(), MonetType::kStr);
  EXPECT_EQ(out.tail().Str(0), "x");
}

// ---------------------------------------------------------------- semijoin

TEST(SemijoinTest, HashSemijoinKeepsMatchingHeads) {
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40});
  Bat cd(Column::MakeOid({2, 4, 9}), Column::MakeVoid(0, 3));
  Bat out = Semijoin(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{20, 40}));
}

TEST(SemijoinTest, SyncSemijoinWhenOperandsSynced) {
  auto head = Column::MakeOid({1, 2, 3});
  Bat ab(head, Column::MakeInt({10, 20, 30}));
  Bat cd(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "sync_semijoin");
  EXPECT_EQ(out.size(), 3u);
}

TEST(SemijoinTest, MergeSemijoinWhenBothHeadSorted) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30},
                   Properties{true, false, true, true});
  Bat cd(Column::MakeOid({2, 3, 5}), Column::MakeVoid(0, 3),
         Properties{true, false, true, true});
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "merge_semijoin");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3}));
}

TEST(SemijoinTest, DatavectorSemijoinUsedOnEveryCall) {
  // Attribute BAT sorted on tail with a datavector attached.
  Bat attr(Column::MakeOid({3, 1, 2, 4}), Column::MakeInt({5, 6, 7, 8}),
           Properties{false, false, false, true});
  auto dv = std::make_shared<bat::Datavector>(
      Column::MakeOid({1, 2, 3, 4}), Column::MakeInt({6, 7, 5, 8}));
  attr.SetDatavector(dv);

  Bat sel(Column::MakeOid({2, 4}), Column::MakeVoid(0, 2),
          Properties{true, false, true, false});
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out1 = Semijoin(ctx, attr, sel).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
  EXPECT_EQ(Heads(out1), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out1), (std::vector<int32_t>{7, 8}));

  // A second attribute of the class against the same right operand probes
  // the shared extent again, and its result is synced with the first.
  Bat attr2(Column::MakeOid({4, 3, 2, 1}), Column::MakeInt({80, 50, 70, 60}),
            Properties{false, false, false, true});
  attr2.SetDatavector(std::make_shared<bat::Datavector>(
      dv->extent(), Column::MakeInt({60, 70, 50, 80})));
  Bat out2 = Semijoin(ctx, attr2, sel).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
  EXPECT_EQ(Heads(out2), Heads(out1));
  EXPECT_EQ(IntTails(out2), (std::vector<int32_t>{70, 80}));
  EXPECT_TRUE(out1.SyncedWith(out2));
}

// ------------------------------------------------ datavector extent probe

/// The class extent base, base+1, ..., base+n-1, as the TPC-D loader builds
/// every extent.
bat::ColumnPtr DenseExtent(Oid base, size_t n) {
  std::vector<Oid> v(n);
  std::iota(v.begin(), v.end(), base);
  return Column::MakeOid(std::move(v));
}

/// Reference probe: binary search of the sorted extent.
int64_t RefPosition(const std::vector<Oid>& extent, Oid oid) {
  auto it = std::lower_bound(extent.begin(), extent.end(), oid);
  return it != extent.end() && *it == oid ? it - extent.begin() : -1;
}

TEST(DatavectorTest, PositionalProbeAgreesWithBinarySearch) {
  constexpr Oid kBase = 1000;
  constexpr size_t kN = 5000;
  std::vector<Oid> extent(kN);
  std::iota(extent.begin(), extent.end(), kBase);
  bat::Datavector dv(Column::MakeOid(extent),
                     Column::MakeInt(std::vector<int32_t>(kN, 0)));
  const Oid last = extent.back();
  std::vector<Oid> probes = {0, kBase - 1, kBase, kBase + 1, last - 1,
                             last, last + 1, last + 1000};
  std::mt19937_64 rng(7919);
  for (int k = 0; k < 20000; ++k) probes.push_back(rng() % (last + 64));
  const auto mapped = [](const bat::Datavector& d, const Column& oids) {
    std::vector<int64_t> out(oids.size(), -2);
    d.MapPositions(
        oids, 0, oids.size(), [&](size_t i, uint32_t pos) { out[i] = pos; },
        [&](size_t i) { out[i] = -1; });
    return out;
  };
  const std::vector<int64_t> got = mapped(dv, *Column::MakeOid(probes));
  for (size_t k = 0; k < probes.size(); ++k) {
    ASSERT_EQ(got[k], RefPosition(extent, probes[k])) << "oid " << probes[k];
  }
  // A void probe column maps the same way.
  const std::vector<int64_t> run =
      mapped(dv, *Column::MakeVoid(last - 2, 5));
  EXPECT_EQ(run, (std::vector<int64_t>{kN - 3, kN - 2, kN - 1, -1, -1}));
  bat::Datavector empty(Column::MakeOid({}), Column::MakeInt({}));
  EXPECT_EQ(mapped(empty, *Column::MakeOid({kBase})),
            std::vector<int64_t>{-1});
}

TEST(DatavectorTest, DenseProbeTouchesOnlyTheCandidateSlot) {
  // E_dv's "+1 extent lookup": a semijoin reads CD's head, one
  // extent slot per hit (none for an oid outside the extent's span), then
  // the hit's extent and vector slots.
  const auto extent = DenseExtent(1000, 100000);
  const auto values = Column::MakeInt(std::vector<int32_t>(100000, 0));
  Bat attr(extent, values);
  attr.SetDatavector(std::make_shared<bat::Datavector>(extent, values));
  Bat cd(Column::MakeOid({999, 1000 + 54321, 1000 + 100000}),
         Column::MakeVoid(0, 3));
  storage::IoStats io;
  ExecContext ctx;
  ctx.WithIo(&io).WithParallelDegree(1);
  Bat got = Semijoin(ctx, attr, cd).ValueOrDie();
  ASSERT_EQ(Heads(got), std::vector<Oid>{1000 + 54321});
  // head scan + probe slot + extent and vector slots of the hit
  EXPECT_EQ(io.logical_touches(), 1u + 1u + 2u);
  // CD's one page, the extent page holding the hit (probed, then fetched),
  // the vector page holding it.
  EXPECT_EQ(io.faults(), 3u);
}

/// A tail-sorted attribute BAT over `extent` whose value at extent position
/// i is `value(i)`, with its datavector — the loader's layout.
Bat DvAttr(const bat::ColumnPtr& extent,
           const std::function<int32_t(size_t)>& value) {
  const size_t n = extent->size();
  std::vector<int32_t> by_oid(n);
  for (size_t i = 0; i < n; ++i) by_oid[i] = value(i);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return by_oid[x] < by_oid[y]; });
  std::vector<Oid> heads(n);
  std::vector<int32_t> tails(n);
  for (size_t k = 0; k < n; ++k) {
    heads[k] = extent->OidAt(order[k]);
    tails[k] = by_oid[order[k]];
  }
  Bat attr(Column::MakeOid(std::move(heads)),
           Column::MakeInt(std::move(tails)),
           Properties{true, false, false, true});
  attr.SetDatavector(std::make_shared<bat::Datavector>(
      extent, Column::MakeInt(std::move(by_oid))));
  return attr;
}

constexpr Oid kDvBase = 1000;
constexpr size_t kDvExtent = 200000;
constexpr size_t kDvSelect = 60000;

int32_t ValueA(size_t i) { return static_cast<int32_t>(i % 97); }
int32_t ValueB(size_t i) { return static_cast<int32_t>((i * 31) % 1009); }

/// kDvSelect distinct extent oids in random order — unsorted, like Q1's
/// selections over tail-sorted attribute BATs — always including kDvBase.
std::vector<Oid> ShuffledSelection() {
  std::vector<Oid> oids(kDvExtent);
  std::iota(oids.begin(), oids.end(), kDvBase);
  std::mt19937_64 rng(7919);
  std::shuffle(oids.begin() + 1, oids.end(), rng);
  oids.resize(kDvSelect);
  std::shuffle(oids.begin(), oids.end(), rng);
  return oids;
}

TEST(DatavectorSyncTest, FullHitIsSyncedWithTheRightOperand) {
  ForceFanout fanout;
  const std::vector<Oid> sel = ShuffledSelection();
  std::vector<int32_t> serial_a, serial_b;
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithTracer(&tracer).WithParallelDegree(degree);
    const auto extent = DenseExtent(kDvBase, kDvExtent);
    Bat a = DvAttr(extent, ValueA);
    Bat b = DvAttr(extent, ValueB);
    Bat cd(Column::MakeOid(sel), Column::MakeVoid(0, sel.size()),
           Properties{true, false, false, false});

    Bat ra = Semijoin(ctx, a, cd).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
    Bat rb = Semijoin(ctx, b, cd).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
    for (const Bat* r : {&ra, &rb}) {
      EXPECT_EQ(Heads(*r), sel);
      EXPECT_TRUE(r->SyncedWith(cd));
      Bat again = Semijoin(ctx, *r, cd).ValueOrDie();
      EXPECT_EQ(tracer.LastImplOf("semijoin"), "sync_semijoin");
      EXPECT_EQ(again.size(), sel.size());
    }

    // Q1's INDEX shape: the mirror of one full-hit result is tail-aligned
    // with every other, so the re-join is the zero-copy fetch_join.
    Bat ab = Join(ctx, ra.Mirror(), rb).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("join"), "fetch_join");
    Bat ba = Join(ctx, rb.Mirror(), ra).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("join"), "fetch_join");
    ASSERT_EQ(ab.size(), sel.size());
    const std::vector<int32_t> got_a = IntTails(ab.Mirror());
    const std::vector<int32_t> got_b = IntTails(ab);
    for (size_t i = 0; i < sel.size(); ++i) {
      ASSERT_EQ(got_a[i], ValueA(sel[i] - kDvBase)) << i;
      ASSERT_EQ(got_b[i], ValueB(sel[i] - kDvBase)) << i;
    }
    EXPECT_EQ(IntTails(ba), got_a);
    if (degree == 1) {
      serial_a = got_a;
      serial_b = got_b;
    } else {
      EXPECT_EQ(got_a, serial_a);
      EXPECT_EQ(got_b, serial_b);
    }
  }
}

TEST(DatavectorSyncTest, PartialHitIsNotSynced) {
  // CD holds one oid past the end of extent A. Extent B is A shifted up by
  // one: it holds that oid but misses kDvBase. Each semijoin drops one CD
  // oid, so the results have equal sizes but different head sequences — a
  // full-hit stamp forged on a partial hit would make them "synced" and
  // turn their intersection into a wrong zero-copy view.
  ForceFanout fanout;
  std::vector<Oid> sel = ShuffledSelection();
  const Oid outsider = kDvBase + kDvExtent;
  sel.insert(sel.begin() + sel.size() / 2, outsider);
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithTracer(&tracer).WithParallelDegree(degree);
    Bat a = DvAttr(DenseExtent(kDvBase, kDvExtent), ValueA);
    Bat b = DvAttr(DenseExtent(kDvBase + 1, kDvExtent), ValueB);
    Bat cd(Column::MakeOid(sel), Column::MakeVoid(0, sel.size()),
           Properties{true, false, false, false});

    Bat ra = Semijoin(ctx, a, cd).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
    Bat rb = Semijoin(ctx, b, cd).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
    ASSERT_EQ(ra.size(), sel.size() - 1);
    ASSERT_EQ(rb.size(), sel.size() - 1);
    EXPECT_FALSE(ra.SyncedWith(cd));
    EXPECT_FALSE(rb.SyncedWith(cd));
    EXPECT_FALSE(ra.SyncedWith(rb));

    Bat both = Semijoin(ctx, ra, rb).ValueOrDie();
    EXPECT_NE(tracer.LastImplOf("semijoin"), "sync_semijoin");
    EXPECT_EQ(both.size(), sel.size() - 2);
    Bat ab = Join(ctx, ra.Mirror(), rb).ValueOrDie();
    EXPECT_NE(tracer.LastImplOf("join"), "fetch_join");
    EXPECT_EQ(ab.size(), sel.size() - 2);
  }
}

// ------------------------------------------------------ datavector join

/// Runs the registered join variant `name` directly, bypassing dispatch.
Bat RunJoinVariant(const std::string& name, const ExecContext& ctx,
                   const Bat& ab, const Bat& cd) {
  for (const auto& v : *KernelRegistry::Global().VariantsOf("join")) {
    if (v.name != name) continue;
    OpRecorder rec(ctx, "join");
    const auto* fn = std::any_cast<std::function<BinaryImplSig>>(&v.exec);
    return (*fn)(ctx, ab, cd, rec).ValueOrDie();
  }
  ADD_FAILURE() << "no join variant " << name;
  return Bat();
}

/// An attribute BAT over `extent` holding `by_oid[i]` for extent[i], its
/// BUNs in shuffled order, with the datavector the loader would attach.
Bat ShuffledDvAttr(const bat::ColumnPtr& extent, const bat::ColumnPtr& by_oid,
                   uint64_t seed) {
  const size_t n = extent->size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
  bat::ColumnScatter hs(*extent, n);
  bat::ColumnScatter ts(*by_oid, n);
  hs.Gather(perm.data(), n, 0);
  ts.Gather(perm.data(), n, 0);
  Bat attr(hs.Finish(), ts.Finish());
  attr.SetDatavector(std::make_shared<bat::Datavector>(extent, by_oid));
  return attr;
}

constexpr size_t kDvJoinRows = 100000;  // 4+ blocks at the morsel floor

/// kDvJoinRows random (duplicate-prone) oids, each in the extent except
/// where `miss(i)` holds: those alternate between below the base and past
/// the end.
std::vector<Oid> DvJoinOids(const std::function<bool(size_t)>& miss) {
  std::mt19937_64 rng(4241);
  std::vector<Oid> oids(kDvJoinRows);
  for (size_t i = 0; i < oids.size(); ++i) {
    if (miss(i)) {
      oids[i] = i % 2 == 0 ? kDvBase - 1 - rng() % kDvBase
                           : kDvBase + kDvExtent + rng() % 1000;
    } else {
      oids[i] = kDvBase + rng() % kDvExtent;
    }
  }
  return oids;
}

/// AB for a join into a class attribute: shuffled heads, `tail` oids.
Bat ForeignOids(std::vector<Oid> tail) {
  std::vector<Oid> heads(tail.size());
  std::iota(heads.begin(), heads.end(), Oid{7});
  std::shuffle(heads.begin(), heads.end(), std::mt19937_64(99));
  return Bat(Column::MakeOid(std::move(heads)),
             Column::MakeOid(std::move(tail)));
}

/// The dv join must emit hash_join's exact BUN sequence at degrees 1 and
/// 4, share AB's head column on a full hit and derive a fresh key on a
/// partial one.
void ExpectDvJoinMatchesHashJoin(const Bat& ab, const Bat& cd, bool full) {
  ForceFanout fanout;
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithTracer(&tracer).WithParallelDegree(degree);
    Bat got = Join(ctx, ab, cd).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("join"), "datavector_join");
    Bat want = RunJoinVariant("hash_join", ctx, ab, cd);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.head().GetValue(i), want.head().GetValue(i)) << i;
      ASSERT_EQ(got.tail().GetValue(i), want.tail().GetValue(i)) << i;
    }
    EXPECT_TRUE(got.Validate().ok());
    EXPECT_EQ(got.SyncedWith(ab), full);
    EXPECT_EQ(got.head_col() == ab.head_col(), full);
    if (!full) {
      EXPECT_NE(got.head().sync_key(), ab.head().sync_key());
    }
  }
}

Bat IntDvAttr() {
  std::vector<int32_t> by_oid(kDvExtent);
  for (size_t i = 0; i < kDvExtent; ++i) by_oid[i] = ValueB(i);
  return ShuffledDvAttr(DenseExtent(kDvBase, kDvExtent),
                        Column::MakeInt(std::move(by_oid)), 5);
}

TEST(DatavectorJoinTest, FullHitSharesTheLeftHead) {
  Bat ab = ForeignOids(DvJoinOids([](size_t) { return false; }));
  ExpectDvJoinMatchesHashJoin(ab, IntDvAttr(), /*full=*/true);
}

TEST(DatavectorJoinTest, PartialHitGathersTheLeftHead) {
  // Misses only in the second half, so full and partial blocks mix.
  Bat ab = ForeignOids(DvJoinOids([](size_t i) {
    return i >= kDvJoinRows / 2 && (i % 17 == 0 || i + 1 == kDvJoinRows);
  }));
  ExpectDvJoinMatchesHashJoin(ab, IntDvAttr(), /*full=*/false);
}

TEST(DatavectorJoinTest, EmptyLeftOperand) {
  Bat ab(Column::MakeOid({}), Column::MakeOid({}));
  ExpectDvJoinMatchesHashJoin(ab, IntDvAttr(), /*full=*/true);
}

TEST(DatavectorJoinTest, VoidLeftTail) {
  std::vector<Oid> heads(kDvJoinRows);
  std::iota(heads.begin(), heads.end(), Oid{3});
  std::shuffle(heads.begin(), heads.end(), std::mt19937_64(8));
  // Inside the extent, then running past its end.
  Bat inside(Column::MakeOid(heads),
             Column::MakeVoid(kDvBase + 17, kDvJoinRows));
  ExpectDvJoinMatchesHashJoin(inside, IntDvAttr(), /*full=*/true);
  Bat past(Column::MakeOid(heads),
           Column::MakeVoid(kDvBase + kDvExtent - kDvJoinRows / 3,
                            kDvJoinRows));
  ExpectDvJoinMatchesHashJoin(past, IntDvAttr(), /*full=*/false);
}

TEST(DatavectorJoinTest, StrVector) {
  std::vector<std::string> by_oid(kDvExtent);
  for (size_t i = 0; i < kDvExtent; ++i) {
    by_oid[i] = "s" + std::to_string((i * 7) % 331);
  }
  Bat cd = ShuffledDvAttr(DenseExtent(kDvBase, kDvExtent),
                          Column::MakeStr(by_oid), 6);
  Bat full = ForeignOids(DvJoinOids([](size_t) { return false; }));
  ExpectDvJoinMatchesHashJoin(full, cd, /*full=*/true);
  Bat partial =
      ForeignOids(DvJoinOids([](size_t i) { return i % 5 == 0; }));
  ExpectDvJoinMatchesHashJoin(partial, cd, /*full=*/false);
}

TEST(DatavectorJoinTest, ChargesWhatItReads) {
  // AB's tail sequentially, VECTOR and A at the hit positions; never CD's
  // columns or the extent.
  Bat cd = IntDvAttr();
  Bat ab = ForeignOids(DvJoinOids([](size_t i) { return i % 3 == 0; }));
  storage::IoStats io;
  ExecContext ctx;
  ctx.WithIo(&io);
  ASSERT_TRUE(Join(ctx, ab, cd).ok());

  storage::IoStats ref;
  ab.tail().TouchAll(&ref);
  for (size_t i = 0; i < ab.size(); ++i) {
    const uint64_t pos = ab.tail().OidAt(i) - kDvBase;
    if (pos >= kDvExtent) continue;
    ab.head().TouchAt(&ref, i);
    cd.datavector()->values()->TouchAt(&ref, pos);
  }
  EXPECT_EQ(io.faults(), ref.faults());
  EXPECT_EQ(io.random_faults(), ref.random_faults());
  EXPECT_EQ(io.sequential_faults(), ref.sequential_faults());
  EXPECT_EQ(io.logical_touches(), ref.logical_touches());
}

TEST(DatavectorSemijoinTest, ChargesWhatItReads) {
  // The Section 5.2.1 pseudo-code's touch order: CD's head sequentially,
  // then the probe's extent slot per hit, then per hit its extent slot and
  // vector slot interleaved. An LRU pager sees the order, so it is checked
  // at small capacities too. A partial hit: every 64th CD oid dangles.
  ForceFanout fanout;
  const auto extent = DenseExtent(kDvBase, kDvExtent);
  Bat attr = DvAttr(extent, ValueA);
  std::vector<Oid> sel = ShuffledSelection();
  for (size_t i = 0; i < sel.size(); i += 64) sel[i] += kDvExtent;
  Bat cd(Column::MakeOid(sel), Column::MakeVoid(0, sel.size()));
  std::vector<uint32_t> hits;
  for (Oid oid : sel) {
    if (oid - kDvBase < kDvExtent) {
      hits.push_back(static_cast<uint32_t>(oid - kDvBase));
    }
  }
  ASSERT_LT(hits.size(), sel.size());
  const Column& vector = *attr.datavector()->values();
  for (size_t capacity : {0, 8, 64, 300}) {
    // Shard replay is exact for a cold pager and approximates an LRU one,
    // so only the cold run fans out.
    for (int degree : {1, 4}) {
      if (capacity > 0 && degree > 1) continue;
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " degree " +
                   std::to_string(degree));
      storage::IoStats io(capacity);
      ExecContext ctx;
      ctx.WithIo(&io).WithParallelDegree(degree);
      Bat got = Semijoin(ctx, attr, cd).ValueOrDie();
      ASSERT_EQ(got.size(), hits.size());
      storage::IoStats ref(capacity);
      cd.head().TouchAll(&ref);
      for (uint32_t pos : hits) extent->TouchAt(&ref, pos);
      for (uint32_t pos : hits) {
        extent->TouchAt(&ref, pos);
        vector.TouchAt(&ref, pos);
      }
      EXPECT_EQ(io.faults(), ref.faults());
      EXPECT_EQ(io.random_faults(), ref.random_faults());
      EXPECT_EQ(io.sequential_faults(), ref.sequential_faults());
      EXPECT_EQ(io.evictions(), ref.evictions());
      EXPECT_EQ(io.logical_touches(), ref.logical_touches());
    }
  }
}

TEST(DatavectorSemijoinTest, ColdFaultsDoNotDependOnHistory) {
  // A right operand that outlives the call — a base attribute BAT of the
  // class, as in semijoin(Item_extendedprice, Item_order) — is charged
  // alike on every cold run: an earlier semijoin leaves nothing behind.
  const auto extent = DenseExtent(kDvBase, kDvExtent);
  Bat attr = DvAttr(extent, ValueA);
  Bat cd = DvAttr(extent, ValueB);
  std::vector<storage::IoStats> runs(2);
  for (storage::IoStats& io : runs) {
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithIo(&io).WithTracer(&tracer);
    ASSERT_TRUE(Semijoin(ctx, attr, cd).ok());
    EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
  }
  EXPECT_GT(runs[0].faults(), 0u);
  EXPECT_EQ(runs[1].faults(), runs[0].faults());
  EXPECT_EQ(runs[1].logical_touches(), runs[0].logical_touches());
}

TEST(SemijoinTest, DiffIsAntiSemijoin) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat cd(Column::MakeOid({2}), Column::MakeVoid(0, 1));
  Bat out = Diff(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SemijoinTest, UnionMergesByHead) {
  Bat ab = AttrBat({1, 2}, {10, 20});
  Bat cd = AttrBat({2, 3}, {99, 30});
  Bat out = Union(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2, 3}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{10, 20, 30}));
}

// ---------------------------------------------------------------- group

TEST(GroupTest, AssignsDenseOidsPerDistinctValue) {
  Bat ab = AttrBat({1, 2, 3, 4}, {1994, 1995, 1994, 1996});
  Bat out = Group(kCtx, ab).ValueOrDie();
  const auto gids = Heads(out.Mirror());  // tail as oids
  EXPECT_EQ(gids[0], gids[2]);
  EXPECT_NE(gids[0], gids[1]);
  EXPECT_NE(gids[1], gids[3]);
  EXPECT_EQ(gids[0], 0u);  // dense from zero, first-appearance order
  EXPECT_EQ(gids[1], 1u);
  EXPECT_EQ(gids[3], 2u);
  // group is a tail rewrite: result stays synced with its operand.
  EXPECT_TRUE(out.SyncedWith(ab));
}

TEST(GroupTest, RefineSplitsGroups) {
  Bat years = AttrBat({1, 2, 3, 4}, {1994, 1994, 1994, 1995});
  Bat grp = Group(kCtx, years).ValueOrDie();
  Bat flags(Column::MakeOid({1, 2, 3, 4}), Column::MakeChr({'A', 'B', 'A',
                                                            'A'}));
  Bat refined = GroupRefine(kCtx, grp, flags).ValueOrDie();
  const auto gids = Heads(refined.Mirror());
  EXPECT_EQ(gids[0], gids[2]);  // (1994,'A')
  EXPECT_NE(gids[0], gids[1]);  // (1994,'B')
  EXPECT_NE(gids[0], gids[3]);  // (1995,'A')
}

// ---------------------------------------------------------------- multiplex

TEST(MultiplexTest, SyncedNumericFastPath) {
  auto head = Column::MakeOid({1, 2, 3});
  Bat price(head, Column::MakeDbl({10.0, 20.0, 30.0}));
  Bat disc(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Multiplex(ctx, "*", {price, disc}).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_synced_numeric");
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 4.0);
  EXPECT_TRUE(out.SyncedWith(price));
}

TEST(MultiplexTest, DivisionByZeroFailsOnEveryPath) {
  // "/" reports a zero divisor as an error whichever variant the operands
  // select: synced operands leave the unboxed fast path to the boxed
  // evaluation, which reports it like the head-join path and calc./ do.
  ForceFanout fanout;
  constexpr size_t kRows = 100000;  // several blocks under fan-out
  std::vector<Oid> oids(kRows);
  std::iota(oids.begin(), oids.end(), Oid{1});
  std::vector<double> x(kRows), y(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = static_cast<double>(i % 7 + 1);
  }
  const auto head = Column::MakeOid(oids);
  // The divisor synced with the dividend, or on reversed heads (a
  // head-join), with and without a zero near the end.
  const auto divisor = [&](bool synced, bool zero) {
    std::vector<Oid> h = oids;
    std::vector<double> d = y;
    if (zero) d[kRows - 3] = 0;
    if (synced) return Bat(head, Column::MakeDbl(std::move(d)));
    std::reverse(h.begin(), h.end());
    std::reverse(d.begin(), d.end());
    return Bat(Column::MakeOid(std::move(h)), Column::MakeDbl(std::move(d)));
  };
  Bat num(head, Column::MakeDbl(x));
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithTracer(&tracer).WithParallelDegree(degree);
    for (bool synced : {true, false}) {
      SCOPED_TRACE(synced ? "synced" : "head-join");
      Bat q = Multiplex(ctx, "/", {num, divisor(synced, false)}).ValueOrDie();
      EXPECT_EQ(tracer.LastImplOf("multiplex"),
                synced ? "multiplex_synced" : "multiplex_headjoin");
      EXPECT_DOUBLE_EQ(q.tail().NumAt(10), x[10] / y[10]);
      auto res = Multiplex(ctx, "/", {num, divisor(synced, true)});
      ASSERT_FALSE(res.ok());
      EXPECT_NE(res.status().message().find("division by zero"),
                std::string::npos);
    }
    Multiplex(ctx, "*", {num, divisor(true, true)}).ValueOrDie();
    EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_synced_numeric");
  }
}

TEST(MultiplexTest, ConstantArgumentBroadcasts) {
  Bat disc(Column::MakeOid({1, 2}), Column::MakeDbl({0.1, 0.25}));
  Bat out = Multiplex(kCtx, "-", {Value::Dbl(1.0), disc}).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 0.9);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 0.75);
}

TEST(MultiplexTest, YearExtraction) {
  Bat dates(Column::MakeOid({1, 2}),
            Column::MakeDate({Date::FromYmd(1994, 3, 1),
                              Date::FromYmd(1996, 7, 9)}));
  Bat out = Multiplex(kCtx, "year", {dates}).ValueOrDie();
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{1994, 1996}));
}

TEST(MultiplexTest, HeadJoinAlignmentWhenNotSynced) {
  Bat a(Column::MakeOid({1, 2, 3}), Column::MakeDbl({1, 2, 3}));
  Bat b(Column::MakeOid({3, 1}), Column::MakeDbl({30, 10}));
  ExecTracer tracer;
  const ExecContext ctx = ExecContext().WithTracer(&tracer);
  Bat out = Multiplex(ctx, "+", {a, b}).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_headjoin");
  // Only heads 1 and 3 exist on both sides.
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 11.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 33.0);
}

TEST(MultiplexTest, ComparisonYieldsBits) {
  Bat a(Column::MakeOid({1, 2}), Column::MakeInt({5, 9}));
  Bat out = Multiplex(kCtx, "<", {a, Value::Int(7)}).ValueOrDie();
  EXPECT_EQ(out.tail().type(), MonetType::kBit);
  EXPECT_EQ(out.tail().GetValue(0).AsBit(), true);
  EXPECT_EQ(out.tail().GetValue(1).AsBit(), false);
}

// ---------------------------------------------------------------- aggregates

TEST(AggregateTest, SetAggregateSumGroupsByHead) {
  Bat ab(Column::MakeOid({0, 1, 0, 1, 2}),
         Column::MakeDbl({1.0, 2.0, 3.0, 4.0, 5.0}));
  Bat out = SetAggregate(kCtx, AggKind::kSum, ab).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 4.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 6.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(2), 5.0);
  EXPECT_TRUE(out.props().hkey);
  EXPECT_TRUE(out.props().hsorted);
}

TEST(AggregateTest, SetAggregateCountAvgMinMax) {
  Bat ab(Column::MakeOid({0, 0, 1}), Column::MakeInt({3, 5, 7}));
  Bat cnt = SetAggregate(kCtx, AggKind::kCount, ab).ValueOrDie();
  EXPECT_EQ(cnt.tail().GetValue(0).AsLng(), 2);
  Bat avg = SetAggregate(kCtx, AggKind::kAvg, ab).ValueOrDie();
  EXPECT_DOUBLE_EQ(avg.tail().NumAt(0), 4.0);
  Bat mn = SetAggregate(kCtx, AggKind::kMin, ab).ValueOrDie();
  EXPECT_EQ(mn.tail().GetValue(0).AsInt(), 3);
  Bat mx = SetAggregate(kCtx, AggKind::kMax, ab).ValueOrDie();
  EXPECT_EQ(mx.tail().GetValue(1).AsInt(), 7);
}

TEST(AggregateTest, MinMaxPreserveStrings) {
  Bat ab(Column::MakeOid({0, 0}), Column::MakeStr({"beta", "alpha"}));
  Bat mn = SetAggregate(kCtx, AggKind::kMin, ab).ValueOrDie();
  EXPECT_EQ(mn.tail().Str(0), "alpha");
}

TEST(AggregateTest, ScalarAggregates) {
  Bat ab(Column::MakeVoid(0, 4), Column::MakeInt({1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(
      ScalarAggregate(kCtx, AggKind::kSum, ab).ValueOrDie().AsDbl(), 10.0);
  EXPECT_EQ(ScalarAggregate(kCtx, AggKind::kCount, ab).ValueOrDie().AsLng(), 4);
  EXPECT_DOUBLE_EQ(
      ScalarAggregate(kCtx, AggKind::kAvg, ab).ValueOrDie().AsDbl(), 2.5);
  EXPECT_EQ(ScalarAggregate(kCtx, AggKind::kMin, ab).ValueOrDie().AsInt(), 1);
  EXPECT_EQ(ScalarAggregate(kCtx, AggKind::kMax, ab).ValueOrDie().AsInt(), 4);
}

// ---------------------------------------------------------------- reshape

TEST(ReshapeTest, UniqueRemovesDuplicateBuns) {
  Bat ab(Column::MakeOid({0, 0, 1, 0}), Column::MakeInt({5, 5, 5, 6}));
  Bat out = Unique(kCtx, ab).ValueOrDie();
  EXPECT_EQ(out.size(), 3u);  // (0,5), (1,5), (0,6)
}

TEST(ReshapeTest, HeadUniqueKeepsFirstPerHead) {
  Bat ab(Column::MakeOid({2, 2, 1}), Column::MakeInt({5, 6, 7}));
  Bat out = HeadUnique(kCtx, ab).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 1}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{5, 7}));
  EXPECT_TRUE(out.props().hkey);
}

TEST(ReshapeTest, MarkAttachesDenseOids) {
  Bat ab = AttrBat({5, 6, 7}, {1, 2, 3});
  Bat out = Mark(kCtx, ab, 100).ValueOrDie();
  EXPECT_TRUE(out.tail().is_void());
  EXPECT_EQ(out.tail().OidAt(2), 102u);
  EXPECT_TRUE(out.props().tkey);
}

TEST(ReshapeTest, SliceTakesPositionalWindow) {
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40});
  Bat out = Slice(kCtx, ab, 1, 3).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3}));
  Bat clamped = Slice(kCtx, ab, 2, 99).ValueOrDie();
  EXPECT_EQ(clamped.size(), 2u);
}

TEST(ReshapeTest, SortTailOrdersAscending) {
  Bat ab = AttrBat({1, 2, 3}, {30, 10, 20});
  Bat out = SortTail(kCtx, ab).ValueOrDie();
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{10, 20, 30}));
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3, 1}));
  EXPECT_TRUE(out.props().tsorted);
  EXPECT_TRUE(out.Validate().ok());
}

TEST(ReshapeTest, TopNDescendingTakesLargest) {
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 40, 20, 30});
  Bat out = TopN(kCtx, ab, 2, /*descending=*/true).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{40, 30}));
  Bat asc = TopN(kCtx, ab, 2, /*descending=*/false).ValueOrDie();
  EXPECT_EQ(IntTails(asc), (std::vector<int32_t>{10, 20}));
}

TEST(ReshapeTest, TopNClampsToSize) {
  Bat ab = AttrBat({1}, {10});
  EXPECT_EQ(TopN(kCtx, ab, 5, true).ValueOrDie().size(), 1u);
}

TEST(ReshapeTest, ProjectConstBroadcasts) {
  Bat ab = AttrBat({1, 2}, {0, 0});
  Bat out = ProjectConst(kCtx, ab, Value::Str("x")).ValueOrDie();
  EXPECT_EQ(out.tail().Str(1), "x");
  EXPECT_TRUE(out.SyncedWith(ab));
}

TEST(ReshapeTest, AppendConcatenates) {
  Bat ab = AttrBat({1}, {10});
  Bat cd = AttrBat({2}, {20});
  Bat out = Append(kCtx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  Bat bad_typed(Column::MakeOid({1}), Column::MakeStr({"x"}));
  EXPECT_FALSE(Append(kCtx, ab, bad_typed).ok());
}

// ---------------------------------------------------------------- scalars

TEST(ScalarFnTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "%BRASS"));
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "PROMO%"));
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "%OMO%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("aXbYc", "a%b%c"));
}

TEST(ScalarFnTest, ArithmeticAndDivisionByZero) {
  EXPECT_DOUBLE_EQ(
      ScalarApply("+", {Value::Int(2), Value::Dbl(0.5)}).ValueOrDie().AsDbl(),
      2.5);
  EXPECT_FALSE(ScalarApply("/", {Value::Int(1), Value::Int(0)}).ok());
}

TEST(ScalarFnTest, ResultTypes) {
  EXPECT_EQ(ScalarResultType("*", {MonetType::kFlt, MonetType::kDbl})
                .ValueOrDie(),
            MonetType::kDbl);
  EXPECT_EQ(ScalarResultType("=", {MonetType::kStr, MonetType::kStr})
                .ValueOrDie(),
            MonetType::kBit);
  EXPECT_EQ(ScalarResultType("year", {MonetType::kDate}).ValueOrDie(),
            MonetType::kInt);
  EXPECT_FALSE(ScalarResultType("bogus", {}).ok());
}

}  // namespace
}  // namespace moaflat::kernel
