// Determinism of the morsel-parallel kernels: for every kernel whose
// evaluation phase runs on the TaskPool, the result at degree 8 must be
// *element-identical* (bitwise, including doubles) to the result at
// degree 1 on TPC-D-shaped inputs, and the per-context IoStats merged from
// the block shards must match the serial run exactly (faults, the
// sequential/random split, and logical touches). Each run builds fresh
// operand instances so cached accelerators cannot cross-subsidize runs.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/datavector.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "storage/page_accountant.h"
#include "force_fanout.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using kernel::ExecContext;
using kernel::ExecTracer;

constexpr size_t kRows = 200000;  // >= 8 blocks at the 16K morsel floor

/// Lineitem-shaped attribute BATs (SF-agnostic): dense oid heads, an
/// unsorted int "quantity", a dbl "extendedprice" with varying magnitudes
/// (so merging floating partial sums out of order would be detectable),
/// and an oid "suppkey" grouping column with ~1000 groups.
std::vector<Oid> DenseHeads(size_t n) {
  std::vector<Oid> h(n);
  std::iota(h.begin(), h.end(), Oid{1});
  return h;
}

Bat QuantityBat(size_t n) {
  Rng rng(7);
  std::vector<int32_t> q(n);
  for (auto& v : q) v = static_cast<int32_t>(rng.Uniform(1, 50));
  return Bat(Column::MakeOid(DenseHeads(n)), Column::MakeInt(q),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

Bat PriceBat(size_t n) {
  Rng rng(11);
  std::vector<double> p(n);
  for (size_t i = 0; i < n; ++i) {
    // Mixed magnitudes: summing these in a different order rounds
    // differently, which is exactly what the test must catch.
    p[i] = rng.NextDouble() * (i % 97 == 0 ? 1e9 : 1e-3);
  }
  return Bat(Column::MakeOid(DenseHeads(n)), Column::MakeDbl(p),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

Bat SuppkeyBat(size_t n, bool head_sorted_runs) {
  Rng rng(13);
  std::vector<Oid> groups(n);
  if (head_sorted_runs) {
    // Contiguous ascending runs of uneven length (run-aggregate shape).
    Oid g = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.005)) ++g;
      groups[i] = g;
    }
  } else {
    for (auto& v : groups) v = static_cast<Oid>(rng.Uniform(0, 999));
  }
  return Bat(Column::MakeOid(std::move(groups)),
             Column::MakeOid(DenseHeads(n)));
}

void ExpectSameBat(const Bat& serial, const Bat& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.head().GetValue(i), parallel.head().GetValue(i))
        << "head mismatch at " << i;
    ASSERT_EQ(serial.tail().GetValue(i), parallel.tail().GetValue(i))
        << "tail mismatch at " << i;
  }
}

struct Measured {
  Bat result;
  std::string impl;
  uint64_t faults, seq, rnd, touches;
};

/// Runs `body(ctx)` under a fresh context at `degree` with fresh IoStats
/// and tracer; `body` must construct its own operands.
template <typename Body>
Measured RunAt(int degree, const char* op, Body&& body) {
  storage::IoStats io;
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithIo(&io).WithTracer(&tracer).WithParallelDegree(degree);
  Bat out = body(ctx);
  return Measured{out, tracer.LastImplOf(op), io.faults(),
                  io.sequential_faults(), io.random_faults(),
                  io.logical_touches()};
}

template <typename Body>
void ExpectDegreeInvariant(const char* op, const char* want_impl,
                           Body&& body) {
  ForceFanout fanout;
  Measured serial = RunAt(1, op, body);
  const uint64_t jobs_before = TaskPool::Global().jobs_run();
  Measured parallel = RunAt(8, op, body);
  EXPECT_EQ(serial.impl, want_impl);
  EXPECT_EQ(parallel.impl, want_impl);
  // The parallel run must actually have gone through the TaskPool.
  EXPECT_GT(TaskPool::Global().jobs_run(), jobs_before) << want_impl;
  ExpectSameBat(serial.result, parallel.result);
  EXPECT_EQ(serial.faults, parallel.faults) << want_impl;
  EXPECT_EQ(serial.seq, parallel.seq) << want_impl;
  EXPECT_EQ(serial.rnd, parallel.rnd) << want_impl;
  EXPECT_EQ(serial.touches, parallel.touches) << want_impl;
}

TEST(ParallelDeterminismTest, ScanSelect) {
  ExpectDegreeInvariant("select", "scan_select", [](const ExecContext& ctx) {
    Bat quantity = QuantityBat(kRows);
    return kernel::SelectRange(ctx, quantity, Value::Int(10), Value::Int(24))
        .ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HashJoin) {
  ExpectDegreeInvariant("join", "hash_join", [](const ExecContext& ctx) {
    // fk -> key table with duplicates on both sides (a modest fan-out);
    // neither side is sorted the way the merge variant needs, so the
    // hash probe runs.
    Rng rng(17);
    std::vector<int32_t> fk_vals(kRows);
    for (auto& v : fk_vals) v = static_cast<int32_t>(rng.Uniform(1, 20000));
    Bat fk(Column::MakeOid(DenseHeads(kRows)), Column::MakeInt(fk_vals));
    std::vector<int32_t> keys(2000);
    for (auto& v : keys) v = static_cast<int32_t>(rng.Uniform(1, 20000));
    std::vector<double> payload(keys.size());
    for (auto& v : payload) v = rng.NextDouble() * 1e4;
    Bat pk(Column::MakeInt(keys), Column::MakeDbl(payload));
    return kernel::Join(ctx, fk, pk).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, DatavectorJoin) {
  ExpectDegreeInvariant("join", "datavector_join", [](const ExecContext& ctx) {
    // Foreign oids into a class extent with a datavector, a few of them
    // dangling (a partial hit: A is gathered at the hit positions).
    Rng rng(23);
    const size_t extent_n = kRows / 2;
    constexpr Oid kBase = 500;
    std::vector<Oid> extent(extent_n);
    std::iota(extent.begin(), extent.end(), kBase);
    std::vector<double> by_oid(extent_n);
    for (auto& v : by_oid) v = rng.NextDouble() * 1e4;
    auto extent_col = Column::MakeOid(extent);
    auto values = Column::MakeDbl(by_oid);
    Bat cd(extent_col, values);
    cd.SetDatavector(std::make_shared<bat::Datavector>(extent_col, values));
    std::vector<Oid> fks(kRows);
    for (auto& v : fks) {
      v = rng.Chance(0.01) ? kBase + extent_n + rng.Uniform(0, 99)
                           : kBase + rng.Uniform(0, extent_n - 1);
    }
    Bat ab(Column::MakeOid(DenseHeads(kRows)), Column::MakeOid(fks));
    return kernel::Join(ctx, ab, cd).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HashSemijoin) {
  ExpectDegreeInvariant(
      "semijoin", "hash_semijoin", [](const ExecContext& ctx) {
        Rng rng(19);
        std::vector<Oid> heads(kRows);
        for (auto& v : heads) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat ab(Column::MakeOid(heads), PriceBat(kRows).tail_col());
        std::vector<Oid> keep(30000);
        for (auto& v : keep) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat cd(Column::MakeOid(keep), Column::MakeVoid(0, keep.size()));
        return kernel::Semijoin(ctx, ab, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashGroup) {
  ExpectDegreeInvariant("group", "hash_group", [](const ExecContext& ctx) {
    Bat quantity = QuantityBat(kRows);
    return kernel::Group(ctx, quantity).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, SyncGroupRefine) {
  ExpectDegreeInvariant(
      "group", "sync_group_refine", [](const ExecContext& ctx) {
        Bat quantity = QuantityBat(kRows);
        Bat grouped = kernel::Group(ctx, quantity).ValueOrDie();
        Rng rng(23);
        std::vector<int32_t> flags(kRows);
        for (auto& v : flags) v = static_cast<int32_t>(rng.Uniform(0, 2));
        // Shares the head column object -> provably synced.
        Bat cd(quantity.head_col(), Column::MakeInt(flags));
        return kernel::GroupRefine(ctx, grouped, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashGroupRefine) {
  ExpectDegreeInvariant(
      "group", "hash_group_refine", [](const ExecContext& ctx) {
        Bat quantity = QuantityBat(kRows);
        Bat grouped = kernel::Group(ctx, quantity).ValueOrDie();
        Rng rng(29);
        // A fresh head column with the same values in reversed order: the
        // sync proof fails, so refinement must align via the head hash.
        std::vector<Oid> rheads(kRows);
        for (size_t i = 0; i < kRows; ++i) rheads[i] = kRows - i;
        std::vector<int32_t> flags(kRows);
        for (auto& v : flags) v = static_cast<int32_t>(rng.Uniform(0, 2));
        Bat cd(Column::MakeOid(rheads), Column::MakeInt(flags));
        return kernel::GroupRefine(ctx, grouped, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, SyncedNumericMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_synced_numeric", [](const ExecContext& ctx) {
        Bat price = PriceBat(kRows);
        Bat factor(price.head_col(), QuantityBat(kRows).tail_col());
        return kernel::Multiplex(ctx, "*", {price, factor}).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, SyncedBoxedMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_synced", [](const ExecContext& ctx) {
        // Three args: not the unboxed binary fast path, but still synced
        // -> the boxed parallel row loop.
        Bat price = PriceBat(kRows);
        Rng rng(37);
        std::vector<uint8_t> cond(kRows);
        for (auto& v : cond) v = rng.Chance(0.5) ? 1 : 0;
        Bat flags(price.head_col(), Column::MakeBit(cond));
        return kernel::Multiplex(ctx, "ifthen",
                                 {flags, price, Value::Dbl(0.0)})
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, BandThetaJoinAllOrderedOps) {
  // The band variant serves <, <=, >, >= (kEq delegates to the equi-join
  // family, covered by HashJoin above). 60K left rows split into >= 3
  // blocks; 16 distinct right values keep the ~n*m/2 output bounded.
  struct Case {
    kernel::CmpOp op;
    const char* name;
  };
  for (const Case c : {Case{kernel::CmpOp::kLt, "kLt"},
                       Case{kernel::CmpOp::kLe, "kLe"},
                       Case{kernel::CmpOp::kGt, "kGt"},
                       Case{kernel::CmpOp::kGe, "kGe"}}) {
    SCOPED_TRACE(c.name);
    ExpectDegreeInvariant(
        "thetajoin", "sort_band_thetajoin", [&](const ExecContext& ctx) {
          constexpr size_t kLeft = 60000;
          Rng rng(43);
          std::vector<int32_t> lt(kLeft);
          for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 1000));
          Bat left(Column::MakeOid(DenseHeads(kLeft)), Column::MakeInt(lt));
          std::vector<int32_t> rh(16);
          for (auto& v : rh) v = static_cast<int32_t>(rng.Uniform(0, 1000));
          Bat right(Column::MakeInt(rh), Column::MakeOid(DenseHeads(16)));
          return kernel::ThetaJoin(ctx, left, right, c.op).ValueOrDie();
        });
  }
}

TEST(ParallelDeterminismTest, EqThetaJoinDelegatesToParallelEquiJoin) {
  // The sixth CmpOp: '=' routes to the equi-join family, whose hash probe
  // is morsel-parallel — the delegation must stay degree-invariant too.
  ExpectDegreeInvariant("join", "hash_join", [](const ExecContext& ctx) {
    Rng rng(71);
    std::vector<int32_t> lt(kRows);
    for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 20000));
    Bat left(Column::MakeOid(DenseHeads(kRows)), Column::MakeInt(lt));
    std::vector<int32_t> rh(2000);
    for (auto& v : rh) v = static_cast<int32_t>(rng.Uniform(0, 20000));
    Bat right(Column::MakeInt(rh), Column::MakeOid(DenseHeads(2000)));
    return kernel::ThetaJoin(ctx, left, right, kernel::CmpOp::kEq)
        .ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, NestedThetaJoinNotEqual) {
  // '!=' is the only comparison the band shape cannot serve: the nested
  // variant must run, morsel-parallel over the left side.
  ExpectDegreeInvariant(
      "thetajoin", "nested_thetajoin", [](const ExecContext& ctx) {
        constexpr size_t kLeft = 40000;
        Rng rng(47);
        std::vector<int32_t> lt(kLeft);
        for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 8));
        Bat left(Column::MakeOid(DenseHeads(kLeft)), Column::MakeInt(lt));
        Bat right(Column::MakeInt({0, 1, 2, 3, 4, 5, 6, 7}),
                  Column::MakeOid(DenseHeads(8)));
        return kernel::ThetaJoin(ctx, left, right, kernel::CmpOp::kNe)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, KdiffAntiProbe) {
  ExpectDegreeInvariant(
      "kdiff", "hash_antisemijoin", [](const ExecContext& ctx) {
        Rng rng(59);
        std::vector<Oid> heads(kRows);
        for (auto& v : heads) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat ab(Column::MakeOid(heads), PriceBat(kRows).tail_col());
        std::vector<Oid> drop(30000);
        for (auto& v : drop) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat cd(Column::MakeOid(drop), Column::MakeVoid(0, drop.size()));
        return kernel::Diff(ctx, ab, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, KunionAntiProbe) {
  ExpectDegreeInvariant("kunion", "hash_union", [](const ExecContext& ctx) {
    Rng rng(61);
    std::vector<Oid> lh(kRows / 2), rh(kRows);
    for (auto& v : lh) v = static_cast<Oid>(rng.Uniform(0, 99999));
    for (auto& v : rh) v = static_cast<Oid>(rng.Uniform(0, 99999));
    Bat ab(Column::MakeOid(lh), PriceBat(kRows / 2).tail_col());
    Bat cd(Column::MakeOid(rh), PriceBat(kRows).tail_col());
    return kernel::Union(ctx, ab, cd).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HeadJoinMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_headjoin", [](const ExecContext& ctx) {
        // The second operand carries its own head column (no sync proof),
        // with only ~half the driver's head values present: alignment must
        // go through the hash accelerators and drop the misses.
        Rng rng(67);
        Bat driver(Column::MakeOid(DenseHeads(kRows)),
                   PriceBat(kRows).tail_col());
        std::vector<Oid> rheads(kRows);
        for (auto& v : rheads) {
          v = static_cast<Oid>(rng.Uniform(1, 2 * kRows));
        }
        std::vector<double> rvals(kRows);
        for (auto& v : rvals) v = rng.NextDouble() * 1e3;
        Bat other(Column::MakeOid(rheads), Column::MakeDbl(rvals));
        return kernel::Multiplex(ctx, "+", {driver, other}).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, RunSetAggregateBitIdenticalSums) {
  ExpectDegreeInvariant(
      "set_aggregate", "run_set_aggregate", [](const ExecContext& ctx) {
        Bat groups = SuppkeyBat(kRows, /*head_sorted_runs=*/true);
        Bat grouped = Bat(groups.head_col(), PriceBat(kRows).tail_col(),
                          bat::Properties{false, false, true, false});
        return kernel::SetAggregate(ctx, kernel::AggKind::kSum, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashSetAggregateBitIdenticalAvgs) {
  ExpectDegreeInvariant(
      "set_aggregate", "hash_set_aggregate", [](const ExecContext& ctx) {
        Bat groups = SuppkeyBat(kRows, /*head_sorted_runs=*/false);
        Bat grouped = Bat(groups.head_col(), PriceBat(kRows).tail_col());
        return kernel::SetAggregate(ctx, kernel::AggKind::kAvg, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, MinMaxKeepTheSerialTieBreak) {
  // Min/max keep the *first* best position; block merges must preserve
  // that, and the tail has many exact ties to prove it.
  ExpectDegreeInvariant(
      "set_aggregate", "hash_set_aggregate", [](const ExecContext& ctx) {
        Rng rng(31);
        std::vector<Oid> g(kRows);
        std::vector<int32_t> v(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          g[i] = static_cast<Oid>(rng.Uniform(0, 49));
          v[i] = static_cast<int32_t>(rng.Uniform(0, 4));  // heavy ties
        }
        Bat grouped(Column::MakeOid(g), Column::MakeInt(v));
        return kernel::SetAggregate(ctx, kernel::AggKind::kMin, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, TailReorderCannotForgeASyncProof) {
  // Regression (found when degree-aware dispatch switched TPC-D Q4's
  // semijoins from the datavector to the hash variant): two attributes
  // sharing one class head column are tail-reordered differently at load,
  // so their sorted BATs must NOT prove synced — a forged proof made the
  // later multiplex compare misaligned rows positionally.
  ExecContext ctx;
  auto heads = Column::MakeOid(DenseHeads(1000));
  Rng rng(41);
  std::vector<int32_t> t1(1000), t2(1000);
  for (size_t i = 0; i < 1000; ++i) {
    t1[i] = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
    t2[i] = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
  }
  Bat attr1(heads, Column::MakeInt(t1));
  Bat attr2(heads, Column::MakeInt(t2));
  Bat sorted1 = kernel::SortTail(ctx, attr1).ValueOrDie();
  Bat sorted2 = kernel::SortTail(ctx, attr2).ValueOrDie();
  EXPECT_FALSE(sorted1.SyncedWith(sorted2));
  // Re-sorting the *same* BAT still yields a provable correspondence.
  Bat again = kernel::SortTail(ctx, attr1).ValueOrDie();
  EXPECT_TRUE(sorted1.SyncedWith(again));
}

TEST(ParallelDeterminismTest, ContextDegreeOverridesProcessDegree) {
  // A context pinned to degree 1 stays serial even when the process-wide
  // degree says otherwise, and vice versa — the per-context knob is what
  // lets a latency-sensitive session coexist with a fan-out query.
  ForceFanout force_fanout;
  SetParallelDegree(8);
  ExecContext pinned;
  pinned.WithParallelDegree(1);
  EXPECT_EQ(pinned.parallel_degree(), 1);
  const uint64_t jobs_before = TaskPool::Global().jobs_run();
  Bat q = QuantityBat(kRows);
  ASSERT_TRUE(
      kernel::SelectRange(pinned, q, Value::Int(10), Value::Int(20)).ok());
  EXPECT_EQ(TaskPool::Global().jobs_run(), jobs_before);

  SetParallelDegree(1);
  ExecContext fanout;
  fanout.WithParallelDegree(8);
  EXPECT_EQ(fanout.parallel_degree(), 8);
  ASSERT_TRUE(
      kernel::SelectRange(fanout, q, Value::Int(10), Value::Int(20)).ok());
  EXPECT_GT(TaskPool::Global().jobs_run(), jobs_before);
  SetParallelDegree(0);
}

}  // namespace
}  // namespace moaflat
