// Tests for the ExecContext execution-state threading: per-context tracer
// and IO isolation (including across threads running full TPC-D queries),
// the memory budget hook, and the acceptance criterion that
// KernelRegistry::Explain reports the same implementation choice the
// ExecTracer records for the Fig. 10 Q13 statement sequence.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bat/bat.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using bat::Properties;
using kernel::AggKind;
using kernel::ExecContext;
using kernel::ExecTracer;
using kernel::KernelRegistry;

Bat SmallBat(size_t n) {
  std::vector<Oid> heads(n);
  std::vector<int32_t> tails(n);
  for (size_t i = 0; i < n; ++i) {
    heads[i] = static_cast<Oid>(i + 1);
    tails[i] = static_cast<int32_t>(i * 3 % 17);
  }
  return Bat(Column::MakeOid(std::move(heads)),
             Column::MakeInt(std::move(tails)));
}

TEST(ExecContextTest, DefaultContextIsInert) {
  ExecContext ctx;
  EXPECT_EQ(ctx.tracer(), nullptr);
  EXPECT_EQ(ctx.io(), nullptr);
  EXPECT_EQ(ctx.memory_budget(), 0u);
  ASSERT_TRUE(kernel::Select(ctx, SmallBat(8), Value::Int(3)).ok());
}

TEST(ExecContextTest, TracerAndIoFlowThroughContext) {
  ExecTracer tracer;
  storage::IoStats io;
  ExecContext ctx;
  ctx.WithTracer(&tracer).WithIo(&io);

  Bat ab = SmallBat(4096);
  ASSERT_TRUE(kernel::Select(ctx, ab, Value::Int(3)).ok());
  ASSERT_EQ(tracer.records.size(), 1u);
  EXPECT_EQ(tracer.records[0].op, "select");
  EXPECT_EQ(tracer.records[0].impl, "scan_select");
  EXPECT_GT(tracer.records[0].faults, 0u);
  EXPECT_EQ(tracer.TotalFaults(), io.faults());
}

TEST(ExecContextTest, MemoryBudgetVetoesLargeMaterializations) {
  Bat ab = SmallBat(10000);

  ExecContext tight;
  tight.WithMemoryBudget(1024);  // far below the ~120 KB result
  auto res = kernel::SelectCmp(tight, ab, kernel::CmpOp::kGe, Value::Int(0));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);

  ExecContext roomy;
  roomy.WithMemoryBudget(10u << 20);
  auto ok = kernel::SelectCmp(roomy, ab, kernel::CmpOp::kGe, Value::Int(0));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(roomy.memory_charged(), 0u);
  EXPECT_LE(roomy.memory_charged(), roomy.memory_budget());
}

TEST(ExecContextTest, RejectedChargeIsRefunded) {
  // One over-budget operation must not poison the context for later,
  // smaller ones: the rejected charge is rolled back.
  ExecContext ctx;
  ctx.WithMemoryBudget(4096);
  EXPECT_FALSE(ctx.ChargeMemory(1u << 20).ok());
  EXPECT_EQ(ctx.memory_charged(), 0u);
  EXPECT_TRUE(ctx.ChargeMemory(1024).ok());
  EXPECT_EQ(ctx.memory_charged(), 1024u);

  // Same end-to-end: a vetoed big select, then a small one that fits.
  Bat big = SmallBat(10000);
  EXPECT_FALSE(
      kernel::SelectCmp(ctx, big, kernel::CmpOp::kGe, Value::Int(0)).ok());
  EXPECT_TRUE(kernel::Select(ctx, SmallBat(16), Value::Int(3)).ok());
}

TEST(ExecContextTest, BudgetGatesJoinAndGroupPaths) {
  // The budget hook must cover the operators that materialize the big
  // intermediates, not just selects.
  Bat l = SmallBat(20000);
  Bat r(Column::MakeInt([] {
          std::vector<int32_t> v(20000);
          for (size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<int32_t>(i * 3 % 17);
          return v;
        }()),
        Column::MakeOid(std::vector<Oid>(20000, 1)));
  ExecContext tight;
  tight.WithMemoryBudget(4096);
  auto join = kernel::Join(tight, l, r);  // hash join, huge fan-out
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().code(), StatusCode::kResourceExhausted);

  ExecContext tight2;
  tight2.WithMemoryBudget(1024);
  auto grouped = kernel::Group(tight2, SmallBat(10000));
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, BudgetGatesBoxedMultiplexAndProjectPaths) {
  // Regression: the boxed multiplex paths and ProjectConst materialized
  // their result tails without charging the budget — a large head-join
  // multiplex bypassed admission entirely.
  Bat price = SmallBat(20000);

  // Synced boxed multiplex (3 args -> not the unboxed binary fast path).
  Bat flags(price.head_col(), bat::Column::MakeBit([] {
              std::vector<uint8_t> v(20000);
              for (size_t i = 0; i < v.size(); ++i) v[i] = i % 2;
              return v;
            }()));
  ExecContext tight;
  tight.WithMemoryBudget(1024);
  auto synced =
      kernel::Multiplex(tight, "ifthen", {flags, price, Value::Int(0)});
  ASSERT_FALSE(synced.ok());
  EXPECT_EQ(synced.status().code(), StatusCode::kResourceExhausted);

  // Head-join multiplex: a second operand with its own head column.
  Bat other(bat::Column::MakeOid([] {
              std::vector<Oid> h(20000);
              for (size_t i = 0; i < h.size(); ++i) h[i] = h.size() - i;
              return h;
            }()),
            price.tail_col());
  ExecContext tight2;
  tight2.WithMemoryBudget(1024);
  auto headjoin = kernel::Multiplex(tight2, "+", {price, other});
  ASSERT_FALSE(headjoin.ok());
  EXPECT_EQ(headjoin.status().code(), StatusCode::kResourceExhausted);

  // ProjectConst's per-row constant tail.
  ExecContext tight3;
  tight3.WithMemoryBudget(1024);
  auto projected = kernel::ProjectConst(tight3, price, Value::Int(7));
  ASSERT_FALSE(projected.ok());
  EXPECT_EQ(projected.status().code(), StatusCode::kResourceExhausted);

  // All three succeed under a roomy budget and report their charges.
  ExecContext roomy;
  roomy.WithMemoryBudget(10u << 20);
  ASSERT_TRUE(
      kernel::Multiplex(roomy, "ifthen", {flags, price, Value::Int(0)}).ok());
  ASSERT_TRUE(kernel::Multiplex(roomy, "+", {price, other}).ok());
  ASSERT_TRUE(kernel::ProjectConst(roomy, price, Value::Int(7)).ok());
  EXPECT_GT(roomy.memory_charged(), 0u);
}

TEST(ExecContextTest, TransientStagingIsChargedAtPeakAndReleased) {
  // Regression: the parallel gather's per-block match lists were invisible
  // to the budget — a query could peak far above its cap as long as the
  // *result* fit. The staging charge must gate at the operator's true peak
  // (result + match lists) and be released when the shards die.
  constexpr size_t kRows = 100000;
  Bat ab = SmallBat(kRows);
  const uint64_t result_bytes = kRows * 12;   // oid head (8) + int tail (4)
  const uint64_t staging_bytes = kRows * 4;   // one uint32 match slot / row

  // Budget above the result but below result + staging: the all-matching
  // scan select must be vetoed at its peak, not admitted for its result.
  ExecContext tight;
  tight.WithMemoryBudget(result_bytes + staging_bytes / 2);
  auto res = kernel::SelectCmp(tight, ab, kernel::CmpOp::kGe, Value::Int(0));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.memory_charged(), 0u);  // rejected peak fully refunded

  // Roomy budget: succeeds, and afterwards exactly the result remains
  // charged — the transient staging bytes were released.
  ExecContext roomy;
  roomy.WithMemoryBudget(result_bytes + 2 * staging_bytes);
  auto ok = kernel::SelectCmp(roomy, ab, kernel::CmpOp::kGe, Value::Int(0));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), kRows);
  EXPECT_EQ(roomy.memory_charged(), result_bytes);
}

TEST(ExecContextTest, CopiesShareTheChargeCounter) {
  ExecContext ctx;
  ctx.WithMemoryBudget(1u << 20);
  ExecContext copy = ctx;
  ASSERT_TRUE(copy.ChargeMemory(1000).ok());
  EXPECT_EQ(ctx.memory_charged(), 1000u);
}

TEST(ExecContextTest, SeedDrivesDeterministicRng) {
  ExecContext a;
  a.WithSeed(42);
  ExecContext b;
  b.WithSeed(42);
  EXPECT_EQ(a.MakeRng().Next(), b.MakeRng().Next());
  ExecContext c;
  c.WithSeed(43);
  EXPECT_NE(a.MakeRng().Next(), c.MakeRng().Next());
}

/// Impl sequence of a tracer, for cross-run comparison.
std::vector<std::string> Impls(const ExecTracer& t) {
  std::vector<std::string> out;
  for (const auto& r : t.records) out.push_back(r.op + ":" + r.impl);
  return out;
}

TEST(ExecContextTest, ConcurrentTracedQueriesDoNotCrosstalk) {
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  tpcd::QuerySuite suite(inst);

  // Single-threaded reference runs, one fresh context each.
  ExecTracer ref13_tracer, ref6_tracer;
  storage::IoStats ref13_io, ref6_io;
  {
    ExecContext ctx;
    ctx.WithTracer(&ref13_tracer).WithIo(&ref13_io);
    ASSERT_TRUE(suite.RunMonet(13, ctx).ok());
  }
  {
    ExecContext ctx;
    ctx.WithTracer(&ref6_tracer).WithIo(&ref6_io);
    ASSERT_TRUE(suite.RunMonet(6, ctx).ok());
  }
  ASSERT_FALSE(ref13_tracer.records.empty());
  ASSERT_FALSE(ref6_tracer.records.empty());

  // Concurrent runs with separate contexts over the same instance.
  ExecTracer t13, t6;
  storage::IoStats io13, io6;
  Status s13, s6;
  std::thread a([&] {
    ExecContext ctx;
    ctx.WithTracer(&t13).WithIo(&io13);
    s13 = suite.RunMonet(13, ctx).status();
  });
  std::thread b([&] {
    ExecContext ctx;
    ctx.WithTracer(&t6).WithIo(&io6);
    s6 = suite.RunMonet(6, ctx).status();
  });
  a.join();
  b.join();
  ASSERT_TRUE(s13.ok()) << s13.ToString();
  ASSERT_TRUE(s6.ok()) << s6.ToString();

  // Zero crosstalk: each context observed exactly its own query's record
  // sequence and page faults, bit-identical to the single-threaded runs.
  EXPECT_EQ(Impls(t13), Impls(ref13_tracer));
  EXPECT_EQ(Impls(t6), Impls(ref6_tracer));
  EXPECT_EQ(io13.faults(), ref13_io.faults());
  EXPECT_EQ(io6.faults(), ref6_io.faults());
}

TEST(ExecContextTest, ExplainMatchesFig10Q13Trace) {
  // The acceptance criterion: for the Fig. 10 Q13 statement sequence, the
  // registry's Explain must predict exactly the implementation the
  // ExecTracer records when the statement executes.
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  const mil::MilEnv env = inst->db.env();
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithTracer(&tracer);
  auto& reg = KernelRegistry::Global();

  auto expect_match = [&](const char* op, const Bat& out_check) {
    (void)out_check;
    ASSERT_FALSE(tracer.records.empty());
    const auto& rec = tracer.records.back();
    EXPECT_EQ(rec.op, op);
  };

  auto check2 = [&](const char* op, const Bat& l, const Bat& r) {
    // Prediction strictly before execution...
    return reg.Explain(op, l, r).chosen;
  };

  Bat order_clerk = env.GetBat("Order_clerk").ValueOrDie();
  Bat item_order = env.GetBat("Item_order").ValueOrDie();
  Bat item_rf = env.GetBat("Item_returnflag").ValueOrDie();
  Bat item_price = env.GetBat("Item_extendedprice").ValueOrDie();
  Bat item_disc = env.GetBat("Item_discount").ValueOrDie();

  // orders := select(Order_clerk, clerk) — attribute BATs are tail-sorted
  // (Section 5.2), so this must binary-search.
  std::string predicted = reg.Explain("select", order_clerk).chosen;
  EXPECT_EQ(predicted, "binsearch_select");
  Bat orders =
      kernel::Select(ctx, order_clerk, Value::Str(inst->probe_clerk))
          .ValueOrDie();
  expect_match("select", orders);
  EXPECT_EQ(tracer.records.back().impl, predicted);

  // items := join(Item_order, orders)
  predicted = check2("join", item_order, orders);
  Bat items = kernel::Join(ctx, item_order, orders).ValueOrDie();
  expect_match("join", items);
  EXPECT_EQ(tracer.records.back().impl, predicted);

  // returns := semijoin(Item_returnflag, items) — a datavector semijoin
  // probes the extent.
  predicted = check2("semijoin", item_rf, items);
  EXPECT_EQ(predicted, "datavector_semijoin");
  Bat returns = kernel::Semijoin(ctx, item_rf, items).ValueOrDie();
  expect_match("semijoin", returns);
  EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin");

  // ritems := select(returns, 'R'); critems := semijoin(Item_order, ritems)
  Bat ritems = kernel::Select(ctx, returns, Value::Chr('R')).ValueOrDie();
  predicted = check2("semijoin", item_order, ritems);
  Bat critems = kernel::Semijoin(ctx, item_order, ritems).ValueOrDie();
  expect_match("semijoin", critems);
  EXPECT_EQ(tracer.records.back().impl, predicted);

  // prices/discount := semijoin(value attribute, critems): each probes the
  // class extent, so Explain predicts the executed variant exactly.
  predicted = check2("semijoin", item_price, critems);
  EXPECT_EQ(predicted, "datavector_semijoin");
  Bat prices = kernel::Semijoin(ctx, item_price, critems).ValueOrDie();
  EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin");

  predicted = check2("semijoin", item_disc, critems);
  EXPECT_EQ(predicted, "datavector_semijoin");
  Bat discount = kernel::Semijoin(ctx, item_disc, critems).ValueOrDie();
  EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin");

  // The two datavector semijoins against the same selection are synced:
  // the multiplexes run positionally, and a semijoin between them would
  // be the sync no-op.
  ASSERT_TRUE(prices.SyncedWith(discount));
  EXPECT_EQ(reg.Explain("semijoin", prices, discount).chosen,
            "sync_semijoin");
}

// --------------------------------------------------- cancellation + faults

TEST(ExecContextTest, CancelledTokenStopsKernelsWithZeroBalance) {
  Bat ab = SmallBat(200000);
  CancelToken token = CancelToken::Make();
  ExecContext ctx;
  ctx.WithCancelToken(token).WithParallelDegree(4);

  token.Cancel("client asked");
  auto res = kernel::SelectCmp(ctx, ab, kernel::CmpOp::kGe, Value::Int(0));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(res.status().IsInterruption());
  EXPECT_NE(res.status().message().find("client asked"), std::string::npos);
  // Unwinding is exact: every transient and result charge of the aborted
  // kernel was released.
  EXPECT_EQ(ctx.memory_charged(), 0u);
}

TEST(ExecContextTest, ExpiredDeadlineLatchesDeadlineExceeded) {
  Bat ab = SmallBat(100000);
  ExecContext ctx;
  ctx.WithDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  ASSERT_TRUE(ctx.cancel_token().valid());  // WithDeadline mints the token

  auto res = kernel::Select(ctx, ab, Value::Int(3));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  // The first poll latched the expiry: the token now reads cancelled and
  // every later kernel under this context stops immediately.
  EXPECT_TRUE(ctx.cancel_token().cancelled());
  EXPECT_EQ(ctx.cancel_token().status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.memory_charged(), 0u);
}

TEST(ExecContextTest, DefaultContextHasNoTokenAndZeroTimeoutIsNoOp) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.cancel_token().valid());
  ctx.WithTimeout(0);
  EXPECT_FALSE(ctx.cancel_token().valid());  // 0 = no deadline, no token
  EXPECT_TRUE(ctx.CheckInterrupt().ok());
}

TEST(ExecContextTest, ExplicitCancelOutranksLaterDeadlineExpiry) {
  CancelToken token = CancelToken::Make();
  token.Cancel("first");
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
  // First cancellation wins: the expired deadline must not rewrite the
  // recorded status.
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  EXPECT_NE(token.status().message().find("first"), std::string::npos);
}

TEST(ExecContextTest, InjectedBudgetFaultUnwindsAndRerunsBitIdentically) {
  Bat ab = SmallBat(50000);

  // Reference: a clean run.
  ExecContext ref_ctx;
  storage::IoStats ref_io;
  ref_ctx.WithIo(&ref_io);
  Bat ref = kernel::SelectCmp(ref_ctx, ab, kernel::CmpOp::kGe, Value::Int(5))
                .ValueOrDie();

  // Injected run: the first budget charge fails mid-kernel.
  FaultInjector fi(/*seed=*/7, /*rate=*/0.0);
  fi.FailNth(FaultInjector::Site::kBudgetCharge, 0);
  storage::IoStats io;
  ExecContext ctx;
  ctx.WithIo(&io).WithFaultInjector(&fi);
  auto broken = kernel::SelectCmp(ctx, ab, kernel::CmpOp::kGe, Value::Int(5));
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(broken.status().message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(fi.fired(FaultInjector::Site::kBudgetCharge), 1u);
  // Balance exactly zero after the unwinding, and the same context then
  // reruns the kernel bit-identically to the clean reference.
  EXPECT_EQ(ctx.memory_charged(), 0u);
  ctx.WithFaultInjector(nullptr);
  io.Reset();
  Bat again = kernel::SelectCmp(ctx, ab, kernel::CmpOp::kGe, Value::Int(5))
                  .ValueOrDie();
  EXPECT_EQ(again.DebugString(1000000), ref.DebugString(1000000));
  EXPECT_EQ(io.faults(), ref_io.faults());
}

}  // namespace
}  // namespace moaflat
