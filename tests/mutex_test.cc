// Tests of the annotated Mutex/MutexLock/CondVar wrapper and its Debug-mode
// lock-rank deadlock detector (common/mutex.h). The rank checker is active
// only without NDEBUG; tests that depend on it skip themselves in optimized
// configs rather than silently passing.

#include "common/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "common/task_pool.h"

namespace moaflat {
namespace {

bool RankChecksActive() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

// Death tests fork; with other threads potentially alive, gtest wants the
// "threadsafe" style. GTEST_FLAG_SET is only in newer googletest releases.
void UseThreadsafeDeathTests() {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
}

// The documented global order is a property of the enum values themselves:
// pin it so a renumbering that silently reorders subsystems fails loudly.
TEST(LockRankTest, DocumentedOrderIsPinned) {
  EXPECT_LT(static_cast<int>(LockRank::kWireServer),
            static_cast<int>(LockRank::kScheduler));
  EXPECT_LT(static_cast<int>(LockRank::kScheduler),
            static_cast<int>(LockRank::kPool));
  EXPECT_LT(static_cast<int>(LockRank::kPool),
            static_cast<int>(LockRank::kSession));
  EXPECT_LT(static_cast<int>(LockRank::kSession),
            static_cast<int>(LockRank::kWal));
  EXPECT_LT(static_cast<int>(LockRank::kWal),
            static_cast<int>(LockRank::kAccelerator));
  EXPECT_LT(static_cast<int>(LockRank::kAccelerator),
            static_cast<int>(LockRank::kCancel));
}

TEST(LockRankTest, MutexExposesRankAndName) {
  Mutex mu(LockRank::kWal, "wal");
  EXPECT_EQ(mu.rank_value(), static_cast<int>(LockRank::kWal));
  EXPECT_STREQ(mu.name(), "wal");
}

TEST(LockRankTest, InOrderNestingPasses) {
  Mutex sched(LockRank::kScheduler, "sched");
  Mutex pool(LockRank::kPool, "pool");
  Mutex session(LockRank::kSession, "session");
  Mutex wal(LockRank::kWal, "wal");
  MutexLock l1(sched);
  MutexLock l2(pool);
  MutexLock l3(session);
  MutexLock l4(wal);
  SUCCEED();
}

TEST(LockRankTest, SequentialAnyOrderPasses) {
  // The rank rule constrains *nesting*, not program order: locking high
  // then (after release) low on the same thread is legal.
  Mutex low(LockRank::kScheduler, "low");
  Mutex high(LockRank::kWal, "high");
  { MutexLock l(high); }
  { MutexLock l(low); }
  {
    MutexLock l(low);
    MutexLock h(high);
  }
  SUCCEED();
}

TEST(LockRankTest, UnlockRelockMidScope) {
  Mutex mu(LockRank::kSession, "relock");
  MutexLock lock(mu);
  lock.Unlock();
  // While released, another thread can take it.
  std::thread peer([&] {
    MutexLock l(mu);
  });
  peer.join();
  lock.Lock();
  SUCCEED();
}

TEST(LockRankTest, TryLockContendedReturnsFalse) {
  Mutex mu(LockRank::kSession, "try");
  MutexLock held(mu);
  std::atomic<int> got{-1};
  std::thread peer([&] { got = mu.TryLock() ? 1 : 0; });
  peer.join();
  EXPECT_EQ(got.load(), 0);
  // Uncontended TryLock succeeds and records/releases cleanly.
  held.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
  held.Lock();
}

TEST(LockRankDeathTest, OutOfRankAborts) {
  if (!RankChecksActive()) GTEST_SKIP() << "rank checks need !NDEBUG";
  UseThreadsafeDeathTests();
  Mutex wal(LockRank::kWal, "wal");
  Mutex session(LockRank::kSession, "session");
  EXPECT_DEATH(
      {
        MutexLock l1(wal);
        MutexLock l2(session);  // rank 30 under rank 40: inversion
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  if (!RankChecksActive()) GTEST_SKIP() << "rank checks need !NDEBUG";
  UseThreadsafeDeathTests();
  Mutex a(LockRank::kAccelerator, "side_a");
  Mutex b(LockRank::kAccelerator, "side_b");
  EXPECT_DEATH(
      {
        MutexLock l1(a);
        MutexLock l2(b);  // equal rank: strictly-increasing rule rejects
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, ReentrantAborts) {
  if (!RankChecksActive()) GTEST_SKIP() << "rank checks need !NDEBUG";
  UseThreadsafeDeathTests();
  Mutex mu(LockRank::kSession, "twice");
  EXPECT_DEATH(
      {
        MutexLock l1(mu);
        mu.Lock();  // re-entrant: std::mutex UB, caught deterministically
      },
      "re-entrant acquisition");
}

TEST(LockRankDeathTest, ReportNamesHeldChain) {
  if (!RankChecksActive()) GTEST_SKIP() << "rank checks need !NDEBUG";
  UseThreadsafeDeathTests();
  Mutex session(LockRank::kSession, "query_service");
  Mutex wal(LockRank::kWal, "wal");
  Mutex pool(LockRank::kPool, "task_pool.job");
  EXPECT_DEATH(
      {
        MutexLock l1(session);
        MutexLock l2(wal);
        MutexLock l3(pool);
      },
      "\"query_service\" \\(rank 30\\) -> \"wal\" \\(rank 40\\)");
}

TEST(CondVarTest, PingPong) {
  Mutex mu(LockRank::kSession, "pingpong");
  CondVar cv;
  int turn = 0;  // guarded by mu
  int swaps = 0;
  std::thread peer([&] {
    MutexLock lock(mu);
    for (int i = 0; i < 100; ++i) {
      while (turn != 1) cv.Wait(lock);
      turn = 0;
      ++swaps;
      cv.NotifyOne();
    }
  });
  {
    MutexLock lock(mu);
    for (int i = 0; i < 100; ++i) {
      turn = 1;
      cv.NotifyOne();
      while (turn != 0) cv.Wait(lock);
    }
  }
  peer.join();
  MutexLock lock(mu);
  EXPECT_EQ(swaps, 100);
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu(LockRank::kSession, "timeout");
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(lock, std::chrono::milliseconds(5)));
}

// Regression for the real inversion this PR's rank checker exposed: the old
// EnsureHeadHash held the accelerator lock (rank 60) across a HashIndex
// build that fans out on the TaskPool (queue lock, rank 10). With the rank
// checker live, the old code aborts here; the leader/waiter rework builds
// with no lock held. Racing ensures from many threads must still produce
// exactly one shared index.
TEST(LockRankTest, ParallelHashBuildHoldsNoAcceleratorLock) {
  const size_t n = 1 << 14;
  std::vector<int32_t> heads(n), tails(n);
  for (size_t i = 0; i < n; ++i) {
    heads[i] = static_cast<int32_t>(i % 257);
    tails[i] = static_cast<int32_t>(i);
  }
  const bat::Bat b(bat::Column::MakeInt(heads), bat::Column::MakeInt(tails));

  std::vector<std::shared_ptr<const bat::HashIndex>> built(8);
  std::vector<std::thread> threads;
  threads.reserve(built.size());
  for (size_t i = 0; i < built.size(); ++i) {
    threads.emplace_back([&, i] { built[i] = b.EnsureHeadHash(/*degree=*/4); });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(built[0], nullptr);
  for (const auto& h : built) EXPECT_EQ(h.get(), built[0].get());
  EXPECT_TRUE(b.HasHeadHash());
}

}  // namespace
}  // namespace moaflat
