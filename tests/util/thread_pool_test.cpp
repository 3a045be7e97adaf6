#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rmrn::util {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardware) {
  EXPECT_GE(resolveThreadCount(0), 1u);
  EXPECT_EQ(resolveThreadCount(1), 1u);
}

TEST(ResolveThreadCountTest, ClampsToHardwareConcurrency) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(resolveThreadCount(0), hw);
  EXPECT_EQ(resolveThreadCount(7), std::min(7u, hw));
  // Oversubscription is impossible: any request beyond the core count
  // resolves to exactly the core count.
  EXPECT_EQ(resolveThreadCount(hw + 7), hw);
  EXPECT_EQ(resolveThreadCount(std::numeric_limits<unsigned>::max()), hw);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), resolveThreadCount(4));
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallelFor(0, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsBeginOffset) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallelFor(40, 60, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 40 && i < 60) ? 1 : 0);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallelFor(5, 5, [&](std::size_t) { called = true; });
  pool.parallelFor(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallelFor(0, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, IsReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(0, 1000, [&](std::size_t i) {
      sum.fetch_add(static_cast<std::int64_t>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  }
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(0, 100,
                                [](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int> count{0};
  pool.parallelFor(0, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, BackToBackTinyJobsHandOffCleanly) {
  // Tiny jobs make the hand-off itself the workload, the parallel engine's
  // pattern of one job per epoch.  `hits` is plain memory: the caller's reset
  // must reach the lanes through the job post, and their increments must
  // reach the caller through the join (TSan referees both edges).
  ThreadPool pool(4);
  constexpr int kJobs = 20'000;
  constexpr int kThrowingJob = kJobs / 2;
  std::array<int, 4> hits{};
  for (int job = 0; job < kJobs; ++job) {
    const std::size_t count = 2 + static_cast<std::size_t>(job % 3);
    hits.fill(0);
    if (job == kThrowingJob) {
      EXPECT_THROW(pool.parallelFor(0, count,
                                    [&](std::size_t i) {
                                      ++hits[i];
                                      if (i == 1) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
                   std::runtime_error);
      continue;
    }
    pool.parallelFor(0, count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], i < count ? 1 : 0) << "job " << job << " index " << i;
    }
  }
}

}  // namespace
}  // namespace rmrn::util
