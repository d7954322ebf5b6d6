#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rotom {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, 10, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kTotal = 100003;  // prime: exercises a ragged last chunk
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kTotal, 128, [&](int64_t begin, int64_t end) {
    ASSERT_LE(0, begin);
    ASSERT_LE(begin, end);
    ASSERT_LE(end, kTotal);
    for (int64_t i = begin; i < end; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kTotal; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, 16, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SmallRangeRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  int calls = 0;
  // total <= grain: one inline call covering the whole range.
  pool.ParallelFor(7, 16, [&](int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ChunksRespectGrain) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  constexpr int64_t kTotal = 1000;
  constexpr int64_t kGrain = 64;
  pool.ParallelFor(kTotal, kGrain, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  int64_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    covered += end - begin;
    // Every chunk but the ragged tail holds at least `grain` indices.
    if (end != kTotal) {
      EXPECT_GE(end - begin, kGrain);
    }
  }
  EXPECT_EQ(covered, kTotal);
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  // Stresses the generation machinery: a stale worker from job g must never
  // claim chunks of job g+1.
  ThreadPool pool(4);
  for (int job = 0; job < 500; ++job) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(64, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i)
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "job " << job;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    for (int64_t i = begin; i < end; ++i) {
      // A nested loop must not deadlock or re-enter the pool.
      pool.ParallelFor(10, 1, [&](int64_t b2, int64_t e2) {
        total.fetch_add(e2 - b2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  EXPECT_EQ(total.load(), 8 * 10);
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnConfiguration) {
  // Two identical loops on the same pool must produce identical partitions
  // (the determinism contract); collect boundaries and compare.
  ThreadPool pool(4);
  auto boundaries = [&] {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(12345, 100, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(boundaries(), boundaries());
}

TEST(ComputePoolTest, SetComputeThreadsResizes) {
  SetComputeThreads(2);
  EXPECT_EQ(ComputeThreads(), 2);
  EXPECT_EQ(ComputePool().num_threads(), 2);
  SetComputeThreads(0);  // back to automatic sizing
  EXPECT_GE(ComputeThreads(), 1);
}

}  // namespace
}  // namespace rotom
