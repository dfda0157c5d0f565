#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "tests/test_helpers.h"
#include "util/random.h"

namespace dpaudit {
namespace {

// The widest region whose runners all find a worker: the caller plus one
// runner per worker, capped at `cap`.
size_t PinnableWidth(size_t cap) {
  return std::min(cap, SharedThreadPool().num_threads() + 1);
}

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  // Every body waits until all participants have arrived, so each of the
  // width - 1 runner tasks must start and run exactly one index.
  const size_t width = PinnableWidth(4);
  testing_helpers::Rendezvous all(width);
  std::vector<std::atomic<int>> ran(width);
  ThreadPool::ParallelFor(width, width, [&](size_t, size_t participant) {
    all.Arrive();
    ran[participant].fetch_add(1);
  });
  for (size_t p = 0; p < width; ++p) EXPECT_EQ(ran[p].load(), 1) << p;
}

TEST(ThreadPoolTest, RegionsCanRunBackToBack) {
  ThreadPool::ParallelFor(0, 4, [](size_t) { FAIL(); });
  std::atomic<int> counter{0};
  for (int round = 1; round <= 3; ++round) {
    ThreadPool::ParallelFor(50, 4, [&counter](size_t) {
      counter.fetch_add(1);
    });
    EXPECT_EQ(counter.load(), 50 * round);
  }
}

TEST(ThreadPoolTest, RetractsRunnersThatNeverStart) {
  // Every worker is held inside an outer region while its caller runs an
  // inner region. The inner runners cannot start, so the inner caller must
  // drain the range alone and return — retracting its queued runners rather
  // than waiting for them — before the outer region lets the workers go.
  const size_t width = SharedThreadPool().num_threads() + 1;
  testing_helpers::Rendezvous started(width);
  testing_helpers::Rendezvous released(width);
  std::vector<size_t> inner_participants;
  ThreadPool::ParallelFor(width, width, [&](size_t, size_t participant) {
    started.Arrive();
    if (participant == 0) {
      ThreadPool::ParallelFor(64, width, [&](size_t, size_t inner) {
        inner_participants.push_back(inner);
      });
    }
    released.Arrive();
  });
  EXPECT_EQ(inner_participants, std::vector<size_t>(64, 0));
}

TEST(ThreadPoolTest, ParticipantIndicesAreExclusiveAndBelowWidth) {
  for (size_t width : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<std::atomic<bool>> held(width);
    std::atomic<int> below{0};
    std::atomic<int> exclusive{0};
    ThreadPool::ParallelForChunked(
        400, width, /*grain=*/1, [&](size_t, size_t participant) {
          if (participant >= width) return;
          below.fetch_add(1);
          if (held[participant].exchange(true)) return;
          std::this_thread::yield();
          held[participant].store(false);
          exclusive.fetch_add(1);
        });
    EXPECT_EQ(below.load(), 400) << "width " << width;
    EXPECT_EQ(exclusive.load(), 400) << "width " << width;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::ParallelFor(1000, 8,
                          [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterationsIsNoOp) {
  ThreadPool::ParallelFor(0, 8, [](size_t) { FAIL(); });
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ThreadPool::ParallelFor(10, 1, [&order](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, SeededFanOutIsThreadCountInvariant) {
  // The determinism contract: per-index results derived from Split(i) do not
  // depend on the number of workers.
  auto run = [](size_t threads) {
    Rng root(99);
    std::vector<double> out(64);
    ThreadPool::ParallelFor(64, threads, [&](size_t i) {
      Rng rng = root.Split(i);
      out[i] = rng.Gaussian();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelForTest, ChunkedCoversEveryIndexExactlyOnce) {
  // Any grain — including auto (0) and grain > n — claims each index once.
  for (size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{2000}}) {
    std::vector<std::atomic<int>> hits(1000);
    ThreadPool::ParallelForChunked(1000, 8, grain, [&hits](size_t i) {
      hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ParallelForTest, NestedParallelForCompletes) {
  // Inner regions issued from pool workers drain on the same shared pool
  // without deadlock: the calling thread claims chunks itself, so progress
  // never depends on a free worker.
  std::atomic<int> count{0};
  ThreadPool::ParallelFor(8, 4, [&count](size_t) {
    ThreadPool::ParallelFor(16, 4, [&count](size_t) {
      count.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelForTest, ConcurrentRegionsShareOnePool) {
  // Independent threads each running their own ParallelFor interleave their
  // chunks on the one shared pool and all complete.
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&total] {
      ThreadPool::ParallelFor(100, 4, [&total](size_t) {
        total.fetch_add(1);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(SharedThreadPoolTest, IsProcessWideSingleton) {
  ThreadPool& a = SharedThreadPool();
  ThreadPool& b = SharedThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(DefaultThreadCountTest, Bounded) {
  size_t n = DefaultThreadCount();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

}  // namespace
}  // namespace dpaudit
