// Tests for the shared execution layer (src/exec): pool lifecycle,
// concurrent-loop/shutdown stress, parallel_for / parallel_find semantics,
// the inline rules, and exactness of the sharded metrics under heavy
// concurrent writers. Built with -DP3S_SANITIZE=thread in CI these
// double as the TSan stress suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/pool.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::exec {
namespace {

TEST(Pool, SingleThreadPoolSpawnsNoWorkersAndRunsInline) {
  Pool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  pool.parallel_for(0, 5, [&](std::size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  // Inline execution: every index ran on the calling thread, in order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(5, caller));
}

TEST(Pool, ConcurrentLoopsShutdownStress) {
  // Several caller threads run loops on one pool at once, so helper jobs of
  // different loops interleave on the FIFO; every index must run exactly
  // once, and the pool must join cleanly right after the last loop.
  constexpr int kCallers = 4;
  constexpr int kLoopsEach = 50;
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> ran{0};
  {
    Pool pool(4);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &ran] {
        for (int l = 0; l < kLoopsEach; ++l) {
          pool.parallel_for(0, kN, [&ran](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (auto& t : callers) t.join();
  }
  EXPECT_EQ(ran.load(), kCallers * kLoopsEach * kN);
}

TEST(Pool, LoopStartedOnWorkerRunsInline) {
  // A loop started inside a worker's chunk must not wait on the pool it is
  // part of: it runs inline on that worker, in order. Index 0 cannot finish
  // before index 1 has run, so the caller cannot take both chunks: one of
  // the two is certainly a worker's.
  Pool pool(4);
  const auto caller = std::this_thread::get_id();
  std::latch index1_ran(1);
  std::array<std::thread::id, 2> outer_on{};
  constexpr std::size_t kNested = 64;
  std::atomic<std::size_t> seq{0};
  std::array<std::size_t, kNested> nested_seq{};
  std::array<std::thread::id, kNested> nested_on{};
  pool.parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) {
      index1_ran.wait();
    } else {
      index1_ran.count_down();
    }
    outer_on[i] = std::this_thread::get_id();
    if (outer_on[i] == caller) return;
    pool.parallel_for(0, kNested, [&](std::size_t j) {
      nested_seq[j] = seq.fetch_add(1);
      nested_on[j] = std::this_thread::get_id();
    });
  });
  ASSERT_EQ(std::count(outer_on.begin(), outer_on.end(), caller), 1);
  const auto worker = outer_on[0] == caller ? outer_on[1] : outer_on[0];
  for (std::size_t j = 0; j < kNested; ++j) {
    EXPECT_EQ(nested_seq[j], j) << "nested index " << j << " ran out of order";
    EXPECT_EQ(nested_on[j], worker) << "nested index " << j;
  }
}

TEST(Pool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Pool pool(threads);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<std::uint32_t>> hits(kN);
    pool.parallel_for(0, kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " threads " << threads;
    }
    // Empty and single-element ranges are fine too.
    pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
    std::size_t only = 0;
    pool.parallel_for(7, 8, [&](std::size_t i) { only = i; });
    EXPECT_EQ(only, 7u);
  }
}

TEST(Pool, ParallelForRethrowsBodyException) {
  Pool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("body failed");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives and stays usable after the throw.
  std::atomic<int> ran{0};
  pool.parallel_for(0, 8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(Pool, ParallelFindReturnsLowestHit) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Pool pool(threads);
    // Two hits: the LOWEST one must win regardless of evaluation order.
    const auto pred = [](std::size_t i) { return i == 13 || i == 77; };
    EXPECT_EQ(pool.parallel_find(100, pred), 13u);
    EXPECT_EQ(pool.parallel_find(100, [](std::size_t) { return false; }),
              SIZE_MAX);
    EXPECT_EQ(pool.parallel_find(0, [](std::size_t) { return true; }),
              SIZE_MAX);
    EXPECT_EQ(pool.parallel_find(1, [](std::size_t i) { return i == 0; }), 0u);
  }
}

TEST(Pool, ParallelFindLowestWinsUnderRacedHits) {
  // Make the low hit slow so higher hits land first; the result must still
  // be the lowest index (a later low hit overrides earlier higher ones).
  Pool pool(4);
  for (int round = 0; round < 20; ++round) {
    const std::size_t got = pool.parallel_find(64, [](std::size_t i) {
      if (i == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return true;
      }
      return i >= 50;
    });
    ASSERT_EQ(got, 2u) << "round " << round;
  }
}

TEST(Pool, GlobalPoolResizes) {
  Pool::set_global_threads(3);
  EXPECT_EQ(Pool::global().thread_count(), 3u);
  Pool::set_global_threads(1);
  EXPECT_EQ(Pool::global().thread_count(), 1u);
}

TEST(ExecMetrics, CounterExactUnderParallelForContention) {
  // The sharded counter must not lose a single increment when hammered from
  // all workers at once; the histogram count must match the number of
  // records. Uses throwaway catalogued-charset names in the global registry.
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("p3s.test.exec_contention_total");
  obs::Histogram& hist = reg.histogram("p3s.test.exec_contention_seconds");
  const std::uint64_t before_c = counter.value();
  const std::uint64_t before_h = hist.count();

  constexpr std::size_t kIters = 20'000;
  Pool pool(4);
  pool.parallel_for(0, kIters, [&](std::size_t i) {
    counter.inc();
    if (i % 10 == 0) hist.record(1e-6 * static_cast<double>(i));
  });

  EXPECT_EQ(counter.value() - before_c, kIters);
  EXPECT_EQ(hist.count() - before_h, kIters / 10);
}

TEST(ExecMetrics, PoolAccountingCountersMoveForward) {
  obs::Counter& pfor =
      obs::Registry::global().counter(obs::names::kExecParallelForTotal);
  const std::uint64_t p0 = pfor.value();
  Pool pool(2);
  pool.parallel_for(0, 64, [](std::size_t) {});
  EXPECT_EQ(pool.parallel_find(8, [](std::size_t i) { return i == 3; }), 3u);
  EXPECT_EQ(pfor.value() - p0, 2u);
}

}  // namespace
}  // namespace p3s::exec
