// Tests for the elda::par execution substrate and for the determinism
// contract of the parallelized tensor kernels: every kernel must produce
// bitwise-identical outputs for any thread count (the threaded partitioning
// only splits disjoint output ranges, never the per-element arithmetic).

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace elda {
namespace par {
namespace {

// --- Pool / ParallelFor mechanics -----------------------------------------

TEST(ParTest, NumThreadsIsAtLeastOne) {
  EXPECT_GE(NumThreads(), 1);
}

TEST(ParTest, SetNumThreadsOverridesAndRestores) {
  const int64_t before = ConfiguredNumThreads();
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  EXPECT_EQ(ConfiguredNumThreads(), 3);
  SetNumThreads(0);  // back to automatic
  EXPECT_EQ(ConfiguredNumThreads(), 0);
  SetNumThreads(before);
}

TEST(ParTest, ScopedNumThreadsRestoresOnExit) {
  const int64_t before = ConfiguredNumThreads();
  {
    ScopedNumThreads scoped(5);
    EXPECT_EQ(NumThreads(), 5);
    {
      ScopedNumThreads inner(2);
      EXPECT_EQ(NumThreads(), 2);
    }
    EXPECT_EQ(NumThreads(), 5);
  }
  EXPECT_EQ(ConfiguredNumThreads(), before);
}

TEST(ParTest, ScopedNumThreadsZeroIsNoOp) {
  ScopedNumThreads outer(4);
  {
    ScopedNumThreads noop(0);
    EXPECT_EQ(NumThreads(), 4);
  }
  EXPECT_EQ(NumThreads(), 4);
}

TEST(ParTest, ParallelForCoversRangeExactlyOnce) {
  for (int64_t threads : {1, 2, 8}) {
    ScopedNumThreads scoped(threads);
    for (int64_t n : {0, 1, 7, 63, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      for (auto& h : hits) h.store(0);
      ParallelFor(0, n, 4, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParTest, ParallelForChunksAreContiguousAndOrderedWithinChunk) {
  ScopedNumThreads scoped(8);
  const int64_t n = 500;
  std::vector<int64_t> seen_lo, seen_hi;
  std::mutex mu;
  ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
    ASSERT_LT(lo, hi);
    std::lock_guard<std::mutex> lock(mu);
    seen_lo.push_back(lo);
    seen_hi.push_back(hi);
  });
  // The chunks must tile [0, n) exactly.
  std::vector<std::pair<int64_t, int64_t>> chunks;
  for (size_t i = 0; i < seen_lo.size(); ++i) {
    chunks.emplace_back(seen_lo[i], seen_hi[i]);
  }
  std::sort(chunks.begin(), chunks.end());
  int64_t cursor = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, n);
}

TEST(ParTest, SingleThreadRunsInlineOnCallingThread) {
  ScopedNumThreads scoped(1);
  const std::thread::id caller = std::this_thread::get_id();
  int64_t calls = 0;
  ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls += hi - lo;
  });
  EXPECT_EQ(calls, 100);
}

TEST(ParTest, NestedParallelForRunsInline) {
  ScopedNumThreads scoped(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int64_t> inner_total{0};
  ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_TRUE(InParallelRegion());
    for (int64_t i = lo; i < hi; ++i) {
      const std::thread::id outer_thread = std::this_thread::get_id();
      // The nested call must not fan out again: same thread, still inside.
      ParallelFor(0, 10, 1, [&](int64_t ilo, int64_t ihi) {
        EXPECT_EQ(std::this_thread::get_id(), outer_thread);
        EXPECT_TRUE(InParallelRegion());
        inner_total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(ParTest, OneChunkDispatchLeavesNestedKernelsThePool) {
  // A one-chunk outer dispatch (e.g. a single validation minibatch) runs
  // inline on the caller without claiming a parallel region, so the kernels
  // inside still fan out; max_threads = 1 keeps capping them.
  ScopedNumThreads scoped(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const int64_t max_threads : {0, 2, 1}) {
    SCOPED_TRACE(max_threads);
    const int64_t dispatches_before = Stats().parallel_dispatches;
    std::atomic<int64_t> inner_total{0};
    ParallelFor(
        0, 1, 1,
        [&](int64_t lo, int64_t hi) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(hi - lo, 1);
          EXPECT_EQ(InParallelRegion(), max_threads == 1);
          ParallelFor(0, 64, 1, [&](int64_t ilo, int64_t ihi) {
            if (max_threads == 1) {
              EXPECT_EQ(std::this_thread::get_id(), caller);
            }
            inner_total.fetch_add(ihi - ilo);
          });
        },
        max_threads);
    EXPECT_FALSE(InParallelRegion());
    EXPECT_EQ(inner_total.load(), 64);
    const int64_t nested_dispatches =
        Stats().parallel_dispatches - dispatches_before;
    EXPECT_EQ(nested_dispatches, max_threads == 1 ? 0 : 1);
  }
}

TEST(ParTest, MaxThreadsArgumentCapsFanout) {
  ScopedNumThreads scoped(8);
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(
      0, 64, 1,
      [&](int64_t, int64_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*max_threads=*/1);
}

TEST(ParTest, ExceptionPropagatesAndPoolStaysUsable) {
  ScopedNumThreads scoped(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo >= 40) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  // The pool must survive the failed job and run subsequent work.
  std::atomic<int64_t> total{0};
  ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ParTest, PoolStartStop) {
  // A locally scoped pool starts workers on demand and joins them cleanly
  // in its destructor (no leaks, no deadlock).
  for (int round = 0; round < 3; ++round) {
    Pool pool(2);
    EXPECT_EQ(pool.num_workers(), 2);
    std::atomic<int64_t> ran{0};
    const std::function<void(int64_t)> fn = [&](int64_t) {
      ran.fetch_add(1);
    };
    pool.Run(17, fn);
    EXPECT_EQ(ran.load(), 17);
    pool.EnsureWorkers(4);
    EXPECT_EQ(pool.num_workers(), 4);
    ran.store(0);
    pool.Run(33, fn);
    EXPECT_EQ(ran.load(), 33);
  }
}

// --- Spin-then-park pool -----------------------------------------------------
//
// Idle workers spin on the job sequence for ~100 us and then park on a
// condition variable. The sleeps below are far longer than that window, so
// every dispatch after one of them has to wake parked workers.

constexpr auto kPastSpinWindow = std::chrono::milliseconds(2);

// Process CPU time (all threads), user + system.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ParPoolTest, TwoCallersDispatchAcrossParkAndWake) {
  // Two threads issue dispatches back to back, now and then sleeping past
  // the spin window; Run() serializes them, and every dispatch must cover
  // its range exactly once whether the workers were spinning or parked.
  ScopedNumThreads scoped(4);
  std::atomic<int64_t> wrong{0};
  const auto caller = [&](int64_t seed) {
    for (int64_t round = 0; round < 60; ++round) {
      const int64_t n = 1 + (seed * 31 + round * 17) % 97;
      std::vector<int64_t> hits(static_cast<size_t>(n), 0);
      ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
      });
      for (int64_t h : hits) wrong.fetch_add(h == 1 ? 0 : 1);
      if (round % 10 == seed) std::this_thread::sleep_for(kPastSpinWindow);
    }
  };
  std::thread first(caller, 1);
  std::thread second(caller, 4);
  first.join();
  second.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParPoolTest, ExceptionPropagatesFromParkedWorkers) {
  ScopedNumThreads scoped(4);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(kPastSpinWindow);
    EXPECT_THROW(ParallelFor(0, 64, 1,
                             [&](int64_t lo, int64_t) {
                               if (lo >= 32) {
                                 throw std::runtime_error("chunk failed");
                               }
                             }),
                 std::runtime_error);
    std::this_thread::sleep_for(kPastSpinWindow);
    std::atomic<int64_t> total{0};
    ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 64);
  }
}

TEST(ParPoolTest, NestedDispatchAfterParkRunsInline) {
  ScopedNumThreads scoped(4);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(kPastSpinWindow);
    std::atomic<int64_t> inner_total{0};
    std::atomic<int64_t> escaped{0};
    ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
      const std::thread::id outer_thread = std::this_thread::get_id();
      for (int64_t i = lo; i < hi; ++i) {
        ParallelFor(0, 32, 1, [&](int64_t ilo, int64_t ihi) {
          if (std::this_thread::get_id() != outer_thread) escaped.fetch_add(1);
          inner_total.fetch_add(ihi - ilo);
        });
      }
    });
    EXPECT_EQ(escaped.load(), 0);
    EXPECT_EQ(inner_total.load(), 16 * 32);
  }
}

TEST(ParPoolTest, IdlePoolParks) {
  // After a burst of dispatches the workers spin for one window and then
  // park: 50 ms of caller sleep must cost far less than 50 ms of CPU. A
  // worker that never parked would burn ~50 ms per worker here.
  ScopedNumThreads scoped(4);
  std::atomic<int64_t> total{0};
  for (int burst = 0; burst < 200; ++burst) {
    ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), 200 * 8);
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double spent = ProcessCpuSeconds() - before;
  EXPECT_LT(spent, 0.010) << "idle workers spent " << spent * 1e3
                          << " ms of CPU in 50 ms";
}

TEST(ParPoolTest, CallerParksThroughLongChunk) {
  // A worker's chunk sleeps 50 ms while the caller waits for it. The caller
  // spins for a bounded window and then parks, so the whole dispatch costs
  // far less than 50 ms of CPU; a caller that spun or yielded until the
  // chunk finished would burn about 50 ms.
  Pool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::promise<void> worker_in;
  std::shared_future<void> worker_started = worker_in.get_future().share();
  std::atomic<bool> slept{false};
  const std::function<void(int64_t)> fn = [&](int64_t) {
    if (std::this_thread::get_id() == caller) {
      // Leave the other chunk to the worker.
      worker_started.wait();
    } else if (!slept.exchange(true)) {
      worker_in.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  const double before = ProcessCpuSeconds();
  pool.Run(2, fn);
  const double spent = ProcessCpuSeconds() - before;
  EXPECT_TRUE(slept.load());
  EXPECT_LT(spent, 0.010) << "a dispatch waiting 50 ms on one chunk spent "
                          << spent * 1e3 << " ms of CPU";
}

TEST(ParTest, ParallelReduceMatchesSerialForAnyThreadCount) {
  std::vector<float> values(1000);
  Rng rng(42);
  for (float& v : values) v = rng.Normal(0.0f, 10.0f);
  const auto map = [&](int64_t lo, int64_t hi) {
    float m = -1e30f;
    for (int64_t i = lo; i < hi; ++i) m = std::max(m, values[i]);
    return m;
  };
  const auto combine = [](float a, float b) { return std::max(a, b); };
  const float expected = map(0, 1000);
  for (int64_t threads : {1, 2, 8}) {
    ScopedNumThreads scoped(threads);
    for (int64_t grain : {1, 7, 64, 2000}) {
      EXPECT_EQ(ParallelReduce<float>(0, 1000, grain, -1e30f, map, combine),
                expected)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST(ParTest, ParallelReduceEmptyRangeReturnsIdentity) {
  const auto map = [](int64_t, int64_t) { return 1.0f; };
  const auto combine = [](float a, float b) { return a + b; };
  EXPECT_EQ(ParallelReduce<float>(5, 5, 8, -7.0f, map, combine), -7.0f);
}

// --- Tensor-kernel determinism --------------------------------------------
//
// For every parallelized kernel: run with threads=1 (the exact serial
// fallback), then with threads in {2, 8}, and require bitwise-identical
// output buffers.

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Runs `compute` at threads=1 and at threads in {2, 8} and checks all
// results agree bit for bit.
void ExpectDeterministic(const std::function<Tensor()>& compute,
                         const std::string& what) {
  Tensor serial;
  {
    ScopedNumThreads scoped(1);
    serial = compute();
  }
  for (int64_t threads : {2, 8}) {
    ScopedNumThreads scoped(threads);
    Tensor threaded = compute();
    EXPECT_TRUE(BitwiseEqual(serial, threaded))
        << what << " differs at threads=" << threads;
  }
}

const int64_t kSizes[] = {1, 7, 63, 1000};

TEST(ParDeterminismTest, ElementwiseBinarySameShape) {
  for (int64_t n : kSizes) {
    Rng rng(n);
    Tensor a = Tensor::Normal({n}, 0.0f, 1.0f, &rng);
    Tensor b = Tensor::Normal({n}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return Add(a, b); }, "Add n=" + std::to_string(n));
    ExpectDeterministic([&] { return Mul(a, b); }, "Mul n=" + std::to_string(n));
    ExpectDeterministic([&] { return Sub(a, b); }, "Sub n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, ElementwiseBinarySuffixBroadcast) {
  for (int64_t n : kSizes) {
    Rng rng(n + 100);
    Tensor a = Tensor::Normal({n, 6}, 0.0f, 1.0f, &rng);
    Tensor b = Tensor::Normal({6}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return Add(a, b); },
                        "Add suffix n=" + std::to_string(n));
    ExpectDeterministic([&] { return Mul(a, b); },
                        "Mul suffix n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, ElementwiseBinaryGeneralBroadcast) {
  for (int64_t n : kSizes) {
    Rng rng(n + 200);
    // [n, 1, 4] * [1, 3, 4] exercises the odometer path.
    Tensor a = Tensor::Normal({n, 1, 4}, 0.0f, 1.0f, &rng);
    Tensor b = Tensor::Normal({1, 3, 4}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return Mul(a, b); },
                        "Mul broadcast n=" + std::to_string(n));
    // Middle-axis broadcast: [n, 1] + [n, 5] style via [n,1,5]+[n,4,1].
    Tensor c = Tensor::Normal({n, 1, 5}, 0.0f, 1.0f, &rng);
    Tensor d = Tensor::Normal({n, 4, 1}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return Add(c, d); },
                        "Add broadcast n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, ElementwiseUnary) {
  for (int64_t n : kSizes) {
    Rng rng(n + 300);
    Tensor a = Tensor::Normal({n}, 0.0f, 2.0f, &rng);
    ExpectDeterministic([&] { return Relu(a); },
                        "Relu n=" + std::to_string(n));
    ExpectDeterministic([&] { return Exp(a); }, "Exp n=" + std::to_string(n));
    ExpectDeterministic([&] { return Tanh(a); },
                        "Tanh n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, MatMul2d) {
  for (int64_t n : kSizes) {
    Rng rng(n + 400);
    Tensor a = Tensor::Normal({n, 9}, 0.0f, 1.0f, &rng);
    Tensor b = Tensor::Normal({9, 5}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return MatMul(a, b); },
                        "MatMul2d m=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, MatMulBatched) {
  for (int64_t batch : kSizes) {
    Rng rng(batch + 500);
    Tensor a = Tensor::Normal({batch, 4, 6}, 0.0f, 1.0f, &rng);
    Tensor b3 = Tensor::Normal({batch, 6, 3}, 0.0f, 1.0f, &rng);
    Tensor b2 = Tensor::Normal({6, 3}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return MatMul(a, b3); },
                        "MatMul3d3d batch=" + std::to_string(batch));
    ExpectDeterministic([&] { return MatMul(a, b2); },
                        "MatMul3d2d batch=" + std::to_string(batch));
  }
}

TEST(ParDeterminismTest, TransposeLast2) {
  for (int64_t n : kSizes) {
    Rng rng(n + 600);
    Tensor a = Tensor::Normal({n, 5, 3}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return TransposeLast2(a); },
                        "TransposeLast2 n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, SoftmaxAxes) {
  for (int64_t n : kSizes) {
    Rng rng(n + 700);
    Tensor a = Tensor::Normal({n, 11}, 0.0f, 3.0f, &rng);
    ExpectDeterministic([&] { return Softmax(a); },
                        "Softmax last n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, AxisReductions) {
  for (int64_t n : kSizes) {
    Rng rng(n + 800);
    Tensor a = Tensor::Normal({n, 13}, 0.0f, 1.0f, &rng);
    ExpectDeterministic([&] { return Sum(a, 1); },
                        "Sum axis1 n=" + std::to_string(n));
    ExpectDeterministic([&] { return Sum(a, 0); },
                        "Sum axis0 n=" + std::to_string(n));
    ExpectDeterministic([&] { return Mean(a, 1); },
                        "Mean axis1 n=" + std::to_string(n));
    ExpectDeterministic([&] { return Max(a, 1); },
                        "Max axis1 n=" + std::to_string(n));
    ExpectDeterministic([&] { return Max(a, 0); },
                        "Max axis0 n=" + std::to_string(n));
  }
}

TEST(ParDeterminismTest, WholeTensorReductions) {
  for (int64_t n : kSizes) {
    Rng rng(n + 900);
    Tensor a = Tensor::Normal({n, 17}, 0.0f, 1.0f, &rng);
    Tensor b = Tensor::Normal({n, 17}, 0.0f, 1.0f, &rng);
    float max1, sum1;
    float diff1;
    {
      ScopedNumThreads scoped(1);
      max1 = MaxAll(a);
      sum1 = SumAll(a);
      diff1 = MaxAbsDiff(a, b);
    }
    for (int64_t threads : {2, 8}) {
      ScopedNumThreads scoped(threads);
      EXPECT_EQ(MaxAll(a), max1) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(SumAll(a), sum1) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(MaxAbsDiff(a, b), diff1)
          << "n=" << n << " threads=" << threads;
      EXPECT_TRUE(AllClose(a, a, 0.0f, 0.0f));
      EXPECT_FALSE(AllClose(a, b, 1e-8f, 1e-8f));
    }
  }
}

}  // namespace
}  // namespace par
}  // namespace elda
