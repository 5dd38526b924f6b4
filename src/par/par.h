// Data-parallel execution substrate: a lazily-initialized global thread pool
// with ParallelFor / ParallelReduce helpers used by the tensor kernels and
// the trainer's batched prediction path.
//
// Design constraints (see DESIGN.md "Threading model"):
//   - Determinism. Every parallelized kernel partitions *output* elements
//     into disjoint chunks and computes each element with exactly the same
//     instruction sequence as the serial code, so results are bitwise
//     identical for any thread count. Reductions go through ParallelReduce,
//     whose chunk layout depends only on the grain (never on the thread
//     count) and whose partials are combined in chunk order; only reductions
//     with an exact combine (max, logical and) are parallelized.
//   - `num_threads == 1` is an exact serial fallback on the same code path:
//     the chunk functor runs inline on the calling thread.
//   - Nested ParallelFor calls run inline on the worker that issued them, so
//     batch-level parallelism (Trainer::Predict) composes with kernel-level
//     parallelism without oversubscription or deadlock.
//   - Exceptions thrown by a chunk are captured and rethrown on the calling
//     thread after all chunks finish (the repo's own code CHECK-aborts
//     rather than throwing, but the pool must not silently eat errors from
//     user-supplied functors).
//
// Thread count resolution, in decreasing priority: SetNumThreads(n > 0)
// (the `--threads` flag and TrainerConfig::num_threads end up here), the
// ELDA_THREADS environment variable, std::thread::hardware_concurrency().

#ifndef ELDA_PAR_PAR_H_
#define ELDA_PAR_PAR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace elda {
namespace par {

// Configured thread count: override > ELDA_THREADS > hardware_concurrency.
// Always >= 1.
int64_t NumThreads();

// Sets the global thread-count override; n <= 0 restores automatic
// resolution (ELDA_THREADS / hardware_concurrency).
void SetNumThreads(int64_t n);

// The raw override as last set by SetNumThreads (0 when automatic).
int64_t ConfiguredNumThreads();

// True when called from inside a ParallelFor chunk (worker or participating
// caller). Nested parallel calls detect this and run inline.
bool InParallelRegion();

// Dispatch counters since process start (relaxed atomics; surfaced by the
// ELDA_PROF report so pool-vs-inline behaviour is visible next to the
// per-op numbers).
struct ParStats {
  int64_t parallel_dispatches = 0;  // ParallelFor calls that used the pool
  int64_t chunks = 0;               // chunks executed by those dispatches
  int64_t inline_runs = 0;          // serial fallbacks (1 thread, small
                                    // range, or nested region)
};
ParStats Stats();

// RAII override of the global thread count; n <= 0 leaves it untouched.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int64_t n)
      : active_(n > 0), prev_(ConfiguredNumThreads()) {
    if (active_) SetNumThreads(n);
  }
  ~ScopedNumThreads() {
    if (active_) SetNumThreads(prev_);
  }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  bool active_;
  int64_t prev_;
};

// A persistent worker pool. The calling thread of Run() participates, so a
// pool with W workers executes jobs on W+1 threads. Pools are independent;
// the process-wide instance used by ParallelFor lives behind GlobalPool().
//
// Workers spin, then park. After finishing a job a worker spins on the job
// sequence for a fixed window (kSpinWindow in par.cc, 100 us) and only then
// sleeps on a condition variable, so back-to-back dispatches — a training
// step issues hundreds — reach awake workers in under a microsecond instead
// of paying a futex wake each (~10 us). Run() publishes a job with atomics
// and notifies only when some worker is parked. The caller waits for its
// chunks the same way: it spins for a bounded ~200 us, then parks until the
// thread that finishes the last chunk wakes it. Spinning workers yield
// their core every few dozen pauses, so a thread the pool waits for is
// never starved of a core for a whole window. The pool's CPU cost beyond
// the chunks themselves is bounded: one spin window per worker after each
// burst of jobs, and one caller spin per dispatch.
class Pool {
 public:
  explicit Pool(int64_t num_workers);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int64_t num_workers() const;

  // Grows the pool to at least `n` workers (never shrinks).
  void EnsureWorkers(int64_t n);

  // Executes fn(chunk) for every chunk in [0, num_chunks) across the workers
  // and the calling thread; blocks until all chunks finish. Rethrows the
  // first exception thrown by any chunk. Concurrent Run() calls from
  // different threads are serialized.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn);

 private:
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t num_chunks = 0;
    std::atomic<int64_t> next{0};     // next unclaimed chunk
    std::atomic<int64_t> pending{0};  // chunks not yet finished
    std::exception_ptr error;         // first failure; guarded by pool mu_
  };

  // Runs jobs published after sequence number `seen` until the pool stops.
  void WorkerLoop(uint64_t seen);
  // Spins, then parks, until the job sequence moves past *seen (true, with
  // *seen updated) or the pool stops (false).
  bool AwaitJob(uint64_t* seen);
  void RunChunks(Job* job);
  // The caller of Run() spins, then parks on done_cv_, until done() holds.
  template <typename Done>
  void AwaitCaller(Done done);
  // Called by the thread that brings a count the caller waits on to its
  // target; notifies the caller if it has parked.
  void WakeCaller();

  mutable std::mutex mu_;            // guards workers_, parking, job errors
  std::condition_variable work_cv_;  // parked workers wait for a job / stop
  std::condition_variable done_cv_;  // a parked caller waits for its job
  std::vector<std::thread> workers_;
  std::atomic<int64_t> num_workers_{0};  // workers_.size(), lock-free read
  // The current job, or null once its caller has stopped waiting for it.
  // Run() clears it before waiting for workers_inside_ to drain, so a worker
  // that enters late sees null (or a later job), never a dead stack frame.
  std::atomic<Job*> job_{nullptr};
  std::atomic<uint64_t> job_seq_{0};        // bumped per job
  std::atomic<int64_t> workers_inside_{0};  // workers that may touch job_
  std::atomic<int64_t> parked_{0};          // workers asleep on work_cv_
  std::atomic<bool> caller_parked_{false};  // the caller sleeps on done_cv_
  std::atomic<bool> stop_{false};
  std::mutex run_mu_;  // serializes concurrent Run() callers
};

// The process-wide pool used by ParallelFor. Created on first use, grown on
// demand, intentionally leaked (worker threads must not be joined during
// static destruction).
Pool& GlobalPool();

// Splits [begin, end) into contiguous chunks of at least `grain` elements
// and runs fn(chunk_begin, chunk_end) for each, possibly concurrently.
// Runs fn(begin, end) inline when the effective thread count is 1, the
// range fits in one grain, or the caller is already inside a parallel
// region. A range that fits in one grain does not mark a parallel region
// (unless max_threads == 1), so the kernels it calls may still use the
// pool. `max_threads` caps the thread count for this call only
// (0 = use the global setting).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t max_threads = 0);

// Deterministic partitioned reduction. The range is cut into fixed chunks
// of `grain` elements — the layout depends only on `grain`, never on the
// thread count — `map(chunk_begin, chunk_end) -> T` computes each partial,
// and `combine` folds the partials left-to-right in chunk order. With an
// exact combine (max, min, logical and/or) the result is bitwise identical
// to a serial loop for every thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 MapFn map, CombineFn combine) {
  const int64_t n = end - begin;
  if (n <= 0) return identity;
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t chunks = (n + g - 1) / g;
  if (chunks == 1) return combine(identity, map(begin, end));
  std::vector<T> partials(static_cast<size_t>(chunks), identity);
  ParallelFor(0, chunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t lo = begin + c * g;
      const int64_t hi = std::min(end, lo + g);
      partials[static_cast<size_t>(c)] = map(lo, hi);
    }
  });
  T acc = identity;
  for (int64_t c = 0; c < chunks; ++c) {
    acc = combine(acc, partials[static_cast<size_t>(c)]);
  }
  return acc;
}

// Default grain for cheap element-wise loops: small enough to spread work,
// large enough that dispatch (~1-2 us to awake workers, a few us more when
// they have parked) stays negligible.
inline constexpr int64_t kElementGrain = 1 << 15;

// Caps the number of chunks a ParallelFor produces at a few per thread.
// Work-size-derived grains (e.g. "one chunk per N flops") can degenerate to
// grain 1 on large batches of small items, producing thousands of chunks
// whose dispatch and per-chunk setup (pool buffers, packing) swamp the
// work — and get *worse* with more threads contending on the chunk queue.
// Returns max(min_grain, ceil(items / (threads * kChunksPerThread))): the
// work-derived floor is kept for load-balancing heavy items, but the chunk
// count never exceeds kChunksPerThread per thread. Chunk layout affects
// only scheduling, never per-element arithmetic, so kernels stay bitwise
// identical across thread counts even though the grain depends on
// NumThreads().
inline constexpr int64_t kChunksPerThread = 4;
inline int64_t BalancedGrain(int64_t items, int64_t min_grain) {
  const int64_t target_chunks = NumThreads() * kChunksPerThread;
  const int64_t cap_grain = (items + target_chunks - 1) / target_chunks;
  return std::max<int64_t>(1, std::max(min_grain, cap_grain));
}

}  // namespace par
}  // namespace elda

#endif  // ELDA_PAR_PAR_H_
