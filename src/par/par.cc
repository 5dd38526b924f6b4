#include "par/par.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace elda {
namespace par {
namespace {

// Hard ceiling on worker threads, guarding against pathological
// ELDA_THREADS values; well above any sensible oversubscription factor.
constexpr int64_t kMaxWorkers = 256;

// How long an idle worker spins on the job sequence before it parks. A
// training step's dispatches arrive a few to a few tens of microseconds
// apart, so a window of this size keeps workers awake through a step while
// an idle pool goes quiet within a tenth of a millisecond.
constexpr std::chrono::microseconds kSpinWindow{100};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Pauses between an idle worker's clock checks and yields. A spinning
// worker holds its core, so when the box has fewer free cores than runnable
// threads (other processes, hypervisor steal) a thread the pool waits for
// can be queued behind it: without the yield, single dispatches stalled for
// a whole spin window. With nothing else runnable the yield returns at once.
constexpr int kSpinsPerYield = 64;

// Pauses a waiting caller spins before it parks on done_cv_. The caller is
// the dispatch's critical path, so it spins through short chunks (~200 us
// at ~50 ns per pause) and sleeps through long ones (a whole minibatch, a
// disk read) instead of holding a core a worker may need.
constexpr int kCallerSpins = 1 << 12;

std::atomic<int64_t> g_num_threads_override{0};

std::atomic<int64_t> g_parallel_dispatches{0};
std::atomic<int64_t> g_chunks{0};
std::atomic<int64_t> g_inline_runs{0};

thread_local bool tls_in_parallel_region = false;

struct InParallelScope {
  bool prev;
  InParallelScope() : prev(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~InParallelScope() { tls_in_parallel_region = prev; }
};

int64_t DefaultNumThreads() {
  static const int64_t cached = [] {
    if (const char* env = std::getenv("ELDA_THREADS")) {
      char* end = nullptr;
      const long value = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && value > 0) {
        return std::min<int64_t>(value, kMaxWorkers);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int64_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

}  // namespace

int64_t NumThreads() {
  const int64_t override = g_num_threads_override.load(std::memory_order_relaxed);
  return override > 0 ? override : DefaultNumThreads();
}

void SetNumThreads(int64_t n) {
  g_num_threads_override.store(n > 0 ? std::min(n, kMaxWorkers) : 0,
                               std::memory_order_relaxed);
}

int64_t ConfiguredNumThreads() {
  return g_num_threads_override.load(std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_parallel_region; }

ParStats Stats() {
  ParStats s;
  s.parallel_dispatches = g_parallel_dispatches.load(std::memory_order_relaxed);
  s.chunks = g_chunks.load(std::memory_order_relaxed);
  s.inline_runs = g_inline_runs.load(std::memory_order_relaxed);
  return s;
}

Pool::Pool(int64_t num_workers) { EnsureWorkers(num_workers); }

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int64_t Pool::num_workers() const {
  return num_workers_.load(std::memory_order_acquire);
}

void Pool::EnsureWorkers(int64_t n) {
  n = std::min(n, kMaxWorkers);
  if (num_workers_.load(std::memory_order_acquire) >= n) return;
  std::lock_guard<std::mutex> lock(mu_);
  // A new worker starts from the sequence as it stands now, so it still
  // joins a job published before its thread gets to run.
  const uint64_t seen = job_seq_.load(std::memory_order_acquire);
  while (static_cast<int64_t>(workers_.size()) < n) {
    workers_.emplace_back([this, seen] { WorkerLoop(seen); });
  }
  num_workers_.store(static_cast<int64_t>(workers_.size()),
                     std::memory_order_release);
}

bool Pool::AwaitJob(uint64_t* seen) {
  const auto spin_end = std::chrono::steady_clock::now() + kSpinWindow;
  for (int spins = 1;; ++spins) {
    const uint64_t seq = job_seq_.load(std::memory_order_acquire);
    if (seq != *seen) {
      *seen = seq;
      return true;
    }
    if (stop_.load(std::memory_order_relaxed)) return false;
    CpuRelax();
    // Reading the clock costs more than a pause; check it now and then.
    if (spins % kSpinsPerYield == 0) {
      if (std::chrono::steady_clock::now() >= spin_end) break;
      std::this_thread::yield();
    }
  }
  // Park. parked_ is raised before the predicate re-reads job_seq_, and
  // Run() bumps job_seq_ before it reads parked_ (both seq_cst), so either
  // this worker sees the new job or Run() sees it parked and notifies —
  // under mu_, which this worker holds until wait() releases it.
  std::unique_lock<std::mutex> lock(mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  work_cv_.wait(lock, [&] {
    return stop_.load(std::memory_order_seq_cst) ||
           job_seq_.load(std::memory_order_seq_cst) != *seen;
  });
  parked_.fetch_sub(1, std::memory_order_relaxed);
  if (stop_.load(std::memory_order_relaxed)) return false;
  *seen = job_seq_.load(std::memory_order_acquire);
  return true;
}

void Pool::WorkerLoop(uint64_t seen) {
  while (AwaitJob(&seen)) {
    // Announce before reading job_ (both seq_cst): Run() clears job_ before
    // it waits for workers_inside_ to drain, so either it waits for this
    // worker or this worker reads null / a newer job.
    workers_inside_.fetch_add(1, std::memory_order_seq_cst);
    if (Job* job = job_.load(std::memory_order_seq_cst)) RunChunks(job);
    if (workers_inside_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      WakeCaller();
    }
  }
}

void Pool::RunChunks(Job* job) {
  InParallelScope scope;
  for (;;) {
    const int64_t chunk = job->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job->num_chunks) break;
    try {
      (*job->fn)(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job->error) job->error = std::current_exception();
    }
    if (job->pending.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      WakeCaller();
    }
  }
}

void Pool::WakeCaller() {
  // Pairs with AwaitCaller: the count that just reached its target was
  // changed (seq_cst) before this load, and the caller raises the flag
  // before it re-reads the count, so either the caller sees the new count
  // or this thread sees the flag and notifies under mu_.
  if (caller_parked_.load(std::memory_order_seq_cst)) {
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_one();
  }
}

template <typename Done>
void Pool::AwaitCaller(Done done) {
  for (int spins = 0; spins < kCallerSpins; ++spins) {
    if (done()) return;
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(mu_);
  caller_parked_.store(true, std::memory_order_seq_cst);
  done_cv_.wait(lock, done);
  caller_parked_.store(false, std::memory_order_relaxed);
}

void Pool::Run(int64_t num_chunks, const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  Job job;
  job.fn = &fn;
  job.num_chunks = num_chunks;
  job.pending.store(num_chunks, std::memory_order_relaxed);
  job_.store(&job, std::memory_order_seq_cst);
  job_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // Taking mu_ orders the notify after any parking worker's wait().
    { std::lock_guard<std::mutex> lock(mu_); }
    work_cv_.notify_all();
  }
  RunChunks(&job);
  AwaitCaller([&] { return job.pending.load(std::memory_order_seq_cst) == 0; });
  // `job` lives on this stack frame: unpublish it, then wait out every
  // worker that may still hold the pointer.
  job_.store(nullptr, std::memory_order_seq_cst);
  AwaitCaller(
      [&] { return workers_inside_.load(std::memory_order_seq_cst) == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

Pool& GlobalPool() {
  // Leaked deliberately: joining worker threads during static destruction
  // deadlocks on some platforms, and the OS reclaims them anyway.
  static Pool* pool = new Pool(0);
  return *pool;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t max_threads) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t max_chunks = (n + g - 1) / g;
  int64_t threads = NumThreads();
  if (max_threads > 0) threads = std::min(threads, max_threads);
  if (max_chunks == 1 && max_threads != 1 && !InParallelRegion()) {
    // A single chunk has no concurrency to protect: run it inline without
    // marking a parallel region, so the kernels it calls still reach the
    // pool. (max_threads == 1 is a cap on them and keeps the region.)
    g_inline_runs.fetch_add(1, std::memory_order_relaxed);
    fn(begin, end);
    return;
  }
  threads = std::min(threads, max_chunks);
  if (threads <= 1 || InParallelRegion()) {
    // Exact serial fallback: one chunk over the whole range, same functor.
    g_inline_runs.fetch_add(1, std::memory_order_relaxed);
    InParallelScope scope;
    fn(begin, end);
    return;
  }
  // Over-decompose mildly (4 chunks per thread) so an unlucky slow chunk
  // does not stall the whole dispatch; chunk layout does not affect results
  // because every parallelized functor writes disjoint outputs.
  const int64_t chunks = std::min(max_chunks, threads * 4);
  g_parallel_dispatches.fetch_add(1, std::memory_order_relaxed);
  g_chunks.fetch_add(chunks, std::memory_order_relaxed);
  const int64_t base = n / chunks;
  const int64_t remainder = n % chunks;
  Pool& pool = GlobalPool();
  pool.EnsureWorkers(threads - 1);
  pool.Run(chunks, [&](int64_t chunk) {
    const int64_t extra = std::min(chunk, remainder);
    const int64_t lo = begin + chunk * base + extra;
    const int64_t hi = lo + base + (chunk < remainder ? 1 : 0);
    fn(lo, hi);
  });
}

}  // namespace par
}  // namespace elda
