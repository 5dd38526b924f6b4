#include "par/par.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace elda {
namespace par {
namespace {

// Hard ceiling on worker threads, guarding against pathological
// ELDA_THREADS values; well above any sensible oversubscription factor.
constexpr int64_t kMaxWorkers = 256;

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
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int64_t Pool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(workers_.size());
}

void Pool::EnsureWorkers(int64_t n) {
  n = std::min(n, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int64_t>(workers_.size()) < n) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Pool::WorkerLoop() {
  uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && job_seq_ != seen_seq);
      });
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;
      ++workers_inside_;
    }
    RunChunks(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_inside_;
    }
    done_cv_.notify_all();
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
    if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Acquire/release mu_ before notifying so a waiter that just checked
      // the predicate is guaranteed to be asleep (no lost wakeup).
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void Pool::Run(int64_t num_chunks, const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  Job job;
  job.fn = &fn;
  job.num_chunks = num_chunks;
  job.pending.store(num_chunks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();
  RunChunks(&job);
  {
    // Wait until every chunk has finished AND every worker has left the
    // claim loop — `job` lives on this stack frame.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.pending.load(std::memory_order_acquire) == 0 &&
             workers_inside_ == 0;
    });
    job_ = nullptr;
  }
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
