// Out-of-core batch loader over memory-mapped shards.
//
// The ShardedLoader is the streaming counterpart of the in-RAM Batcher: it
// implements the same BatchSource interface over shard files written by
// data::ShardWriter, so Trainer::TrainStreamed can train on cohorts that
// never fit in memory. Three mechanisms keep it fast and reproducible:
//
//   - Length-bucketed batching. Record lengths are peeked (8 bytes per
//     record) at open; bucket boundaries are length quantiles, so every
//     batch mixes only similar lengths and padding waste is bounded.
//     Batches never cross buckets.
//   - Double-buffered prefetch. A background thread materializes up to two
//     batches ahead (decode + standardise + impute via par::ParallelFor over
//     rows) while the trainer consumes the current one. The epoch plan is
//     fixed before the thread starts, so the batch stream is bitwise
//     identical with prefetch on or off and for any thread count.
//   - Deterministic checkpointable cursor. Each epoch's plan is a pure
//     function of the loader's Rng; ExportState captures the epoch-start
//     Rng snapshot plus the batch cursor, and RestoreState replays the
//     shuffle, so resume is bitwise. The state string travels through the
//     elda::health sectioned-checkpoint path.
//
// RSS stays bounded by the in-flight batches: shards are mmap'd read-only
// and their pages are dropped (madvise) per shard during index construction,
// every `release_pages_budget_bytes` decoded bytes mid-epoch, and again at
// every epoch end, so residency is capped by the release budget — not the
// cohort size. Dropped pages re-fault from the page cache on the next
// touch; values never change.

#ifndef ELDA_DATA_SHARDED_LOADER_H_
#define ELDA_DATA_SHARDED_LOADER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/pipeline.h"
#include "data/shard_io.h"
#include "util/rng.h"

namespace elda {
namespace data {

struct ShardedLoaderOptions {
  int64_t batch_size = 32;
  // Number of length buckets; 1 disables bucketing (pure shuffle).
  int64_t num_buckets = 4;
  // Background double-buffered prefetch. Never changes the batch stream.
  bool prefetch = true;
  Task task = Task::kMortality;
  // Seeds the shuffle cursor.
  uint64_t seed = 0x10ADE25ULL;
  // Deterministic split filter: keep records whose global index i satisfies
  // (i % split_mod) ∈ split_keep. The default keeps every record; e.g.
  // mod=10 keep={0..7} / {8} / {9} is an 80/10/10 split that partitions the
  // cohort exactly across three loaders.
  int64_t split_mod = 1;
  std::vector<int64_t> split_keep = {0};
  // Drop the shards' mapped pages once this many record bytes have been
  // decoded since the last drop (and always at epoch end), capping resident
  // memory on cohorts larger than RAM at roughly this budget regardless of
  // how long the stays in the current buckets are. 0 releases at epoch end
  // only. Perf-only — the batch stream is byte-identical for any value.
  int64_t release_pages_budget_bytes = 256LL << 20;
};

// Streaming mean/std fit over shards (observed cells of the kept records
// only), equivalent to Standardizer::Fit on the same records in order. A
// shard that does not open cleanly, or whose feature count differs from the
// first shard's, returns an unfitted Standardizer and, when `error` is
// non-null, the reason.
Standardizer FitStandardizerFromShards(
    const std::vector<std::string>& shard_paths, int64_t split_mod = 1,
    const std::vector<int64_t>& split_keep = {0}, bool clean_negative = true,
    std::string* error = nullptr);

class ShardedLoader : public BatchSource {
 public:
  ShardedLoader(const std::vector<std::string>& shard_paths,
                const Standardizer* standardizer,
                ShardedLoaderOptions options);
  ~ShardedLoader() override;

  ShardedLoader(const ShardedLoader&) = delete;
  ShardedLoader& operator=(const ShardedLoader&) = delete;

  // False when construction rejected its input: a shard that is not ok(), a
  // shard whose feature count differs from the first one's, an unfitted
  // standardizer, or a split that keeps no readable record. A rejected
  // loader holds no records and yields no batches; error() says why.
  bool ok() const { return error_.empty(); }
  std::string error() const override { return error_; }

  void StartEpoch() override;
  bool Next(Batch* batch) override;
  int64_t NumBatchesPerEpoch() const override;
  std::string ExportState() const override;
  bool RestoreState(const std::string& state) override;

  // Records kept after the split filter (and quarantine).
  int64_t num_records() const {
    return static_cast<int64_t>(entries_.size());
  }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  // Fraction of padded grid rows that carry no real data, over one epoch of
  // the current bucketing ((padded - real) / padded). Plan-independent: only
  // bucket membership matters, not shuffle order.
  double PaddingWaste() const;
  // Records skipped because their payload failed CRC/shape validation.
  int64_t num_quarantined() const {
    return num_quarantined_.load(std::memory_order_relaxed);
  }
  // Drops resident shard pages (also called automatically at epoch end).
  void ReleasePages();

 private:
  struct Entry {
    int32_t shard = 0;
    int32_t record = 0;
    int32_t length = 0;
    int32_t grid_steps = 0;
    int64_t global_index = 0;  // pre-filter index across all shards
  };

  // Records why construction failed and empties the loader.
  void Reject(std::string message);
  void BuildEpochPlan(Rng* rng);
  // Materializes plan batch `plan_index`. Returns false if every row was
  // quarantined (the caller skips the batch).
  bool BuildBatch(int64_t plan_index, Batch* batch);
  void StopPrefetch();
  void StartPrefetch();
  void PrefetchLoop();

  ShardedLoaderOptions options_;
  const Standardizer* standardizer_;
  std::string error_;
  std::vector<std::unique_ptr<ShardReader>> readers_;
  std::vector<std::string> feature_names_;
  std::vector<Entry> entries_;
  std::vector<int64_t> bucket_upper_;  // inclusive length bound per bucket
  std::vector<std::vector<int64_t>> bucket_entries_;  // entry idx per bucket
  std::atomic<int64_t> num_quarantined_{0};

  Rng rng_;
  RngState epoch_start_rng_;  // snapshot taken just before the epoch shuffle
  std::vector<std::vector<int64_t>> plan_;  // entry indices per batch
  int64_t cursor_ = 0;
  bool epoch_active_ = false;
  // Record bytes decoded since the last intra-epoch madvise; only ever
  // touched by the single thread that calls BuildBatch (producer when
  // prefetching, consumer otherwise).
  int64_t bytes_since_release_ = 0;

  // Prefetch machinery. The producer thread builds plan batches in order;
  // ready_ holds at most two.
  std::thread prefetch_thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int64_t, Batch>> ready_;
  int64_t produce_next_ = 0;
  bool stop_prefetch_ = false;
};

}  // namespace data
}  // namespace elda

#endif  // ELDA_DATA_SHARDED_LOADER_H_
