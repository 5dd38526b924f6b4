#include "data/sharded_loader.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "par/par.h"
#include "util/byte_codec.h"
#include "util/logging.h"

namespace elda {
namespace data {
namespace {

constexpr uint32_t kLoaderStateMagic = 0x4C435253;  // "SRCL"

bool KeepIndex(int64_t global_index, int64_t split_mod,
               const std::vector<int64_t>& split_keep) {
  if (split_mod <= 1) return true;
  const int64_t residue = global_index % split_mod;
  for (int64_t keep : split_keep) {
    if (residue == keep) return true;
  }
  return false;
}

// Why `reader` cannot join a cohort of `num_features` columns, or "" when it
// can.
std::string ShardProblem(const ShardReader& reader, const std::string& path,
                         int64_t num_features) {
  if (!reader.ok()) return reader.error();
  if (reader.num_features() != num_features) {
    return "shard " + path + " has " + std::to_string(reader.num_features()) +
           " features, the cohort " + std::to_string(num_features);
  }
  return "";
}

}  // namespace

Standardizer FitStandardizerFromShards(
    const std::vector<std::string>& shard_paths, int64_t split_mod,
    const std::vector<int64_t>& split_keep, bool clean_negative,
    std::string* error) {
  ELDA_CHECK(!shard_paths.empty());
  std::vector<double> sum, sum_sq;
  std::vector<int64_t> count;
  int64_t num_features = -1;
  int64_t global_index = 0;
  for (const std::string& path : shard_paths) {
    ShardReader reader(path);
    if (num_features < 0 && reader.ok()) {
      num_features = reader.num_features();
      sum.assign(num_features, 0.0);
      sum_sq.assign(num_features, 0.0);
      count.assign(num_features, 0);
    }
    const std::string problem = ShardProblem(reader, path, num_features);
    if (!problem.empty()) {
      if (error != nullptr) *error = problem;
      return Standardizer();
    }
    for (int64_t i = 0; i < reader.size(); ++i, ++global_index) {
      if (!KeepIndex(global_index, split_mod, split_keep)) continue;
      EmrSample s;
      if (!reader.Read(i, &s)) continue;  // quarantined record
      for (int64_t t = 0; t < s.num_steps; ++t) {
        for (int64_t c = 0; c < num_features; ++c) {
          if (!s.is_observed(t, c)) continue;
          const float v = s.value(t, c);
          if (clean_negative && v < 0.0f) continue;
          sum[c] += v;
          sum_sq[c] += static_cast<double>(v) * v;
          ++count[c];
        }
      }
    }
  }
  // Identical arithmetic to Standardizer::Fit, so a shard round trip of an
  // in-RAM cohort fits the same statistics bit-for-bit.
  std::vector<float> mean(num_features, 0.0f);
  std::vector<float> stddev(num_features, 1.0f);
  for (int64_t c = 0; c < num_features; ++c) {
    if (count[c] == 0) continue;
    mean[c] = static_cast<float>(sum[c] / count[c]);
    const double var =
        sum_sq[c] / count[c] - static_cast<double>(mean[c]) * mean[c];
    stddev[c] = static_cast<float>(std::sqrt(std::max(var, 1e-8)));
  }
  Standardizer standardizer;
  standardizer.Restore(std::move(mean), std::move(stddev), clean_negative);
  return standardizer;
}

ShardedLoader::ShardedLoader(const std::vector<std::string>& shard_paths,
                             const Standardizer* standardizer,
                             ShardedLoaderOptions options)
    : options_(std::move(options)),
      standardizer_(standardizer),
      rng_(options_.seed) {
  ELDA_CHECK(!shard_paths.empty());
  ELDA_CHECK(standardizer_ != nullptr);
  ELDA_CHECK_GT(options_.batch_size, 0);
  ELDA_CHECK_GT(options_.num_buckets, 0);
  ELDA_CHECK_GT(options_.split_mod, 0);
  // FitStandardizerFromShards leaves the standardizer unfitted when it
  // rejects a shard.
  if (!standardizer_->fitted()) {
    Reject("standardizer is not fitted");
    return;
  }

  int64_t global_index = 0;
  for (const std::string& path : shard_paths) {
    auto reader = std::make_unique<ShardReader>(path);
    if (readers_.empty() && reader->ok()) {
      feature_names_ = reader->feature_names();
    }
    const std::string problem = ShardProblem(
        *reader, path, static_cast<int64_t>(feature_names_.size()));
    if (!problem.empty()) {
      Reject(problem);
      return;
    }
    const int32_t shard_id = static_cast<int32_t>(readers_.size());
    for (int64_t i = 0; i < reader->size(); ++i, ++global_index) {
      if (!KeepIndex(global_index, options_.split_mod, options_.split_keep)) {
        continue;
      }
      int64_t length = 0, grid_steps = 0;
      if (!reader->PeekShape(i, &length, &grid_steps) || length < 0 ||
          length > grid_steps) {
        num_quarantined_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Entry e;
      e.shard = shard_id;
      e.record = static_cast<int32_t>(i);
      e.length = static_cast<int32_t>(length);
      e.grid_steps = static_cast<int32_t>(grid_steps);
      e.global_index = global_index;
      entries_.push_back(e);
    }
    // The frame scan + per-record shape peeks fault-around most of the
    // shard's pages; drop them now so indexing N shards keeps ~one shard
    // resident instead of the whole cohort.
    reader->ReleasePages();
    readers_.push_back(std::move(reader));
  }
  if (entries_.empty()) {
    Reject("the loader split selects no readable records");
    return;
  }

  // Bucket boundaries are length quantiles of the kept records, so each
  // bucket holds ~1/num_buckets of the cohort and padding within a bucket
  // is bounded by the bucket's length spread.
  std::vector<int64_t> lengths;
  lengths.reserve(entries_.size());
  for (const Entry& e : entries_) lengths.push_back(e.length);
  std::sort(lengths.begin(), lengths.end());
  const int64_t n = static_cast<int64_t>(lengths.size());
  bucket_upper_.clear();
  for (int64_t b = 0; b < options_.num_buckets; ++b) {
    const int64_t hi = (b + 1) * n / options_.num_buckets;
    bucket_upper_.push_back(lengths[std::max<int64_t>(0, hi - 1)]);
  }
  bucket_upper_.back() = lengths.back();
  bucket_entries_.assign(bucket_upper_.size(), {});
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t b = 0;
    while (b + 1 < bucket_upper_.size() &&
           entries_[i].length > bucket_upper_[b]) {
      ++b;
    }
    bucket_entries_[b].push_back(static_cast<int64_t>(i));
  }
}

ShardedLoader::~ShardedLoader() { StopPrefetch(); }

void ShardedLoader::Reject(std::string message) {
  error_ = std::move(message);
  readers_.clear();
  feature_names_.clear();
  entries_.clear();
}

int64_t ShardedLoader::NumBatchesPerEpoch() const {
  int64_t batches = 0;
  for (const std::vector<int64_t>& bucket : bucket_entries_) {
    batches += (static_cast<int64_t>(bucket.size()) + options_.batch_size - 1) /
               options_.batch_size;
  }
  return batches;
}

double ShardedLoader::PaddingWaste() const {
  // Upper bound: pad every bucket to its longest grid. Actual batches pad to
  // their own max, so any epoch plan wastes at most this fraction.
  double padded = 0.0, real = 0.0;
  for (const std::vector<int64_t>& bucket : bucket_entries_) {
    int64_t bucket_max = 0;
    int64_t bucket_real = 0;
    for (int64_t idx : bucket) {
      bucket_max = std::max<int64_t>(bucket_max, entries_[idx].grid_steps);
      bucket_real += entries_[idx].length;
    }
    padded += static_cast<double>(bucket_max) *
              static_cast<double>(bucket.size());
    real += static_cast<double>(bucket_real);
  }
  if (padded == 0.0) return 0.0;
  return 1.0 - real / padded;
}

void ShardedLoader::BuildEpochPlan(Rng* rng) {
  plan_.clear();
  for (const std::vector<int64_t>& bucket : bucket_entries_) {
    std::vector<int64_t> order = bucket;
    rng->Shuffle(&order);
    for (int64_t start = 0; start < static_cast<int64_t>(order.size());
         start += options_.batch_size) {
      const int64_t end = std::min<int64_t>(start + options_.batch_size,
                                            static_cast<int64_t>(order.size()));
      plan_.emplace_back(order.begin() + start, order.begin() + end);
    }
  }
  // Interleave buckets so the gradient stream is not sorted by length.
  rng->Shuffle(&plan_);
}

bool ShardedLoader::BuildBatch(int64_t plan_index, Batch* batch) {
  // Intra-epoch residency cap: on cohorts larger than RAM an epoch touches
  // every shard page, so without this the peak RSS is the cohort size.
  // Dropping the mappings is perf-only (rows re-fault from the page cache);
  // the decoded bytes — and therefore the batch stream — are unchanged.
  if (options_.release_pages_budget_bytes > 0 &&
      bytes_since_release_ >= options_.release_pages_budget_bytes) {
    bytes_since_release_ = 0;
    ReleasePages();
  }
  const std::vector<int64_t>& batch_entries = plan_[plan_index];
  const int64_t features = static_cast<int64_t>(feature_names_.size());
  for (int64_t entry_index : batch_entries) {
    // values (float) + observed (byte) per grid cell dominates the frame.
    bytes_since_release_ +=
        entries_[entry_index].grid_steps * features * 5 + 64;
  }
  const int64_t rows = static_cast<int64_t>(batch_entries.size());
  std::vector<PreparedSample> prepared(rows);
  std::vector<uint8_t> row_ok(rows, 0);
  // Decode + standardise + impute each row independently; rows are disjoint
  // slots, so the result is bitwise identical for any thread count.
  par::ParallelFor(0, rows, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const Entry& e = entries_[batch_entries[i]];
      EmrSample sample;
      if (!readers_[e.shard]->Read(e.record, &sample)) continue;
      prepared[i] = PrepareOne(sample, *standardizer_);
      row_ok[i] = 1;
    }
  });
  std::vector<int64_t> kept;
  kept.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    if (row_ok[i]) {
      kept.push_back(i);
    } else {
      num_quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (kept.empty()) return false;
  *batch = MakeBatch(prepared, kept, options_.task);
  // Report provenance as pre-filter global record indices, not positions in
  // the local `prepared` scratch vector.
  for (size_t i = 0; i < kept.size(); ++i) {
    batch->sample_indices[i] = entries_[batch_entries[kept[i]]].global_index;
  }
  return true;
}

void ShardedLoader::StartEpoch() {
  StopPrefetch();
  bytes_since_release_ = 0;
  epoch_start_rng_ = rng_.SaveState();
  BuildEpochPlan(&rng_);
  cursor_ = 0;
  epoch_active_ = true;
  if (options_.prefetch && !plan_.empty()) StartPrefetch();
}

bool ShardedLoader::Next(Batch* batch) {
  if (!epoch_active_) return false;
  const int64_t plan_size = static_cast<int64_t>(plan_.size());
  while (cursor_ < plan_size) {
    Batch candidate;
    bool have = false;
    if (prefetch_thread_.joinable()) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !ready_.empty(); });
      ELDA_CHECK_EQ(ready_.front().first, cursor_);
      candidate = std::move(ready_.front().second);
      ready_.pop_front();
      cv_.notify_all();
      have = !candidate.sample_indices.empty();
    } else {
      have = BuildBatch(cursor_, &candidate);
    }
    ++cursor_;
    if (have) {
      *batch = std::move(candidate);
      return true;
    }
    // Every row of this plan batch was quarantined; fall through to the next.
  }
  StopPrefetch();
  epoch_active_ = false;
  ReleasePages();
  return false;
}

void ShardedLoader::StartPrefetch() {
  stop_prefetch_ = false;
  ready_.clear();
  produce_next_ = cursor_;
  prefetch_thread_ = std::thread([this] { PrefetchLoop(); });
}

void ShardedLoader::StopPrefetch() {
  if (prefetch_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_prefetch_ = true;
    }
    cv_.notify_all();
    prefetch_thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  stop_prefetch_ = false;
  ready_.clear();
}

void ShardedLoader::PrefetchLoop() {
  const int64_t plan_size = static_cast<int64_t>(plan_.size());
  while (true) {
    int64_t index;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_prefetch_ ||
               (ready_.size() < 2 && produce_next_ < plan_size);
      });
      if (stop_prefetch_) return;
      index = produce_next_++;
    }
    Batch batch;
    const bool have = BuildBatch(index, &batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.emplace_back(index, have ? std::move(batch) : Batch());
    }
    cv_.notify_all();
    if (index + 1 >= plan_size) return;
  }
}

std::string ShardedLoader::ExportState() const {
  util::ByteWriter state;
  state.Put<uint32_t>(kLoaderStateMagic);
  state.Put<uint8_t>(epoch_active_ ? 1 : 0);
  PutRngState(&state, epoch_active_ ? epoch_start_rng_ : rng_.SaveState());
  state.Put<int64_t>(epoch_active_ ? cursor_ : 0);
  state.Put<int64_t>(static_cast<int64_t>(entries_.size()));
  return state.Take();
}

bool ShardedLoader::RestoreState(const std::string& state) {
  util::ByteReader reader(state);
  uint32_t magic = 0;
  uint8_t active = 0;
  RngState rng_state;
  int64_t cursor = 0, num_entries = 0;
  reader.Get(&magic);
  reader.Get(&active);
  GetRngState(&reader, &rng_state);
  reader.Get(&cursor);
  reader.Get(&num_entries);
  if (!reader.AtEnd() || magic != kLoaderStateMagic ||
      num_entries != static_cast<int64_t>(entries_.size())) {
    return false;
  }

  StopPrefetch();
  rng_.RestoreState(rng_state);
  if (active) {
    // Replay the epoch shuffle from the saved snapshot; the plan is a pure
    // function of the rng, so the remaining batches are bitwise identical.
    epoch_start_rng_ = rng_state;
    BuildEpochPlan(&rng_);
    if (cursor < 0 || cursor > static_cast<int64_t>(plan_.size())) {
      epoch_active_ = false;
      plan_.clear();
      return false;
    }
    cursor_ = cursor;
    epoch_active_ = true;
    if (options_.prefetch && cursor_ < static_cast<int64_t>(plan_.size())) {
      StartPrefetch();
    }
  } else {
    epoch_active_ = false;
    plan_.clear();
    cursor_ = 0;
  }
  return true;
}

void ShardedLoader::ReleasePages() {
  for (const std::unique_ptr<ShardReader>& reader : readers_) {
    reader->ReleasePages();
  }
}

}  // namespace data
}  // namespace elda
