// Preprocessing pipeline: cleaning, standardisation, imputation, batching.
//
// Mirrors the paper's Section IV-B / V-A protocol:
//   1. Clean noisy values (negative physiological readings are treated as
//      recording errors and dropped from the observation mask).
//   2. Mean-std standardisation per feature, fitted on *observed train cells
//      only* so that no test statistics leak into training.
//   3. Imputation of unobserved cells: before a feature's first observation
//      use the global (training) mean — which is exactly 0 after
//      standardisation; afterwards carry the last observation forward.
//   4. Batching into dense tensors X[B,T,C], M[B,T,C] (observation mask) and
//      Delta[B,T,C] (steps since the feature was last observed, used by
//      GRU-D's decay mechanism), plus the task label vector y[B].

#ifndef ELDA_DATA_PIPELINE_H_
#define ELDA_DATA_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "data/emr.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace elda {
namespace data {

enum class Task {
  kMortality,  // in-hospital mortality within the admission
  kLosGt7,     // length of stay > 7 days
};

// Per-feature standardisation statistics fitted on observed training cells.
class Standardizer {
 public:
  // Fits mean/std per feature over the observed cells of `dataset` restricted
  // to `train_indices`. When `clean_negative` is set, negative observed
  // values are excluded from the statistics (and the Apply step removes them
  // from the mask), following the paper's data-cleaning note.
  void Fit(const EmrDataset& dataset,
           const std::vector<int64_t>& train_indices,
           bool clean_negative = true);

  // Standardises observed cells in place; unobserved cells are zeroed (the
  // post-standardisation global mean). Cleans negative observations if the
  // standardizer was fitted with cleaning enabled.
  void Apply(EmrSample* sample) const;

  bool fitted() const { return !mean_.empty(); }
  float mean(int64_t feature) const { return mean_[feature]; }
  float stddev(int64_t feature) const { return std_[feature]; }

  // Persistence for deployment (see core::Elda::Save/Load).
  const std::vector<float>& means() const { return mean_; }
  const std::vector<float>& stddevs() const { return std_; }
  bool clean_negative() const { return clean_negative_; }
  void Restore(std::vector<float> means, std::vector<float> stddevs,
               bool clean_negative);

 private:
  std::vector<float> mean_;
  std::vector<float> std_;
  bool clean_negative_ = true;
};

// A dataset after standardisation and imputation, as dense per-sample
// tensors ready for batching. Tensors cover the sample's own grid (ragged
// samples stay small until batching pads them).
struct PreparedSample {
  Tensor x;      // [T, C] standardised, imputed
  Tensor mask;   // [T, C] 1 = observed
  Tensor delta;  // [T, C] steps since last observation (0 when observed now)
  int64_t length = 0;  // valid-prefix length (== T for dense samples)
  float mortality_label = 0.0f;
  float los_gt7_label = 0.0f;
  // Multi-task labels carried through from EmrSample; empty on legacy
  // samples (see data/emr.h).
  std::vector<float> decomp_labels;     // [T] per-step decompensation
  std::vector<float> phenotype_labels;  // [kNumPhenotypes]
  int64_t condition = -1;
  int64_t source_index = -1;  // index into the raw dataset
};

// Applies the pipeline (clean + standardise + impute + delta) to one sample.
// The standardizer must already be fitted. `source_index` is left at -1.
PreparedSample PrepareOne(const EmrSample& sample,
                          const Standardizer& standardizer);

// Applies the full pipeline to every sample.
std::vector<PreparedSample> PrepareDataset(const EmrDataset& dataset,
                                           const Standardizer& standardizer);

// A dense mini-batch. T is the longest grid in the batch; shorter samples
// are zero-padded on the right, with `lengths` recording each row's
// valid-prefix (the ragged contract from data/emr.h).
struct Batch {
  Tensor x;      // [B, T, C]
  Tensor mask;   // [B, T, C]
  Tensor delta;  // [B, T, C]
  Tensor y;      // [B] the primary task's labels (Task passed to MakeBatch)
  // -- Multi-task label slabs -------------------------------------------------
  // y_los is always filled (it is free). y_decomp / y_pheno materialize only
  // when every sample in the batch carries multi-task labels; otherwise they
  // stay undefined — check has_multitask_labels(). Padding cells of y_decomp
  // (t >= lengths[b]) are zero and must be masked via lengths/step_mask.
  Tensor y_los;     // [B] LOS>7d labels
  Tensor y_decomp;  // [B, T] per-step decompensation targets
  Tensor y_pheno;   // [B, kNumPhenotypes]
  // Per-row valid-prefix lengths. Always sized [B]; all-equal-to-T for
  // uniform batches, which take the dense fixed-T code paths.
  std::vector<int64_t> lengths;
  // [B, T] step-validity mask (1 for t < lengths[b]). Materialized only for
  // ragged batches; empty (0 elements) when the batch is uniform.
  Tensor step_mask;
  std::vector<int64_t> sample_indices;  // into the prepared vector

  // True when the multi-task label slabs (y_decomp / y_pheno) are present.
  bool has_multitask_labels() const {
    return y_decomp.defined() && y_pheno.defined();
  }

  // True when every row's length equals T (the dense case).
  bool UniformLength() const;
  // &lengths for ragged batches, nullptr for uniform ones — the form
  // RecurrentSweep's SweepOptions consumes (null == dense fast path).
  const std::vector<int64_t>* LengthsOrNull() const;
};

// Assembles one batch from `prepared` at the given indices for `task`.
Batch MakeBatch(const std::vector<PreparedSample>& prepared,
                const std::vector<int64_t>& indices, Task task);

// An epoch-oriented stream of mini-batches. Implemented by the in-RAM
// Batcher and the out-of-core ShardedLoader; every train::Trainer training
// loop consumes this interface, so the two are interchangeable.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  // Starts a new epoch (reshuffles the visit order).
  virtual void StartEpoch() = 0;
  // Fills `batch` with the next mini-batch; returns false at epoch end. The
  // final partial batch is emitted.
  virtual bool Next(Batch* batch) = 0;
  virtual int64_t NumBatchesPerEpoch() const = 0;

  // Checkpoint/resume: an opaque byte string capturing the cursor (visit
  // order, position, and any rng driving future shuffles) such that
  // RestoreState + Next replays the remaining stream bit-for-bit. Exported
  // through the elda::health sectioned-container path by the trainer.
  virtual std::string ExportState() const = 0;
  // Returns false (leaving the source untouched) on a malformed or
  // incompatible state string.
  virtual bool RestoreState(const std::string& state) = 0;

  // Why the source yields nothing when it rejected its input (e.g. a shard
  // that does not open cleanly); empty otherwise.
  virtual std::string error() const { return std::string(); }
};

// Iterates mini-batches over a fixed index set, reshuffling every epoch. An
// empty index set yields no batches.
class Batcher : public BatchSource {
 public:
  Batcher(const std::vector<PreparedSample>* prepared,
          std::vector<int64_t> indices, int64_t batch_size, Task task,
          Rng* rng);

  // Starts a new epoch (reshuffles).
  void StartEpoch() override;
  // Fills `batch` with the next mini-batch; returns false at epoch end. The
  // final partial batch is emitted.
  bool Next(Batch* batch) override;

  int64_t NumBatchesPerEpoch() const override;

  // BatchSource state: the current permutation plus the intra-epoch cursor.
  std::string ExportState() const override;
  bool RestoreState(const std::string& state) override;

  // The current index permutation (StartEpoch shuffles it in place).
  // ExportState carries it; restoring that state together with the Rng
  // that drives the shuffle replays the remaining epochs bit-for-bit.
  const std::vector<int64_t>& order() const { return indices_; }

 private:
  const std::vector<PreparedSample>* prepared_;
  std::vector<int64_t> indices_;
  int64_t batch_size_;
  Task task_;
  Rng* rng_;
  int64_t cursor_ = 0;
};

}  // namespace data
}  // namespace elda

#endif  // ELDA_DATA_PIPELINE_H_
