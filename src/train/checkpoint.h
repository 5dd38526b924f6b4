// Crash-safe full-run training checkpoints.
//
// A TrainCheckpoint captures everything the Trainer loop needs to continue
// a killed run bit-for-bit: model parameters, Adam moments and step counter,
// the RNG stream, the batch source's cursor state, the best-
// validation snapshot, and the early-stopping bookkeeping. It is stored in
// the sectioned v2 container (health/ckpt_io.h): atomic writes, per-section
// CRC32 verified at load, so a torn or bit-flipped file is rejected with a
// precise error instead of resuming from garbage.

#ifndef ELDA_TRAIN_CHECKPOINT_H_
#define ELDA_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "optim/optimizer.h"
#include "tensor/tensor.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace elda {
namespace train {

// State of a Trainer run at an epoch boundary (captured after the
// epoch's evaluation and bookkeeping, before the next epoch's shuffle).
struct TrainCheckpoint {
  // Progress and early-stopping bookkeeping.
  int64_t next_epoch = 0;  // first epoch the resumed run should execute
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  int64_t epochs_without_improvement = 0;
  int64_t total_batches = 0;
  int64_t recoveries = 0;
  int64_t skipped_batches = 0;
  double best_val_auc_pr = -1.0;
  EvalResult best_val;
  double total_batch_seconds = 0.0;

  // Run state proper.
  std::string params_blob;          // nn::EncodeParameters of the model
  optim::AdamState adam;            // moments, step counter, current LR
  RngState rng;                     // shuffle / dropout stream
  // A Batcher permutation. The Trainer neither writes nor reads it: the
  // permutation rides in source_state.
  std::vector<int64_t> batch_order;
  std::vector<Tensor> best_params;  // best-validation snapshot (may be empty)
  // BatchSource::ExportState of the training stream, written by every
  // Trainer run. Optional section: checkpoints written before this field
  // existed load with it empty, and resuming from them is rejected.
  std::string source_state;
};

// Atomic write of the checkpoint to `path`. Returns false with a message on
// I/O failure (or an injected fault); an existing checkpoint at `path`
// survives a failed write untouched.
bool SaveTrainCheckpoint(const std::string& path, const TrainCheckpoint& ckpt,
                         std::string* error = nullptr);

// Loads and validates a checkpoint (magic, version, CRCs, section layout,
// tensor dims). `ckpt` is only modified on success.
bool LoadTrainCheckpoint(const std::string& path, TrainCheckpoint* ckpt,
                         std::string* error = nullptr);

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_CHECKPOINT_H_
