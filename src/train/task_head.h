// Task heads over the encoder/readout decomposition (see sequence_model.h).
//
// A SequenceModel is an encoder (batch -> representation rows) plus a
// binary-risk readout. A TaskHead turns those encodings into one clinical
// workload's logits and loss; labels ride in the multi-task data::Batch
// slabs (y / y_los / y_decomp / y_pheno), so heads need nothing beyond the
// batch itself. The four workloads:
//
//   BinaryTerminalHead   terminal risk via the model's own readout. Logits
//                        and loss recompose exactly the legacy monolithic
//                        Forward + BceWithLogits — bitwise, by construction.
//   DecompensationHead   per-step risk [B, T]: the model's readout applied
//                        to every row of EncodeSteps past the warm-up steps
//                        (which get quiet-NaN logits). Readout rows are
//                        batching-independent, so step t of row b is bitwise
//                        the terminal risk of the prefix [0, t] — and
//                        therefore bitwise what the streaming StepForward
//                        path emits for the same window (serve/service.h
//                        scores decompensation with no extra machinery).
//   PhenotypeHead        K-way multi-label phenotyping [B, K] from a
//                        head-owned linear layer on the terminal encoding.
//   LosHead              LOS > 7d from a head-owned linear layer.
//
// MultiHead composes several heads over ONE encoding bundle with a weighted
// joint loss; ModelWithHead bundles encoder + heads into a single Module so
// the optimizer, parameter serialization, and train checkpoints cover both.

#ifndef ELDA_TRAIN_TASK_HEAD_H_
#define ELDA_TRAIN_TASK_HEAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "train/sequence_model.h"

namespace elda {
namespace train {

class TaskHead : public nn::Module {
 public:
  // Stable workload key: "mortality", "decompensation", "phenotyping",
  // "los". Used for submodule registration, metric rows, and bench columns.
  virtual std::string task_name() const = 0;

  // True when the head consumes per-step encodings (Encoding::steps must be
  // populated — pass want_steps to SequenceModel::Encode accordingly).
  virtual bool wants_steps() const { return false; }

  // Pre-sigmoid logits from the shared encoding bundle. Shape is
  // head-specific: [B] terminal binary, [B, T] per-step, [B, K] multi-label.
  virtual ag::Variable Logits(const SequenceModel& model, const Encoding& enc,
                              nn::ForwardContext* ctx) const = 0;

  // Scalar training loss for `logits` against this head's label slab in
  // `batch`. Padding steps and warm-up steps below min_steps_to_score()
  // are masked out by selection (never read), not by zero-multiplication.
  virtual ag::Variable Loss(const SequenceModel& model,
                            const ag::Variable& logits,
                            const data::Batch& batch) const = 0;

  // Flattens (score, label, valid) triples for metric computation; `probs`
  // is Sigmoid over this head's logits. Appends to the output vectors so an
  // evaluation loop can accumulate across minibatches; `valid` marks padding
  // (metrics additionally skip non-finite warm-up scores — see
  // metrics/metrics.h).
  virtual void Collect(const SequenceModel& model, const Tensor& probs,
                       const data::Batch& batch, std::vector<float>* scores,
                       std::vector<float>* labels,
                       std::vector<uint8_t>* valid) const = 0;
};

// Terminal binary risk through the model's own readout: logits are
// Readout(terminal) — the exact legacy Forward — and the loss is the exact
// legacy BceWithLogits against batch.y (whichever primary task the batch
// was made for).
class BinaryTerminalHead : public TaskHead {
 public:
  std::string task_name() const override { return "mortality"; }
  ag::Variable Logits(const SequenceModel& model, const Encoding& enc,
                      nn::ForwardContext* ctx) const override;
  ag::Variable Loss(const SequenceModel& model, const ag::Variable& logits,
                    const data::Batch& batch) const override;
  void Collect(const SequenceModel& model, const Tensor& probs,
               const data::Batch& batch, std::vector<float>* scores,
               std::vector<float>* labels,
               std::vector<uint8_t>* valid) const override;
};

// Per-step decompensation risk [B, T]: the model's readout over every row
// of the per-step encoding. Requires has_step_encoding(). Loss is masked
// per-step BCE against batch.y_decomp; steps at or past lengths[b] and
// warm-up steps below min_steps_to_score() are excluded by selection.
class DecompensationHead : public TaskHead {
 public:
  std::string task_name() const override { return "decompensation"; }
  bool wants_steps() const override { return true; }
  ag::Variable Logits(const SequenceModel& model, const Encoding& enc,
                      nn::ForwardContext* ctx) const override;
  ag::Variable Loss(const SequenceModel& model, const ag::Variable& logits,
                    const data::Batch& batch) const override;
  void Collect(const SequenceModel& model, const Tensor& probs,
               const data::Batch& batch, std::vector<float>* scores,
               std::vector<float>* labels,
               std::vector<uint8_t>* valid) const override;
};

// Multi-label phenotyping [B, K] from a head-owned linear layer on the
// terminal encoding. Loss is mean BCE over all B*K cells; metrics are
// micro-averaged over the same cells.
class PhenotypeHead : public TaskHead {
 public:
  PhenotypeHead(int64_t encoding_dim, int64_t num_phenotypes, uint64_t seed);

  std::string task_name() const override { return "phenotyping"; }
  int64_t num_phenotypes() const { return linear_.out_features(); }
  ag::Variable Logits(const SequenceModel& model, const Encoding& enc,
                      nn::ForwardContext* ctx) const override;
  ag::Variable Loss(const SequenceModel& model, const ag::Variable& logits,
                    const data::Batch& batch) const override;
  void Collect(const SequenceModel& model, const Tensor& probs,
               const data::Batch& batch, std::vector<float>* scores,
               std::vector<float>* labels,
               std::vector<uint8_t>* valid) const override;

 private:
  Rng rng_;
  nn::Linear linear_;
};

// LOS > 7d from a head-owned linear layer on the terminal encoding; labels
// come from batch.y_los (always populated by MakeBatch).
class LosHead : public TaskHead {
 public:
  LosHead(int64_t encoding_dim, uint64_t seed);

  std::string task_name() const override { return "los"; }
  ag::Variable Logits(const SequenceModel& model, const Encoding& enc,
                      nn::ForwardContext* ctx) const override;
  ag::Variable Loss(const SequenceModel& model, const ag::Variable& logits,
                    const data::Batch& batch) const override;
  void Collect(const SequenceModel& model, const Tensor& probs,
               const data::Batch& batch, std::vector<float>* scores,
               std::vector<float>* labels,
               std::vector<uint8_t>* valid) const override;

 private:
  Rng rng_;
  nn::Linear linear_;
};

// Several heads over one shared encoding bundle with a weighted joint loss
//   L = sum_i w_i * L_i.
// Heads are owned and registered as submodules under their task_name in Add
// order, which fixes the parameter/checkpoint layout. With a single head of
// weight 1 the joint loss (value and gradients) is bitwise the head's own
// loss, so single-task training through MultiHead matches the legacy loop.
class MultiHead : public nn::Module {
 public:
  // Returns the added head for convenience. Task names must be unique.
  TaskHead* Add(std::unique_ptr<TaskHead> head, float weight = 1.0f);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  const TaskHead& head(int64_t i) const { return *entries_[i].head; }
  float weight(int64_t i) const { return entries_[i].weight; }

  // True when any head consumes per-step encodings — the want_steps to pass
  // to SequenceModel::Encode.
  bool wants_steps() const;

  // Per-head logits in Add order over the shared bundle.
  std::vector<ag::Variable> Logits(const SequenceModel& model,
                                   const Encoding& enc,
                                   nn::ForwardContext* ctx) const;

  // Weighted joint loss; labels ride in `batch`'s label slabs.
  ag::Variable JointLoss(const SequenceModel& model, const Encoding& enc,
                         const data::Batch& batch,
                         nn::ForwardContext* ctx) const;

 private:
  struct Entry {
    std::unique_ptr<TaskHead> head;
    float weight = 1.0f;
  };
  std::vector<Entry> entries_;
};

// Encoder + heads as one Module: Parameters() / checkpoints / serialization
// cover the trunk first, then each head in Add order. Non-owning — both
// pointers must outlive the bundle.
class ModelWithHead : public nn::Module {
 public:
  ModelWithHead(SequenceModel* model, MultiHead* heads);

  SequenceModel* model() const { return model_; }
  MultiHead* heads() const { return heads_; }

 private:
  SequenceModel* model_;
  MultiHead* heads_;
};

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_TASK_HEAD_H_
