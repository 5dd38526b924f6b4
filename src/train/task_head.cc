#include "train/task_head.h"

#include <algorithm>
#include <limits>

#include "autograd/ops.h"

namespace elda {
namespace train {
namespace {

// Validity of cell (b, t) of a per-step slab: a real (non-padding) step the
// model can score. Warm-up steps below min_steps_to_score() hold quiet-NaN
// logits and must never be selected into a loss.
std::vector<uint8_t> StepValidity(const SequenceModel& model,
                                  const data::Batch& batch) {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  const int64_t min_steps = model.min_steps_to_score();
  std::vector<uint8_t> valid(batch_size * steps, 0);
  for (int64_t b = 0; b < batch_size; ++b) {
    const int64_t len = batch.lengths.empty()
                            ? steps
                            : std::min<int64_t>(steps, batch.lengths[b]);
    for (int64_t t = min_steps - 1; t < len; ++t) {
      valid[b * steps + t] = 1;
    }
  }
  return valid;
}

}  // namespace

// -- BinaryTerminalHead ------------------------------------------------------

ag::Variable BinaryTerminalHead::Logits(const SequenceModel& model,
                                        const Encoding& enc,
                                        nn::ForwardContext* ctx) const {
  return model.Readout(enc.terminal, ctx);
}

ag::Variable BinaryTerminalHead::Loss(const SequenceModel& model,
                                      const ag::Variable& logits,
                                      const data::Batch& batch) const {
  (void)model;
  return ag::BceWithLogits(logits, batch.y);
}

void BinaryTerminalHead::Collect(const SequenceModel& model,
                                 const Tensor& probs, const data::Batch& batch,
                                 std::vector<float>* scores,
                                 std::vector<float>* labels,
                                 std::vector<uint8_t>* valid) const {
  (void)model;
  for (int64_t b = 0; b < probs.size(); ++b) {
    scores->push_back(probs[b]);
    labels->push_back(batch.y[b]);
    valid->push_back(1);
  }
}

// -- DecompensationHead ------------------------------------------------------

ag::Variable DecompensationHead::Logits(const SequenceModel& model,
                                        const Encoding& enc,
                                        nn::ForwardContext* ctx) const {
  ELDA_CHECK(model.has_step_encoding())
      << model.name() << " exposes no per-step encoding";
  ELDA_CHECK(enc.steps.defined())
      << "DecompensationHead needs Encode(..., want_steps=true)";
  const int64_t batch_size = enc.steps.value().shape(0);
  const int64_t steps = enc.steps.value().shape(1);
  const int64_t dim = enc.steps.value().shape(2);
  // Readout rows are batching-independent, so flattening [B, T, H] to
  // [B*T, H] scores every step bitwise as if each prefix had been the
  // terminal batch.
  const int64_t warm_up = std::min(steps, model.min_steps_to_score() - 1);
  if (warm_up == 0) {
    ag::Variable flat = ag::Reshape(enc.steps, {batch_size * steps, dim});
    return ag::Reshape(model.Readout(flat, ctx), {batch_size, steps});
  }
  // Warm-up steps get quiet-NaN logits without passing through the
  // readout: a NaN encoding row there would turn the readout weights'
  // gradient into NaN, even though the loss gives those cells none.
  ag::Variable nan_logits = ag::Constant(Tensor::Full(
      {batch_size, warm_up}, std::numeric_limits<float>::quiet_NaN()));
  if (warm_up == steps) return nan_logits;
  const int64_t scored = steps - warm_up;
  ag::Variable flat = ag::Reshape(ag::Slice(enc.steps, 1, warm_up, scored),
                                  {batch_size * scored, dim});
  return ag::Concat(
      {nan_logits,
       ag::Reshape(model.Readout(flat, ctx), {batch_size, scored})},
      1);
}

ag::Variable DecompensationHead::Loss(const SequenceModel& model,
                                      const ag::Variable& logits,
                                      const data::Batch& batch) const {
  ELDA_CHECK(batch.has_multitask_labels())
      << "batch carries no per-step decompensation labels";
  return ag::MaskedBceWithLogits(logits, batch.y_decomp,
                                 StepValidity(model, batch));
}

void DecompensationHead::Collect(const SequenceModel& model,
                                 const Tensor& probs, const data::Batch& batch,
                                 std::vector<float>* scores,
                                 std::vector<float>* labels,
                                 std::vector<uint8_t>* valid) const {
  ELDA_CHECK(batch.has_multitask_labels());
  const std::vector<uint8_t> step_valid = StepValidity(model, batch);
  for (int64_t i = 0; i < probs.size(); ++i) {
    scores->push_back(probs.data()[i]);
    labels->push_back(batch.y_decomp.data()[i]);
    valid->push_back(step_valid[i]);
  }
}

// -- PhenotypeHead -----------------------------------------------------------

PhenotypeHead::PhenotypeHead(int64_t encoding_dim, int64_t num_phenotypes,
                             uint64_t seed)
    : rng_(seed), linear_(encoding_dim, num_phenotypes, true, &rng_) {
  RegisterSubmodule("linear", &linear_);
}

ag::Variable PhenotypeHead::Logits(const SequenceModel& model,
                                   const Encoding& enc,
                                   nn::ForwardContext* ctx) const {
  (void)model;
  (void)ctx;
  return linear_.Forward(enc.terminal);
}

ag::Variable PhenotypeHead::Loss(const SequenceModel& model,
                                 const ag::Variable& logits,
                                 const data::Batch& batch) const {
  (void)model;
  ELDA_CHECK(batch.has_multitask_labels())
      << "batch carries no phenotype labels";
  return ag::BceWithLogits(logits, batch.y_pheno);
}

void PhenotypeHead::Collect(const SequenceModel& model, const Tensor& probs,
                            const data::Batch& batch,
                            std::vector<float>* scores,
                            std::vector<float>* labels,
                            std::vector<uint8_t>* valid) const {
  (void)model;
  ELDA_CHECK(batch.has_multitask_labels());
  for (int64_t i = 0; i < probs.size(); ++i) {
    scores->push_back(probs.data()[i]);
    labels->push_back(batch.y_pheno.data()[i]);
    valid->push_back(1);
  }
}

// -- LosHead -----------------------------------------------------------------

LosHead::LosHead(int64_t encoding_dim, uint64_t seed)
    : rng_(seed), linear_(encoding_dim, 1, true, &rng_) {
  RegisterSubmodule("linear", &linear_);
}

ag::Variable LosHead::Logits(const SequenceModel& model, const Encoding& enc,
                             nn::ForwardContext* ctx) const {
  (void)model;
  (void)ctx;
  const int64_t batch_size = enc.terminal.value().shape(0);
  return ag::Reshape(linear_.Forward(enc.terminal), {batch_size});
}

ag::Variable LosHead::Loss(const SequenceModel& model,
                           const ag::Variable& logits,
                           const data::Batch& batch) const {
  (void)model;
  ELDA_CHECK(batch.y_los.defined()) << "batch carries no LOS labels";
  return ag::BceWithLogits(logits, batch.y_los);
}

void LosHead::Collect(const SequenceModel& model, const Tensor& probs,
                      const data::Batch& batch, std::vector<float>* scores,
                      std::vector<float>* labels,
                      std::vector<uint8_t>* valid) const {
  (void)model;
  for (int64_t b = 0; b < probs.size(); ++b) {
    scores->push_back(probs[b]);
    labels->push_back(batch.y_los[b]);
    valid->push_back(1);
  }
}

// -- MultiHead ---------------------------------------------------------------

TaskHead* MultiHead::Add(std::unique_ptr<TaskHead> head, float weight) {
  ELDA_CHECK(head != nullptr);
  for (const Entry& e : entries_) {
    ELDA_CHECK(e.head->task_name() != head->task_name())
        << "duplicate head for task " << head->task_name();
  }
  RegisterSubmodule(head->task_name(), head.get());
  entries_.push_back(Entry{std::move(head), weight});
  return entries_.back().head.get();
}

bool MultiHead::wants_steps() const {
  for (const Entry& e : entries_) {
    if (e.head->wants_steps()) return true;
  }
  return false;
}

std::vector<ag::Variable> MultiHead::Logits(const SequenceModel& model,
                                            const Encoding& enc,
                                            nn::ForwardContext* ctx) const {
  std::vector<ag::Variable> logits;
  logits.reserve(entries_.size());
  for (const Entry& e : entries_) {
    logits.push_back(e.head->Logits(model, enc, ctx));
  }
  return logits;
}

ag::Variable MultiHead::JointLoss(const SequenceModel& model,
                                  const Encoding& enc,
                                  const data::Batch& batch,
                                  nn::ForwardContext* ctx) const {
  ELDA_CHECK(!entries_.empty()) << "MultiHead has no heads";
  ag::Variable total;
  for (const Entry& e : entries_) {
    ag::Variable term = ag::MulScalar(
        e.head->Loss(model, e.head->Logits(model, enc, ctx), batch),
        e.weight);
    total = total.defined() ? ag::Add(total, term) : term;
  }
  return total;
}

// -- ModelWithHead -----------------------------------------------------------

ModelWithHead::ModelWithHead(SequenceModel* model, MultiHead* heads)
    : model_(model), heads_(heads) {
  ELDA_CHECK(model_ != nullptr && heads_ != nullptr);
  RegisterSubmodule("encoder", model_);
  RegisterSubmodule("heads", heads_);
}

}  // namespace train
}  // namespace elda
