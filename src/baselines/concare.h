// ConCare (Ma et al., 2020): every medical feature's time series is encoded
// by its *own* GRU; the per-feature summaries then exchange information
// through dot-product self-attention across features before a linear head.
// (The published model adds demographics and a time-aware attention decay;
// the per-feature-GRU + cross-feature-attention core reproduced here is what
// differentiates ConCare from a pooled GRU and drives both its accuracy and
// its characteristic slowness in Table III.)

#ifndef ELDA_BASELINES_CONCARE_H_
#define ELDA_BASELINES_CONCARE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/gru.h"
#include "nn/linear.h"
#include "train/sequence_model.h"

namespace elda {
namespace baselines {

class ConCare : public train::SequenceModel {
 public:
  ConCare(int64_t num_features, int64_t per_feature_hidden, uint64_t seed);
  // Encoding: the attended per-feature summaries flattened to [B, C*u].
  // Cross-feature attention reads all feature summaries at once, so the
  // base prefix replay provides per-step encodings.
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override { return num_features() * hidden_; }
  std::string name() const override { return "ConCare"; }

  // Streaming: one resident [C, u] slab of per-feature GRU states; each
  // observation advances every feature cell once and re-runs the (per-row)
  // cross-feature attention on the updated summaries.
  std::unique_ptr<nn::StepState> MakeStepState(
      int64_t window_capacity) const override;
  ag::Variable StepForward(const train::StepBatch& obs,
                           const std::vector<nn::StepState*>& states,
                           nn::ForwardContext* ctx) const override;
  bool has_incremental_step() const override { return true; }

 private:
  Rng rng_;
  int64_t hidden_;
  std::vector<std::unique_ptr<nn::Gru>> feature_grus_;
  nn::Linear wq_, wk_, wv_;
  nn::Linear out_;
};

}  // namespace baselines
}  // namespace elda

#endif  // ELDA_BASELINES_CONCARE_H_
