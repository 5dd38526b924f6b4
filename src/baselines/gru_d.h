// GRU-D (Che et al., 2018): a GRU whose inputs and hidden state decay
// exponentially with the time since each feature was last observed.
//
//   gamma_x_t = exp(-relu(w_x ⊙ delta_t + b_x))        (per feature)
//   x^_t      = m_t ⊙ x_t + (1 - m_t)(gamma_x_t ⊙ x_last + (1-gamma_x_t) x~)
//   gamma_h_t = exp(-relu(W_h delta_t + b_h))           (per hidden unit)
//   h_{t-1}  <- gamma_h_t ⊙ h_{t-1}
//
// In this pipeline the input series is already last-observation-carried-
// forward imputed and standardised, so x_t at an unobserved cell *is*
// x_last, and the empirical mean x~ is 0; the input decay therefore reduces
// to x^ = m ⊙ x + (1-m) gamma_x ⊙ x. The mask is concatenated to the input
// as in the original model.

#ifndef ELDA_BASELINES_GRU_D_H_
#define ELDA_BASELINES_GRU_D_H_

#include <string>

#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/recurrent_sweep.h"
#include "train/sequence_model.h"

namespace elda {
namespace baselines {

class GruD : public train::SequenceModel {
 public:
  GruD(int64_t num_features, int64_t hidden_dim, uint64_t seed);
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override { return hidden_dim_; }
  // Single-sweep per-step encodings: decay + cell are causal, so sweep state
  // t is bitwise the prefix encoding — no O(T^2) prefix replay.
  ag::Variable EncodeSteps(const data::Batch& batch,
                           nn::ForwardContext* ctx) const override;
  std::string name() const override { return "GRU-D"; }

  // Streaming: decay factors depend only on the current delta row, so the
  // resident hidden state advances with one decay + cell step per
  // observation.
  std::unique_ptr<nn::StepState> MakeStepState(
      int64_t window_capacity) const override;
  ag::Variable StepForward(const train::StepBatch& obs,
                           const std::vector<nn::StepState*>& states,
                           nn::ForwardContext* ctx) const override;
  bool has_incremental_step() const override { return true; }

 private:
  // Decay math + hoisted GEMM + decayed sweep shared by both encoders.
  nn::SweepResult RunSweep(const data::Batch& batch) const;

  Rng rng_;
  int64_t hidden_dim_;
  ag::Variable decay_x_w_;  // [C]
  ag::Variable decay_x_b_;  // [C]
  nn::Linear decay_h_;      // delta [C] -> hidden decay logits [H]
  nn::GruCell cell_;        // input = [x^ ; m] (2C)
  nn::Linear out_;
};

}  // namespace baselines
}  // namespace elda

#endif  // ELDA_BASELINES_GRU_D_H_
