// Non-temporal baselines (paper Section V-A): Logistic Regression, the
// Factorization Machine (Rendle, 2010) and the Attentional Factorization
// Machine (Xiao et al., 2017). All three consume the per-feature *mean over
// time* of the standardised series, exactly as the paper prescribes for its
// non-time-series baselines.

#ifndef ELDA_BASELINES_STATIC_MODELS_H_
#define ELDA_BASELINES_STATIC_MODELS_H_

#include <string>

#include "nn/linear.h"
#include "train/sequence_model.h"
#include "util/rng.h"

namespace elda {
namespace baselines {

// Collapses [B, T, C] to the time-mean [B, C].
ag::Variable TimeMeanInput(const data::Batch& batch);

// The non-temporal models share a terminal-only encoding: the time-mean of
// the input is the whole representation (encoding_dim == C), and everything
// model-specific lives in Readout. They have no per-step state, so
// has_step_encoding() is false and EncodeSteps CHECK-fails.

// y = sigmoid(w . mean_t(x) + b).
class LogisticRegression : public train::SequenceModel {
 public:
  LogisticRegression(int64_t num_features, uint64_t seed);
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override { return num_features(); }
  bool has_step_encoding() const override { return false; }
  std::string name() const override { return "LR"; }

 private:
  Rng rng_;
  nn::Linear linear_;
};

// Second-order FM with the standard O(C k) pairwise reformulation:
//   y = w0 + sum_i w_i x_i + 0.5 (|sum_i v_i x_i|^2 - sum_i |v_i x_i|^2).
class FactorizationMachine : public train::SequenceModel {
 public:
  FactorizationMachine(int64_t num_features, int64_t factor_dim,
                       uint64_t seed);
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override { return num_features(); }
  bool has_step_encoding() const override { return false; }
  std::string name() const override { return "FM"; }

 protected:
  Rng rng_;
  int64_t factor_dim_;
  ag::Variable w0_;       // [1]
  ag::Variable w_;        // [C, 1]
  ag::Variable factors_;  // [C, k]
};

// AFM replaces FM's uniform pairwise sum with an attention network over the
// element-wise interaction vectors (v_i x_i) ⊙ (v_j x_j).
class AttentionalFactorizationMachine : public train::SequenceModel {
 public:
  AttentionalFactorizationMachine(int64_t num_features, int64_t factor_dim,
                                  int64_t attention_dim, uint64_t seed);
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override { return num_features(); }
  bool has_step_encoding() const override { return false; }
  std::string name() const override { return "AFM"; }

 private:
  Rng rng_;
  int64_t factor_dim_;
  ag::Variable w0_;
  ag::Variable w_;         // [C, 1]
  ag::Variable factors_;   // [C, k]
  ag::Variable attn_w_;    // [k, a]
  ag::Variable attn_b_;    // [a]
  ag::Variable attn_h_;    // [a, 1]
  ag::Variable p_;         // [k, 1] projection of the attended interaction
  Tensor pair_mask_;       // [C, C]: -1e9 on/below the diagonal (i < j pairs)
};

}  // namespace baselines
}  // namespace elda

#endif  // ELDA_BASELINES_STATIC_MODELS_H_
