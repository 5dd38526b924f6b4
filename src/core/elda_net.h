// ELDA-Net: the end-to-end model of the paper (Section IV), composed of the
// Bi-directional Embedding Module, the Feature-level Interaction Learning
// Module, the Time-level Interaction Learning Module and the Prediction
// Module. Config factories produce the ablation variants of Fig. 7.

#ifndef ELDA_CORE_ELDA_NET_H_
#define ELDA_CORE_ELDA_NET_H_

#include <memory>
#include <string>

#include "core/embedding.h"
#include "core/feature_interaction.h"
#include "core/time_interaction.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "train/sequence_model.h"

namespace elda {
namespace core {

struct EldaNetConfig {
  int64_t num_features = 37;
  int64_t embed_dim = 24;    // e in the paper
  int64_t compression = 4;   // d, the compression factor
  int64_t hidden_dim = 64;   // l, GRU hidden size
  float lower = -3.0f;       // a, lower anchor of the embedding
  float upper = 3.0f;        // b, upper anchor
  EmbeddingVariant embedding = EmbeddingVariant::kBiDirectional;
  bool use_feature_module = true;     // off in ELDA-Net-T
  bool use_time_interactions = true;  // off in the ELDA-Net-F variants
  std::string display_name = "ELDA-Net";
  uint64_t seed = 1;

  // The full model and the ablation variants of Fig. 7 / Table III.
  static EldaNetConfig Full();
  static EldaNetConfig VariantT();        // time interactions only
  static EldaNetConfig VariantFBi();      // feature interactions, bi embed
  static EldaNetConfig VariantFBiStar();  // ... bi* embedding
  static EldaNetConfig VariantFFm();      // ... FM linear embedding
  static EldaNetConfig VariantFFmStar();  // ... FM* embedding
};

class EldaNet : public train::SequenceModel {
 public:
  explicit EldaNet(const EldaNetConfig& config);

  // With a capture sink in `ctx`, the interpretation surfaces land under
  // "feature_attention" ([B, T, C, C]; absent for ELDA-Net-T) and
  // "time_attention" ([B, T-1]; absent for the -F variants).
  //
  // The encoding is the representation the prediction head reads: the
  // time-interaction output (Full/-T) or the plain GRU's final state (the
  // -F variants).
  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext* ctx) const override;

  // Per-step encodings in one packed segment sweep, bitwise equal to the
  // base prefix replay. V_m (bi) embeddings are window-global: a feature's
  // first observation retroactively changes earlier embeddings, so one
  // causal sweep per row would diverge. The never-observed set of prefix t
  // only changes at a row's first-observation steps, though, so each row
  // sweeps once per segment between them (once in all for variants without
  // V_m); all segments of the batch run as one packed sweep, and prefix t
  // reads the states of the segment containing it. Captures nothing.
  ag::Variable EncodeSteps(const data::Batch& batch,
                           nn::ForwardContext* ctx) const override;
  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext* ctx) const override;
  int64_t encoding_dim() const override;
  std::string name() const override { return config_.display_name; }

  const EldaNetConfig& config() const { return config_; }

  // Streaming: embedding + feature interaction are per-step, so each
  // observation embeds once and advances a resident GRU state; the time
  // module re-scores its attention over a bounded history of resident
  // states. The one non-causal piece is V_m (bi embeddings): a feature
  // observed for the first time after step 0 retroactively changes earlier
  // embeddings, so that session replays its retained window — bounded at
  // most C times per stay. All sessions of a call that replay do so in one
  // packed sweep (as EncodeSteps). A capture sink receives the feature
  // attention of the sessions that stepped incrementally and the time
  // attention of the call's scoring; replays capture nothing.
  std::unique_ptr<nn::StepState> MakeStepState(
      int64_t window_capacity) const override;
  ag::Variable StepForward(const train::StepBatch& obs,
                           const std::vector<nn::StepState*>& states,
                           nn::ForwardContext* ctx) const override;
  bool has_incremental_step() const override { return true; }
  int64_t min_steps_to_score() const override {
    return config_.use_time_interactions ? 2 : 1;
  }

 private:
  // True when the embedding substitutes V_m for never-observed features —
  // the only window-global (non-causal) computation in the model.
  bool uses_missing_embedding() const {
    return embedding_ != nullptr && embedding_->use_missing_embedding();
  }
  EldaNetConfig config_;
  Rng rng_;
  std::unique_ptr<BiDirectionalEmbedding> embedding_;
  std::unique_ptr<FeatureInteraction> feature_;
  std::unique_ptr<TimeInteraction> time_;  // when use_time_interactions
  std::unique_ptr<nn::Gru> plain_gru_;     // otherwise
  std::unique_ptr<nn::Linear> prediction_;
};

}  // namespace core
}  // namespace elda

#endif  // ELDA_CORE_ELDA_NET_H_
