#include "core/elda_net.h"

#include <cstring>
#include <limits>
#include <map>

#include "nn/recurrent_sweep.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {
namespace {

struct EldaNetStreamState : nn::StepState {
  explicit EldaNetStreamState(int64_t window_capacity)
      : h_prev(window_capacity), obs_x(window_capacity),
        obs_mask(window_capacity) {}

  void Save(nn::StateWriter* w) const override {
    nn::StepState::Save(w);
    w->TensorData(h);
    w->Window(h_prev);
    w->Window(obs_x);
    w->Window(obs_mask);
    w->Bytes(seen);
  }
  bool Load(nn::StateReader* r) override {
    const size_t seen_size = seen.size();
    return nn::StepState::Load(r) && r->TensorInto(&h) &&
           r->WindowInto(&h_prev) && r->WindowInto(&obs_x) &&
           r->WindowInto(&obs_mask) && r->Bytes(&seen) &&
           seen.size() == seen_size;
  }

  Tensor h;                  // [H] current GRU state (full history)
  nn::RollingWindow h_prev;  // earlier states, for time-attention scoring
  // Raw observation window + observed-so-far bitmask, kept only for V_m
  // variants (replay on a never->observed flip).
  nn::RollingWindow obs_x;
  nn::RollingWindow obs_mask;
  std::vector<uint8_t> seen;
};

}  // namespace

EldaNetConfig EldaNetConfig::Full() { return EldaNetConfig(); }

EldaNetConfig EldaNetConfig::VariantT() {
  EldaNetConfig config;
  config.use_feature_module = false;
  config.display_name = "ELDA-Net-T";
  return config;
}

EldaNetConfig EldaNetConfig::VariantFBi() {
  EldaNetConfig config;
  config.use_time_interactions = false;
  config.display_name = "ELDA-Net-Fbi";
  return config;
}

EldaNetConfig EldaNetConfig::VariantFBiStar() {
  EldaNetConfig config = VariantFBi();
  config.embedding = EmbeddingVariant::kBiDirectionalStar;
  config.display_name = "ELDA-Net-Fbi*";
  return config;
}

EldaNetConfig EldaNetConfig::VariantFFm() {
  EldaNetConfig config = VariantFBi();
  config.embedding = EmbeddingVariant::kFmLinear;
  config.display_name = "ELDA-Net-Ffm";
  return config;
}

EldaNetConfig EldaNetConfig::VariantFFmStar() {
  EldaNetConfig config = VariantFBi();
  config.embedding = EmbeddingVariant::kFmLinearStar;
  config.display_name = "ELDA-Net-Ffm*";
  return config;
}

EldaNet::EldaNet(const EldaNetConfig& config)
    : train::SequenceModel(config.num_features),
      config_(config),
      rng_(config.seed) {
  int64_t temporal_input = config_.num_features;
  if (config_.use_feature_module) {
    const bool bi_variant =
        config_.embedding == EmbeddingVariant::kBiDirectional ||
        config_.embedding == EmbeddingVariant::kBiDirectionalStar;
    embedding_ = std::make_unique<BiDirectionalEmbedding>(
        config_.num_features, config_.embed_dim, config_.embedding,
        config_.lower, config_.upper,
        /*use_missing_embedding=*/bi_variant, &rng_);
    feature_ = std::make_unique<FeatureInteraction>(
        config_.num_features, config_.embed_dim, config_.compression, &rng_);
    RegisterSubmodule("embedding", embedding_.get());
    RegisterSubmodule("feature_interaction", feature_.get());
    temporal_input = feature_->output_dim();
  }
  int64_t representation_dim;
  if (config_.use_time_interactions) {
    time_ = std::make_unique<TimeInteraction>(temporal_input,
                                              config_.hidden_dim, &rng_);
    RegisterSubmodule("time_interaction", time_.get());
    representation_dim = time_->output_dim();
  } else {
    plain_gru_ =
        std::make_unique<nn::Gru>(temporal_input, config_.hidden_dim, &rng_);
    RegisterSubmodule("gru", plain_gru_.get());
    representation_dim = config_.hidden_dim;
  }
  prediction_ = std::make_unique<nn::Linear>(representation_dim, 1,
                                             /*use_bias=*/true, &rng_);
  RegisterSubmodule("prediction", prediction_.get());
}

ag::Variable EldaNet::EncodeTerminal(const data::Batch& batch,
                                     nn::ForwardContext* ctx) const {
  ELDA_CHECK_EQ(batch.x.shape(2), config_.num_features);
  ag::Variable x = ag::Constant(batch.x);

  ag::Variable temporal_input = x;
  if (config_.use_feature_module) {
    ag::Variable e = embedding_->Forward(x, batch.mask);
    temporal_input = feature_->Forward(e, ctx);
  }

  ag::Variable representation;
  if (config_.use_time_interactions) {
    representation = time_->Forward(temporal_input, ctx);
  } else {
    // Ablations only need the final state; the sweep hands it out directly
    // instead of stacking all T states and slicing one back off.
    representation = plain_gru_->ForwardSteps(temporal_input).back();
  }
  return representation;
}

ag::Variable EldaNet::Readout(const ag::Variable& rep,
                              nn::ForwardContext*) const {
  return ag::Reshape(prediction_->Forward(rep), {rep.value().shape(0)});
}

int64_t EldaNet::encoding_dim() const {
  return config_.use_time_interactions ? time_->output_dim()
                                       : config_.hidden_dim;
}

std::unique_ptr<nn::StepState> EldaNet::MakeStepState(
    int64_t window_capacity) const {
  ELDA_CHECK_GE(window_capacity, 1);
  auto state = std::make_unique<EldaNetStreamState>(window_capacity);
  state->h = Tensor::Zeros({config_.hidden_dim});
  if (uses_missing_embedding()) {
    state->seen.assign(static_cast<size_t>(config_.num_features), 0);
  }
  return state;
}

ag::Variable EldaNet::StepForward(const train::StepBatch& obs,
                                  const std::vector<nn::StepState*>& states,
                                  nn::ForwardContext* ctx) const {
  const int64_t n = static_cast<int64_t>(states.size());
  const int64_t C = config_.num_features;
  const int64_t H = config_.hidden_dim;
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  ELDA_CHECK_EQ(obs.x.shape(1), C);
  std::vector<EldaNetStreamState*> ss(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    ss[b] = dynamic_cast<EldaNetStreamState*>(states[b]);
    ELDA_CHECK(ss[b] != nullptr);
  }
  const nn::GruCell& cell =
      config_.use_time_interactions ? time_->cell() : plain_gru_->cell();

  // Partition sessions. V_m variants replay their retained window when a
  // feature is observed for the first time after step 0 (earlier steps
  // embedded it with V_m and must be recomputed); everything else advances
  // incrementally. Each feature flips never->observed at most once, so a
  // stay replays at most C times.
  const bool vm = uses_missing_embedding();
  std::vector<int64_t> incremental, replay;
  for (int64_t b = 0; b < n; ++b) {
    bool flip = false;
    if (vm) {
      const float* mrow = obs.mask.data() + b * C;
      for (int64_t c = 0; c < C; ++c) {
        if (mrow[c] != 0.0f && !ss[b]->seen[c]) {
          if (ss[b]->steps_seen > 0) flip = true;
          ss[b]->seen[c] = 1;
        }
      }
      ss[b]->obs_x.Append(obs.x.data() + b * C, C);
      ss[b]->obs_mask.Append(mrow, C);
    }
    (flip ? replay : incremental).push_back(b);
  }

  if (!incremental.empty()) {
    const int64_t g = static_cast<int64_t>(incremental.size());
    // This step's temporal input: raw features for ELDA-Net-T, otherwise
    // embedding + feature interaction on the [g, 1, C] step slab — both
    // per-(session, step) computations.
    Tensor xs = Tensor::Empty({g, 1, C});
    for (int64_t i = 0; i < g; ++i) {
      std::memcpy(xs.data() + i * C, obs.x.data() + incremental[i] * C,
                  static_cast<size_t>(C) * sizeof(float));
    }
    ag::Variable temporal_input = ag::Constant(xs);
    if (config_.use_feature_module) {
      Tensor never;
      if (vm) {
        never = Tensor({g, 1, C, 1});
        for (int64_t i = 0; i < g; ++i) {
          const std::vector<uint8_t>& seen = ss[incremental[i]]->seen;
          for (int64_t c = 0; c < C; ++c) {
            never.data()[i * C + c] = seen[static_cast<size_t>(c)] ? 0.f : 1.f;
          }
        }
      }
      ag::Variable e = embedding_->ForwardWithNever(temporal_input, never);
      temporal_input = feature_->Forward(e, ctx);  // [g, 1, C*d]
    }
    const int64_t in_dim = temporal_input.value().shape(2);
    ag::Variable step_in =
        ag::Reshape(temporal_input, {g, in_dim});
    Tensor h_prev = Tensor::Empty({g, H});
    for (int64_t i = 0; i < g; ++i) {
      std::memcpy(h_prev.data() + i * H, ss[incremental[i]]->h.data(),
                  static_cast<size_t>(H) * sizeof(float));
    }
    ag::Variable xw = cell.PrecomputeInput(step_in);
    ag::Variable h = cell.Step(xw, ag::Constant(h_prev));
    for (int64_t i = 0; i < g; ++i) {
      EldaNetStreamState* s = ss[incremental[i]];
      if (s->steps_seen > 0) s->h_prev.Append(s->h.data(), H);
      std::memcpy(s->h.data(), h.value().data() + i * H,
                  static_cast<size_t>(H) * sizeof(float));
      ++s->steps_seen;
    }
  }

  for (int64_t b : replay) {
    // Full recompute of the retained window through the same modules the
    // batch path runs (embedding recomputes "never" from the window's own
    // mask, which now equals the session's seen bitmask).
    EldaNetStreamState* s = ss[b];
    const int64_t T = s->obs_x.size();
    Tensor xs = Tensor::Empty({1, T, C});
    Tensor ms = Tensor::Empty({1, T, C});
    s->obs_x.CopyInto(xs.data());
    s->obs_mask.CopyInto(ms.data());
    ag::Variable temporal_input = ag::Constant(xs);
    ag::Variable e = embedding_->Forward(temporal_input, ms);
    temporal_input = feature_->Forward(e, ctx);
    nn::SweepOptions opts;
    opts.label = "EldaNet/replay";
    nn::SweepResult sweep = nn::GruSweep(cell, temporal_input, opts);
    s->h_prev.Clear();
    for (int64_t t = 0; t + 1 < T; ++t) {
      s->h_prev.Append(sweep.steps[static_cast<size_t>(t)].value().data(), H);
    }
    std::memcpy(s->h.data(), sweep.last().value().data(),
                static_cast<size_t>(H) * sizeof(float));
    ++s->steps_seen;
  }

  // Scoring. Without the time module the prediction head reads the GRU
  // state directly; with it, sessions group by history length so each
  // group scores as one batched attention call.
  Tensor logits = Tensor::Full({n}, std::numeric_limits<float>::quiet_NaN());
  if (!config_.use_time_interactions) {
    Tensor rep = Tensor::Empty({n, H});
    for (int64_t b = 0; b < n; ++b) {
      std::memcpy(rep.data() + b * H, ss[b]->h.data(),
                  static_cast<size_t>(H) * sizeof(float));
    }
    ag::Variable out = prediction_->Forward(ag::Constant(rep));  // [n, 1]
    std::memcpy(logits.data(), out.value().data(),
                static_cast<size_t>(n) * sizeof(float));
  } else {
    std::map<int64_t, std::vector<int64_t>> by_hist;
    for (int64_t b = 0; b < n; ++b) {
      if (ss[b]->h_prev.size() >= 1) by_hist[ss[b]->h_prev.size()].push_back(b);
    }
    for (const auto& [p, group] : by_hist) {
      const int64_t g = static_cast<int64_t>(group.size());
      Tensor hp = Tensor::Empty({g, p, H});
      Tensor hl = Tensor::Empty({g, H});
      for (int64_t i = 0; i < g; ++i) {
        EldaNetStreamState* s = ss[group[i]];
        s->h_prev.CopyInto(hp.data() + i * p * H);
        std::memcpy(hl.data() + i * H, s->h.data(),
                    static_cast<size_t>(H) * sizeof(float));
      }
      ag::Variable rep = time_->ScoreFromStates(ag::Constant(hp),
                                                ag::Constant(hl), ctx);
      ag::Variable out = prediction_->Forward(rep);  // [g, 1]
      for (int64_t i = 0; i < g; ++i) {
        logits.data()[group[i]] = out.value().data()[i];
      }
    }
  }
  return ag::Constant(logits);
}

}  // namespace core
}  // namespace elda
