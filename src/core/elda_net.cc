#include "core/elda_net.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "mem/prof.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {
namespace {

struct EldaNetStreamState : nn::StepState {
  EldaNetStreamState(int64_t window_capacity, int64_t hidden_dim,
                     int64_t num_features)
      : h_prev(window_capacity, hidden_dim),
        obs_x(window_capacity, num_features),
        obs_mask(window_capacity, num_features) {}

  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutTensorData(w, h);
    nn::PutWindow(w, h_prev);
    nn::PutWindow(w, obs_x);
    nn::PutWindow(w, obs_mask);
    w->Put(static_cast<int64_t>(seen.size()));
    w->PutArray(seen.data(), seen.size());
  }
  bool Load(util::ByteReader* r) override {
    int64_t seen_size = 0;
    return nn::StepState::Load(r) && nn::GetTensorData(r, &h) &&
           nn::GetWindow(r, &h_prev) && nn::GetWindow(r, &obs_x) &&
           nn::GetWindow(r, &obs_mask) && r->Get(&seen_size) &&
           seen_size == static_cast<int64_t>(seen.size()) &&
           r->GetArray(seen.data(), seen.size());
  }

  Tensor h;                  // [H] current GRU state (full history)
  nn::RollingWindow h_prev;  // earlier states, for time-attention scoring
  // Raw observation window + observed-so-far bitmask, kept only for V_m
  // variants (replay on a never->observed flip).
  nn::RollingWindow obs_x;
  nn::RollingWindow obs_mask;
  std::vector<uint8_t> seen;
};

// One sequence of a packed segment sweep: `length` consecutive [C]
// observation rows starting at `x`, embedded with the never-observed
// indicator `never` ([C]; null for variants without V_m).
struct SweepItem {
  const float* x;
  int64_t length;
  const float* never;
};

// The GRU states of a packed segment sweep. Items are laid out longest
// first and time-major, so the items still running at step t are one
// contiguous block: item i's state at step t is row slot[i] of states[t]
// and row offset[t] + slot[i] of their concatenation.
struct PackedSweep {
  std::vector<int64_t> slot;
  std::vector<int64_t> offset;
  std::vector<ag::Variable> states;  // step t: [n_t, H]

  int64_t Row(int64_t item, int64_t t) const { return offset[t] + slot[item]; }
};

// Tiles per embedding + feature-interaction call in SweepPacked. Caps the
// [tiles, C, E] embedding temporaries at the size of a B=64, T=64 forward
// (~14 MiB at C=37, E=24), so a long sweep reuses the pool buckets a
// terminal pass fills instead of caching larger ones.
constexpr int64_t kTilesPerChunk = 4096;

// Runs every item through embedding + feature interaction (when
// `embedding` is non-null) and the GRU in one sweep: the embedding and
// feature-interaction ops over all packed tiles (in kTilesPerChunk
// chunks), one input-to-gates op, then one cell step per time step over
// the block of items still running. Each item's states are bitwise those
// of GruSweep over that item alone (every kernel computes rows
// independently; step 0 starts from zeros). Captures nothing.
PackedSweep SweepPacked(const std::vector<SweepItem>& items,
                        int64_t num_features,
                        const BiDirectionalEmbedding* embedding,
                        const FeatureInteraction* feature,
                        const nn::GruCell& cell) {
  ELDA_PROF_SCOPE("EldaNet/packed_sweep");
  const int64_t C = num_features;
  const int64_t num_items = static_cast<int64_t>(items.size());
  ELDA_CHECK_GE(num_items, 1);
  std::vector<int64_t> order(static_cast<size_t>(num_items));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&items](int64_t a, int64_t b) {
    return items[a].length > items[b].length;
  });
  PackedSweep out;
  out.slot.resize(static_cast<size_t>(num_items));
  for (int64_t p = 0; p < num_items; ++p) out.slot[order[p]] = p;
  // count[t]: items still running at step t, the first count[t] slots.
  const int64_t steps = items[order[0]].length;
  std::vector<int64_t> count(static_cast<size_t>(steps));
  out.offset.resize(static_cast<size_t>(steps));
  int64_t running = num_items;
  int64_t tiles = 0;
  for (int64_t t = 0; t < steps; ++t) {
    while (items[order[running - 1]].length <= t) --running;
    count[t] = running;
    out.offset[t] = tiles;
    tiles += running;
  }

  const bool with_never = embedding != nullptr && items[0].never != nullptr;
  Tensor xs = Tensor::Empty({tiles, 1, C});
  Tensor never;
  if (with_never) never = Tensor::Empty({tiles, 1, C, 1});
  const size_t row_bytes = static_cast<size_t>(C) * sizeof(float);
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t p = 0; p < count[t]; ++p) {
      const SweepItem& item = items[order[p]];
      const int64_t tile = out.offset[t] + p;
      std::memcpy(xs.data() + tile * C, item.x + t * C, row_bytes);
      if (with_never) {
        std::memcpy(never.data() + tile * C, item.never, row_bytes);
      }
    }
  }
  ag::Variable temporal_input = ag::Constant(xs);
  if (embedding != nullptr) {
    std::vector<ag::Variable> parts;
    for (int64_t start = 0; start < tiles; start += kTilesPerChunk) {
      const int64_t len = std::min(kTilesPerChunk, tiles - start);
      ag::Variable e = embedding->ForwardWithNever(
          ag::Constant(xs.ViewRows(start, len)),
          with_never ? never.ViewRows(start, len) : Tensor());
      parts.push_back(feature->Forward(e));  // [len, 1, C*d]
    }
    temporal_input = parts.size() == 1 ? parts[0] : ag::Concat(parts, 0);
  }
  ag::Variable xw = cell.PrecomputeInput(
      ag::Reshape(temporal_input, {tiles, temporal_input.value().shape(2)}));

  out.states.resize(static_cast<size_t>(steps));
  ag::Variable h =
      ag::Constant(Tensor::Zeros({count[0], cell.hidden_size()}));
  const Tensor w_hh_t = cell.RecurrentWeightT();
  for (int64_t t = 0; t < steps; ++t) {
    if (t > 0 && count[t] < count[t - 1]) h = ag::RowsView(h, 0, count[t]);
    h = cell.Step(ag::RowsView(xw, out.offset[t], count[t]), h, w_hh_t);
    out.states[t] = h;
  }
  return out;
}

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

ag::Variable EldaNet::EncodeSteps(const data::Batch& batch,
                                  nn::ForwardContext*) const {
  const int64_t B = batch.x.shape(0);
  const int64_t T = batch.x.shape(1);
  const int64_t C = config_.num_features;
  const int64_t H = config_.hidden_dim;
  ELDA_CHECK_EQ(batch.x.shape(2), C);
  const int64_t t0 = min_steps_to_score() - 1;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  if (t0 >= T) return ag::Constant(Tensor::Full({B, T, encoding_dim()}, nan));

  // Segments. Prefix t of row b embeds V_m for {c : first_obs[c] > t}, a
  // set that changes only at the row's first-observation steps L > t0. Row
  // b therefore sweeps once per segment, ending at each such L and at T,
  // with never = {c : first_obs[c] >= end}; prefix t reads the sweep of the
  // segment containing it. Variants without V_m sweep each row once.
  const bool vm = uses_missing_embedding();
  std::vector<SweepItem> items;
  std::vector<int64_t> item_of(static_cast<size_t>(B * T), -1);
  std::vector<float> never;  // [items, C], stable once filled
  std::vector<int64_t> ends;
  std::vector<int64_t> first_obs(static_cast<size_t>(C));
  for (int64_t b = 0; b < B; ++b) {
    const float* row_x = batch.x.data() + b * T * C;
    ends.assign(1, T);
    if (vm) {
      const float* row_mask = batch.mask.data() + b * T * C;
      for (int64_t c = 0; c < C; ++c) {
        int64_t t = 0;
        while (t < T && row_mask[t * C + c] == 0.0f) ++t;
        first_obs[c] = t;
        if (t > t0 && t < T) ends.push_back(t);
      }
      std::sort(ends.begin(), ends.end());
      ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
    }
    int64_t start = t0;
    for (int64_t end : ends) {
      const int64_t item = static_cast<int64_t>(items.size());
      items.push_back({row_x, end, nullptr});
      if (vm) {
        for (int64_t c = 0; c < C; ++c) {
          never.push_back(first_obs[c] >= end ? 1.0f : 0.0f);
        }
      }
      for (int64_t t = start; t < end; ++t) item_of[b * T + t] = item;
      start = end;
    }
  }
  if (vm) {
    for (size_t i = 0; i < items.size(); ++i) {
      items[i].never = never.data() + static_cast<int64_t>(i) * C;
    }
  }
  const nn::GruCell& cell =
      config_.use_time_interactions ? time_->cell() : plain_gru_->cell();
  const PackedSweep sweep =
      SweepPacked(items, C, embedding_.get(), feature_.get(), cell);
  ag::Variable bank = sweep.states.size() == 1 ? sweep.states[0]
                                               : ag::Concat(sweep.states, 0);

  if (!config_.use_time_interactions) {
    // The -F encodings are the GRU states themselves (t0 == 0).
    std::vector<int64_t> rows(static_cast<size_t>(B * T));
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t t = 0; t < T; ++t) {
        rows[b * T + t] = sweep.Row(item_of[b * T + t], t);
      }
    }
    return ag::Reshape(ag::GatherRows(bank, std::move(rows)), {B, T, H});
  }
  // Time interaction per prefix, as EncodeTerminal scores it: the earlier
  // states [B, t, H] and the state at t [B, H] of each row's segment.
  std::vector<ag::Variable> per_step;
  per_step.reserve(static_cast<size_t>(T));
  for (int64_t t = 0; t < t0; ++t) {
    per_step.push_back(
        ag::Constant(Tensor::Full({B, encoding_dim()}, nan)));
  }
  for (int64_t t = t0; t < T; ++t) {
    std::vector<int64_t> prev_rows(static_cast<size_t>(B * t));
    std::vector<int64_t> last_rows(static_cast<size_t>(B));
    for (int64_t b = 0; b < B; ++b) {
      const int64_t item = item_of[b * T + t];
      for (int64_t s = 0; s < t; ++s) prev_rows[b * t + s] = sweep.Row(item, s);
      last_rows[b] = sweep.Row(item, t);
    }
    ag::Variable h_prev = ag::Reshape(
        ag::GatherRows(bank, std::move(prev_rows)), {B, t, H});
    ag::Variable h_last = ag::GatherRows(bank, std::move(last_rows));
    per_step.push_back(time_->ScoreFromStates(h_prev, h_last));
  }
  return ag::Transpose01(ag::Stack0(per_step));  // [T, B, H] -> [B, T, H]
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
  auto state = std::make_unique<EldaNetStreamState>(
      window_capacity, config_.hidden_dim, config_.num_features);
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

  if (!replay.empty()) {
    // Every flipping session replays its retained window in one packed
    // sweep. Never-observed comes from the window's own mask, as a batch
    // Forward over the window computes it.
    const int64_t g = static_cast<int64_t>(replay.size());
    std::vector<Tensor> windows(static_cast<size_t>(g));
    std::vector<float> never(static_cast<size_t>(g * C), 1.0f);
    std::vector<SweepItem> items(static_cast<size_t>(g));
    for (int64_t i = 0; i < g; ++i) {
      EldaNetStreamState* s = ss[replay[i]];
      const int64_t T = s->obs_x.size();
      windows[i] = Tensor::Empty({T, C});
      s->obs_x.CopyInto(windows[i].data());
      Tensor ms = Tensor::Empty({T, C});
      s->obs_mask.CopyInto(ms.data());
      for (int64_t k = 0; k < T * C; ++k) {
        if (ms.data()[k] != 0.0f) never[i * C + k % C] = 0.0f;
      }
      items[i] = {windows[i].data(), T, never.data() + i * C};
    }
    const PackedSweep sweep =
        SweepPacked(items, C, embedding_.get(), feature_.get(), cell);
    for (int64_t i = 0; i < g; ++i) {
      EldaNetStreamState* s = ss[replay[i]];
      const int64_t T = items[i].length;
      const int64_t slot = sweep.slot[i];
      s->h_prev.Clear();
      for (int64_t t = 0; t + 1 < T; ++t) {
        s->h_prev.Append(sweep.states[t].value().data() + slot * H, H);
      }
      std::memcpy(s->h.data(),
                  sweep.states[T - 1].value().data() + slot * H,
                  static_cast<size_t>(H) * sizeof(float));
      ++s->steps_seen;
    }
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
