#include "baselines/stagenet.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "autograd/ops.h"
#include "nn/recurrent_sweep.h"

namespace elda {
namespace baselines {
namespace {

struct StageNetStreamState : nn::StepState {
  StageNetStreamState(int64_t ring_capacity, int64_t hidden_dim)
      : staged(ring_capacity, hidden_dim) {}

  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutTensorData(w, h);
    nn::PutTensorData(w, c);
    nn::PutWindow(w, staged);
    nn::PutTensorData(w, conv_sum);
    w->Put(windows);
  }
  bool Load(util::ByteReader* r) override {
    return nn::StepState::Load(r) && nn::GetTensorData(r, &h) &&
           nn::GetTensorData(r, &c) && nn::GetWindow(r, &staged) &&
           nn::GetTensorData(r, &conv_sum) && r->Get(&windows);
  }

  Tensor h;                 // [hidden]
  Tensor c;                 // [hidden]
  nn::RollingWindow staged; // last K-1 staged states (window assembly)
  Tensor conv_sum;          // [channels], running sum of conv window outputs
  int64_t windows = 0;      // conv windows accumulated so far
};

}  // namespace

StageNet::StageNet(int64_t num_features, int64_t hidden_dim,
                   int64_t conv_kernel, int64_t conv_channels, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      hidden_dim_(hidden_dim),
      conv_kernel_(conv_kernel),
      conv_channels_(conv_channels),
      lstm_(num_features, hidden_dim, &rng_),
      stage_head_(hidden_dim, 1, /*use_bias=*/true, &rng_),
      conv_(conv_kernel * hidden_dim, conv_channels, true, &rng_),
      out_(hidden_dim + conv_channels, 1, true, &rng_) {
  RegisterSubmodule("lstm", &lstm_);
  RegisterSubmodule("stage_head", &stage_head_);
  RegisterSubmodule("conv", &conv_);
  RegisterSubmodule("out", &out_);
}

ag::Variable StageNet::EncodeTerminal(const data::Batch& batch,
                                      nn::ForwardContext*) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  ELDA_CHECK_GE(steps, conv_kernel_);
  nn::SweepOptions opts;
  opts.label = "StageNet/lstm";
  nn::SweepResult sweep =
      nn::LstmSweep(lstm_.cell(), ag::Constant(batch.x), opts);
  ag::Variable h = sweep.Stacked();  // [B, T, H]

  // Stage signal per step: how far the disease has progressed. It softly
  // re-weights the hidden history before the progression convolution.
  ag::Variable stage = ag::Sigmoid(stage_head_.Forward(h));  // [B, T, 1]
  ag::Variable staged = ag::Mul(h, stage);                   // [B, T, H]

  // Temporal convolution via unfolding: windows of K consecutive staged
  // states, linearly mapped to `conv_channels` progression features.
  std::vector<ag::Variable> windows;
  windows.reserve(steps - conv_kernel_ + 1);
  for (int64_t t = 0; t + conv_kernel_ <= steps; ++t) {
    // [B, K, H] -> [B, 1, K*H]
    windows.push_back(ag::Reshape(ag::Slice(staged, 1, t, conv_kernel_),
                                  {batch_size, 1, conv_kernel_ * hidden_dim_}));
  }
  ag::Variable unfolded = ag::Concat(windows, 1);  // [B, T-K+1, K*H]
  ag::Variable conv = ag::Relu(conv_.Forward(unfolded));
  // Max-pool the progression features over time: max = -min(-x) via the
  // softplus-free trick is unnecessary; mean-pool works and keeps gradients
  // dense across the stay.
  ag::Variable pooled = ag::Mean(conv, /*axis=*/1);  // [B, channels]

  ag::Variable h_last = sweep.steps.back();  // [B, H]
  return ag::Concat({h_last, pooled}, 1);  // [B, H + channels]
}

ag::Variable StageNet::Readout(const ag::Variable& rep,
                               nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

std::unique_ptr<nn::StepState> StageNet::MakeStepState(
    int64_t /*window_capacity*/) const {
  auto state = std::make_unique<StageNetStreamState>(
      std::max<int64_t>(1, conv_kernel_ - 1), hidden_dim_);
  state->h = Tensor::Zeros({hidden_dim_});
  state->c = Tensor::Zeros({hidden_dim_});
  state->conv_sum = Tensor::Zeros({conv_channels_});
  return state;
}

ag::Variable StageNet::StepForward(const train::StepBatch& obs,
                                   const std::vector<nn::StepState*>& states,
                                   nn::ForwardContext*) const {
  const int64_t n = static_cast<int64_t>(states.size());
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  std::vector<StageNetStreamState*> ss(static_cast<size_t>(n));
  Tensor packed_prev = Tensor::Empty({2, n, hidden_dim_});
  for (int64_t b = 0; b < n; ++b) {
    ss[b] = dynamic_cast<StageNetStreamState*>(states[b]);
    ELDA_CHECK(ss[b] != nullptr);
    std::memcpy(packed_prev.data() + b * hidden_dim_, ss[b]->h.data(),
                static_cast<size_t>(hidden_dim_) * sizeof(float));
    std::memcpy(packed_prev.data() + (n + b) * hidden_dim_, ss[b]->c.data(),
                static_cast<size_t>(hidden_dim_) * sizeof(float));
  }

  // One fused LSTM step, then this step's stage re-weighting — the same
  // kernels the batched sweep runs on this step's rows.
  ag::Variable xw = lstm_.cell().PrecomputeInput(ag::Constant(obs.x));
  ag::Variable packed = lstm_.cell().Step(xw, ag::Constant(packed_prev));
  ag::Variable h_t = ag::StepView(packed, 0);  // [B, H]
  ag::Variable stage = ag::Sigmoid(stage_head_.Forward(h_t));
  ag::Variable staged_t = ag::Mul(h_t, stage);  // [B, H]

  const float* h_data = packed.value().data();
  const float* staged_data = staged_t.value().data();
  // Sessions whose staged ring already holds K-1 earlier states complete a
  // new conv window this step.
  std::vector<int64_t> with_window;
  for (int64_t b = 0; b < n; ++b) {
    if (ss[b]->staged.size() >= conv_kernel_ - 1) with_window.push_back(b);
  }
  if (!with_window.empty()) {
    const int64_t m = static_cast<int64_t>(with_window.size());
    Tensor wrows = Tensor::Empty({m, conv_kernel_ * hidden_dim_});
    for (int64_t i = 0; i < m; ++i) {
      const int64_t b = with_window[i];
      float* dst = wrows.data() + i * conv_kernel_ * hidden_dim_;
      for (int64_t k = 0; k < conv_kernel_ - 1; ++k) {
        std::memcpy(dst + k * hidden_dim_, ss[b]->staged.row(k),
                    static_cast<size_t>(hidden_dim_) * sizeof(float));
      }
      std::memcpy(dst + (conv_kernel_ - 1) * hidden_dim_,
                  staged_data + b * hidden_dim_,
                  static_cast<size_t>(hidden_dim_) * sizeof(float));
    }
    ag::Variable conv = ag::Relu(conv_.Forward(ag::Constant(wrows)));
    const float* conv_data = conv.value().data();
    for (int64_t i = 0; i < m; ++i) {
      StageNetStreamState* s = ss[with_window[i]];
      float* acc = s->conv_sum.data();
      const float* row = conv_data + i * conv_channels_;
      if (s->windows == 0) {
        // First window initialises the accumulator (the Mean kernel copies
        // window 0 before adding the rest).
        std::memcpy(acc, row,
                    static_cast<size_t>(conv_channels_) * sizeof(float));
      } else {
        for (int64_t ch = 0; ch < conv_channels_; ++ch) acc[ch] += row[ch];
      }
      ++s->windows;
    }
  }

  // Commit the recurrent state and this step's staged vector.
  for (int64_t b = 0; b < n; ++b) {
    std::memcpy(ss[b]->h.data(), h_data + b * hidden_dim_,
                static_cast<size_t>(hidden_dim_) * sizeof(float));
    std::memcpy(ss[b]->c.data(), h_data + (n + b) * hidden_dim_,
                static_cast<size_t>(hidden_dim_) * sizeof(float));
    ss[b]->staged.Append(staged_data + b * hidden_dim_, hidden_dim_);
    ++ss[b]->steps_seen;
  }

  // Score sessions that have at least one complete conv window: mean-pool
  // the running sum exactly as ag::Mean does (sum in window order, one
  // scale by 1/n at the end).
  Tensor logits =
      Tensor::Full({n}, std::numeric_limits<float>::quiet_NaN());
  std::vector<int64_t> scorable;
  for (int64_t b = 0; b < n; ++b) {
    if (ss[b]->windows > 0) scorable.push_back(b);
  }
  if (!scorable.empty()) {
    const int64_t g = static_cast<int64_t>(scorable.size());
    Tensor rep = Tensor::Empty({g, hidden_dim_ + conv_channels_});
    for (int64_t i = 0; i < g; ++i) {
      StageNetStreamState* s = ss[scorable[i]];
      float* dst = rep.data() + i * (hidden_dim_ + conv_channels_);
      std::memcpy(dst, s->h.data(),
                  static_cast<size_t>(hidden_dim_) * sizeof(float));
      const float inv = 1.0f / static_cast<float>(s->windows);
      for (int64_t ch = 0; ch < conv_channels_; ++ch) {
        dst[hidden_dim_ + ch] = s->conv_sum.data()[ch] * inv;
      }
    }
    ag::Variable scored = out_.Forward(ag::Constant(rep));  // [g, 1]
    for (int64_t i = 0; i < g; ++i) {
      logits.data()[scorable[i]] = scored.value().data()[i];
    }
  }
  return ag::Constant(logits);
}

}  // namespace baselines
}  // namespace elda
