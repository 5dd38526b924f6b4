#include "baselines/gru_d.h"

#include <cstring>

#include "autograd/ops.h"
#include "nn/recurrent_sweep.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace elda {
namespace baselines {
namespace {

struct GruDStreamState : nn::StepState {
  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutTensorData(w, h);
  }
  bool Load(util::ByteReader* r) override {
    return nn::StepState::Load(r) && nn::GetTensorData(r, &h);
  }

  Tensor h;  // [hidden]
};

}  // namespace

GruD::GruD(int64_t num_features, int64_t hidden_dim, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      hidden_dim_(hidden_dim),
      decay_h_(num_features, hidden_dim, /*use_bias=*/true, &rng_),
      cell_(2 * num_features, hidden_dim, &rng_),
      out_(hidden_dim, 1, true, &rng_) {
  decay_x_w_ = RegisterParameter("decay_x_w",
                                 Tensor::Full({num_features}, 0.1f));
  decay_x_b_ = RegisterParameter("decay_x_b", Tensor::Zeros({num_features}));
  RegisterSubmodule("decay_h", &decay_h_);
  RegisterSubmodule("cell", &cell_);
  RegisterSubmodule("out", &out_);
}

nn::SweepResult GruD::RunSweep(const data::Batch& batch) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  // All decay math is loop-invariant (each step reads only its own rows of
  // x/mask/delta), so it runs once over the whole [B, T, C] batch; the same
  // broadcasting pairs each element with the same weight as the old
  // per-step [B, C] version.
  ag::Variable x = ag::Constant(batch.x);
  ag::Variable m = ag::Constant(batch.mask);
  ag::Variable delta = ag::Constant(batch.delta);
  // Input decay toward the (standardised) global mean of zero.
  ag::Variable gamma_x = ag::ExpNegRelu(
      ag::Add(ag::Mul(delta, decay_x_w_), decay_x_b_));  // [B, T, C]
  ag::Variable one_minus_m =
      ag::Constant(Sub(Tensor::Ones(batch.mask.shape()), batch.mask));
  ag::Variable x_hat = ag::Add(ag::Mul(m, x),
                               ag::Mul(one_minus_m, ag::Mul(gamma_x, x)));
  // Hidden decay.
  ag::Variable gamma_h =
      ag::ExpNegRelu(decay_h_.Forward(delta));  // [B, T, H]

  // Time-major [T*B, .] blocks: the hoisted cell-input GEMM over
  // [x^ ; m], and the per-step hidden decay factors.
  ag::Variable u = ag::Reshape(ag::Transpose01(ag::Concat({x_hat, m}, 2)),
                               {steps * batch_size, 2 * num_features()});
  ag::Variable xw_all = cell_.PrecomputeInput(u);  // [T*B, 3H]
  ag::Variable gamma_h_tm = ag::Reshape(ag::Transpose01(gamma_h),
                                        {steps * batch_size, hidden_dim_});

  nn::SweepOptions opts;
  opts.label = "GruD/sweep";
  opts.lengths = batch.LengthsOrNull();
  ag::Variable h0 = ag::Constant(Tensor::Zeros({batch_size, hidden_dim_}));
  const Tensor w_hh_t = cell_.RecurrentWeightT();
  nn::SweepResult sweep = nn::Sweep(
      steps, h0,
      [&](int64_t t, const ag::Variable& h) {
        ag::Variable decayed = ag::Mul(
            ag::RowsView(gamma_h_tm, t * batch_size, batch_size), h);
        return cell_.Step(ag::RowsView(xw_all, t * batch_size, batch_size),
                          decayed, w_hh_t);
      },
      opts);
  return sweep;
}

ag::Variable GruD::EncodeTerminal(const data::Batch& batch,
                                  nn::ForwardContext*) const {
  return RunSweep(batch).last();
}

ag::Variable GruD::Readout(const ag::Variable& rep,
                           nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

ag::Variable GruD::EncodeSteps(const data::Batch& batch,
                               nn::ForwardContext*) const {
  // One sweep; state t is bitwise the prefix encoding (decay factors read
  // only step t's delta row, the cell is causal, kernels are row-strict).
  return RunSweep(batch).Stacked();  // [B, T, H]
}

std::unique_ptr<nn::StepState> GruD::MakeStepState(
    int64_t /*window_capacity*/) const {
  auto state = std::make_unique<GruDStreamState>();
  state->h = Tensor::Zeros({hidden_dim_});
  return state;
}

ag::Variable GruD::StepForward(const train::StepBatch& obs,
                               const std::vector<nn::StepState*>& states,
                               nn::ForwardContext*) const {
  const int64_t n = static_cast<int64_t>(states.size());
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  ELDA_CHECK_EQ(obs.x.shape(1), num_features());
  Tensor h_prev = Tensor::Empty({n, hidden_dim_});
  std::vector<GruDStreamState*> ss(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    ss[b] = dynamic_cast<GruDStreamState*>(states[b]);
    ELDA_CHECK(ss[b] != nullptr);
    std::memcpy(h_prev.data() + b * hidden_dim_, ss[b]->h.data(),
                static_cast<size_t>(hidden_dim_) * sizeof(float));
  }
  // The same decay / imputation expressions as Forward, evaluated on this
  // step's [B, C] rows instead of the whole [B, T, C] batch: every op is
  // per-element or per-row, so values match the batched sweep bitwise.
  ag::Variable x = ag::Constant(obs.x);
  ag::Variable m = ag::Constant(obs.mask);
  ag::Variable delta = ag::Constant(obs.delta);
  ag::Variable gamma_x = ag::ExpNegRelu(
      ag::Add(ag::Mul(delta, decay_x_w_), decay_x_b_));  // [B, C]
  ag::Variable one_minus_m =
      ag::Constant(Sub(Tensor::Ones(obs.mask.shape()), obs.mask));
  ag::Variable x_hat = ag::Add(ag::Mul(m, x),
                               ag::Mul(one_minus_m, ag::Mul(gamma_x, x)));
  ag::Variable gamma_h =
      ag::ExpNegRelu(decay_h_.Forward(delta));  // [B, H]
  ag::Variable u = ag::Concat({x_hat, m}, 1);               // [B, 2C]
  ag::Variable xw = cell_.PrecomputeInput(u);
  ag::Variable decayed = ag::Mul(gamma_h, ag::Constant(h_prev));
  ag::Variable h = cell_.Step(xw, decayed);
  for (int64_t b = 0; b < n; ++b) {
    std::memcpy(ss[b]->h.data(), h.value().data() + b * hidden_dim_,
                static_cast<size_t>(hidden_dim_) * sizeof(float));
    ++ss[b]->steps_seen;
  }
  return ag::Reshape(out_.Forward(h), {n});
}

}  // namespace baselines
}  // namespace elda
