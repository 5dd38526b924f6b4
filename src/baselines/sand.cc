#include "baselines/sand.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "autograd/ops.h"

namespace elda {
namespace baselines {

namespace {

// Input-independent constants for one (model_dim, M, steps) configuration.
// Once built they are immutable, so concurrent Forward calls can share one
// entry without synchronisation; the memo itself is guarded by a mutex that
// is only contended on the first batch of a new sequence length.
struct SandConstants {
  Tensor positional;     // [T, D]
  Tensor causal_mask;    // [T, T] 0 / -1e9
  Tensor interpolation;  // [M, T] dense-interpolation weights
};

std::shared_ptr<const SandConstants> GetSandConstants(int64_t model_dim,
                                                      int64_t m_factors,
                                                      int64_t steps) {
  using Key = std::tuple<int64_t, int64_t, int64_t>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const SandConstants>>* memo =
      new std::map<Key, std::shared_ptr<const SandConstants>>();
  const Key key{model_dim, m_factors, steps};
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(key);
    if (it != memo->end()) return it->second;
  }
  auto built = std::make_shared<SandConstants>();
  built->positional = Tensor({steps, model_dim});
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t k = 0; k < model_dim; ++k) {
      const double angle =
          t / std::pow(10000.0,
                       2.0 * (k / 2) / static_cast<double>(model_dim));
      built->positional.at({t, k}) =
          k % 2 == 0 ? static_cast<float>(std::sin(angle))
                     : static_cast<float>(std::cos(angle));
    }
  }
  built->causal_mask = Tensor({steps, steps});
  for (int64_t i = 0; i < steps; ++i) {
    for (int64_t j = i + 1; j < steps; ++j) {
      built->causal_mask.at({i, j}) = -1e9f;
    }
  }
  // Dense interpolation (SAnD Alg. 1): w_{m,t} = (1 - |t/T - m/M|)^2.
  built->interpolation = Tensor({m_factors, steps});
  for (int64_t m = 0; m < m_factors; ++m) {
    for (int64_t t = 0; t < steps; ++t) {
      const double pos_t = static_cast<double>(t + 1) / steps;
      const double pos_m = static_cast<double>(m + 1) / m_factors;
      const double w = 1.0 - std::fabs(pos_t - pos_m);
      built->interpolation.at({m, t}) = static_cast<float>(w * w);
    }
  }
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = memo->emplace(key, std::move(built));
  (void)inserted;  // a racing builder may have won; use whichever landed
  return it->second;
}

}  // namespace

Sand::Sand(const Config& config, uint64_t seed)
    : train::SequenceModel(config.num_features),
      config_(config),
      rng_(seed),
      embed_(config.num_features, config.model_dim, /*use_bias=*/true, &rng_),
      out_(config.interpolation_factors * config.model_dim, 1, true, &rng_) {
  RegisterSubmodule("embed", &embed_);
  blocks_.resize(config_.num_blocks);
  for (int64_t i = 0; i < config_.num_blocks; ++i) {
    Block& block = blocks_[i];
    const int64_t d = config_.model_dim;
    block.wq = std::make_unique<nn::Linear>(d, d, false, &rng_);
    block.wk = std::make_unique<nn::Linear>(d, d, false, &rng_);
    block.wv = std::make_unique<nn::Linear>(d, d, false, &rng_);
    block.wo = std::make_unique<nn::Linear>(d, d, true, &rng_);
    block.ffn1 = std::make_unique<nn::Linear>(d, config_.ffn_dim, true, &rng_);
    block.ffn2 = std::make_unique<nn::Linear>(config_.ffn_dim, d, true, &rng_);
    block.norm1 = std::make_unique<nn::LayerNorm>(d);
    block.norm2 = std::make_unique<nn::LayerNorm>(d);
    const std::string prefix = "block" + std::to_string(i) + ".";
    RegisterSubmodule(prefix + "wq", block.wq.get());
    RegisterSubmodule(prefix + "wk", block.wk.get());
    RegisterSubmodule(prefix + "wv", block.wv.get());
    RegisterSubmodule(prefix + "wo", block.wo.get());
    RegisterSubmodule(prefix + "ffn1", block.ffn1.get());
    RegisterSubmodule(prefix + "ffn2", block.ffn2.get());
    RegisterSubmodule(prefix + "norm1", block.norm1.get());
    RegisterSubmodule(prefix + "norm2", block.norm2.get());
  }
  RegisterSubmodule("out", &out_);
}

ag::Variable Sand::EncodeTerminal(const data::Batch& batch,
                                  nn::ForwardContext* ctx) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  const int64_t d = config_.model_dim;
  const std::shared_ptr<const SandConstants> constants =
      GetSandConstants(d, config_.interpolation_factors, steps);
  const bool dropout_on =
      ctx != nullptr && ctx->training && ctx->rng != nullptr;
  Rng* dropout_rng = dropout_on ? ctx->rng : nullptr;

  ag::Variable h = ag::Add(embed_.Forward(ag::Constant(batch.x)),
                           ag::Constant(constants->positional));  // [B, T, D]
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (const Block& block : blocks_) {
    ag::Variable q = block.wq->Forward(h);
    ag::Variable k = block.wk->Forward(h);
    ag::Variable v = block.wv->Forward(h);
    ag::Variable scores = ag::MulScalar(
        ag::MatMul(q, ag::TransposeLast2(k)), scale);  // [B, T, T]
    scores = ag::Add(scores, ag::Constant(constants->causal_mask));
    ag::Variable attention = ag::Softmax(scores);
    ag::Variable attended = block.wo->Forward(ag::MatMul(attention, v));
    attended = ag::Dropout(attended, config_.dropout, dropout_on, dropout_rng);
    h = block.norm1->Forward(ag::Add(h, attended));  // residual + norm
    ag::Variable ffn =
        block.ffn2->Forward(ag::Relu(block.ffn1->Forward(h)));
    ffn = ag::Dropout(ffn, config_.dropout, dropout_on, dropout_rng);
    h = block.norm2->Forward(ag::Add(h, ffn));  // residual + norm
  }
  // Dense interpolation collapses time into M factors: [M,T] x [B,T,D].
  ag::Variable interpolated =
      ag::MatMul(ag::Constant(constants->interpolation),
                 h);  // [B, M, D] (shared lhs)
  return ag::Reshape(
      interpolated, {batch_size, config_.interpolation_factors * d});
}

ag::Variable Sand::Readout(const ag::Variable& rep,
                           nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

}  // namespace baselines
}  // namespace elda
