#include "baselines/static_models.h"

#include "autograd/ops.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace baselines {

ag::Variable TimeMeanInput(const data::Batch& batch) {
  return ag::Mean(ag::Constant(batch.x), /*axis=*/1);
}

LogisticRegression::LogisticRegression(int64_t num_features, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      linear_(num_features, 1, /*use_bias=*/true, &rng_) {
  RegisterSubmodule("linear", &linear_);
}

ag::Variable LogisticRegression::EncodeTerminal(const data::Batch& batch,
                                                nn::ForwardContext*) const {
  return TimeMeanInput(batch);
}

ag::Variable LogisticRegression::Readout(const ag::Variable& rep,
                                         nn::ForwardContext*) const {
  return ag::Reshape(linear_.Forward(rep), {rep.value().shape(0)});
}

FactorizationMachine::FactorizationMachine(int64_t num_features,
                                           int64_t factor_dim, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      factor_dim_(factor_dim) {
  w0_ = RegisterParameter("w0", Tensor::Zeros({1}));
  w_ = RegisterParameter("w", Tensor::Zeros({num_features, 1}));
  factors_ = RegisterParameter(
      "factors", Tensor::Normal({num_features, factor_dim}, 0.0f, 0.01f,
                                &rng_));
}

ag::Variable FactorizationMachine::EncodeTerminal(const data::Batch& batch,
                                                  nn::ForwardContext*) const {
  return TimeMeanInput(batch);
}

ag::Variable FactorizationMachine::Readout(const ag::Variable& rep,
                                           nn::ForwardContext*) const {
  const int64_t batch_size = rep.value().shape(0);
  const ag::Variable& x = rep;  // [B, C]
  // xv_i = v_i * x_i : [B, C, 1] * [C, k] -> [B, C, k].
  ag::Variable xv = ag::Mul(ag::Reshape(x, {batch_size, num_features(), 1}),
                            factors_);
  ag::Variable sum_vec = ag::Sum(xv, /*axis=*/1);            // [B, k]
  ag::Variable sum_sq = ag::Sum(ag::Square(sum_vec), 1);     // [B]
  ag::Variable sq_sum = ag::Sum(ag::Sum(ag::Square(xv), 2), 1);
  ag::Variable pairwise =
      ag::MulScalar(ag::Sub(sum_sq, sq_sum), 0.5f);          // [B]
  ag::Variable linear =
      ag::Add(ag::Reshape(ag::MatMul(x, w_), {batch_size}), w0_);
  return ag::Add(linear, pairwise);
}

AttentionalFactorizationMachine::AttentionalFactorizationMachine(
    int64_t num_features, int64_t factor_dim, int64_t attention_dim,
    uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      factor_dim_(factor_dim) {
  w0_ = RegisterParameter("w0", Tensor::Zeros({1}));
  w_ = RegisterParameter("w", Tensor::Zeros({num_features, 1}));
  factors_ = RegisterParameter(
      "factors", Tensor::Normal({num_features, factor_dim}, 0.0f, 0.01f,
                                &rng_));
  attn_w_ = RegisterParameter(
      "attn_w", nn::XavierUniform2d(factor_dim, attention_dim, &rng_));
  attn_b_ = RegisterParameter("attn_b", Tensor::Zeros({attention_dim}));
  attn_h_ = RegisterParameter(
      "attn_h", nn::XavierUniform2d(attention_dim, 1, &rng_));
  p_ = RegisterParameter("p", nn::XavierUniform2d(factor_dim, 1, &rng_));
  // Restrict attention to unordered pairs i < j.
  pair_mask_ = Tensor({num_features, num_features});
  for (int64_t i = 0; i < num_features; ++i) {
    for (int64_t j = 0; j <= i; ++j) pair_mask_.at({i, j}) = -1e9f;
  }
}

ag::Variable AttentionalFactorizationMachine::EncodeTerminal(
    const data::Batch& batch, nn::ForwardContext*) const {
  return TimeMeanInput(batch);
}

ag::Variable AttentionalFactorizationMachine::Readout(
    const ag::Variable& rep, nn::ForwardContext*) const {
  const int64_t batch_size = rep.value().shape(0);
  const int64_t c = num_features();
  const int64_t k = factor_dim_;
  const ag::Variable& x = rep;  // [B, C]
  ag::Variable xv =
      ag::Mul(ag::Reshape(x, {batch_size, c, 1}), factors_);  // [B, C, k]
  // All pairwise element-wise products via broadcasting:
  // [B, C, 1, k] * [B, 1, C, k] -> [B, C, C, k].
  ag::Variable r = ag::Mul(ag::Reshape(xv, {batch_size, c, 1, k}),
                           ag::Reshape(xv, {batch_size, 1, c, k}));
  // Attention scores h^T relu(W r + b) per pair.
  ag::Variable flat = ag::Reshape(r, {batch_size * c * c, k});
  ag::Variable hidden =
      ag::Relu(ag::Add(ag::MatMul(flat, attn_w_), attn_b_));
  ag::Variable scores =
      ag::Reshape(ag::MatMul(hidden, attn_h_), {batch_size, c * c});
  scores = ag::Add(scores,
                   ag::Constant(pair_mask_.Reshape({c * c})));
  ag::Variable alpha = ag::Softmax(scores);  // [B, C*C]
  // Attended interaction vector: [B, 1, C*C] x [B, C*C, k] -> [B, k].
  ag::Variable attended = ag::Reshape(
      ag::MatMul(ag::Reshape(alpha, {batch_size, 1, c * c}),
                 ag::Reshape(r, {batch_size, c * c, k})),
      {batch_size, k});
  ag::Variable pairwise =
      ag::Reshape(ag::MatMul(attended, p_), {batch_size});
  ag::Variable linear =
      ag::Add(ag::Reshape(ag::MatMul(x, w_), {batch_size}), w0_);
  return ag::Add(linear, pairwise);
}

}  // namespace baselines
}  // namespace elda
