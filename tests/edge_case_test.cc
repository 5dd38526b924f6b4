// Edge-case and failure-injection tests across the substrate: invariant
// violations must CHECK-fail loudly (Google-style error handling), and
// boundary shapes must behave.

#include <cmath>

#include "autograd/ops.h"
#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

// ---- Tensor boundaries ---------------------------------------------------------

TEST(EdgeTest, SingleElementTensorsFlowThroughOps) {
  Tensor a = Tensor::FromData({1, 1}, {3.0f});
  Tensor b = Tensor::FromData({1, 1}, {4.0f});
  EXPECT_FLOAT_EQ(MatMul(a, b)[0], 12.0f);
  EXPECT_FLOAT_EQ(Softmax(a)[0], 1.0f);
  EXPECT_FLOAT_EQ(Sum(a, 0)[0], 3.0f);
}

TEST(EdgeTest, LengthOneAxisReductions) {
  Tensor a = Tensor::FromData({3, 1}, {1, 2, 3});
  Tensor s = Sum(a, 1);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{3}));
  Tensor m = Max(a, 1, true);
  EXPECT_EQ(m.shape(), (std::vector<int64_t>{3, 1}));
  Tensor soft = Softmax(a);  // softmax over a single entry is 1
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(soft[i], 1.0f);
}

TEST(EdgeTest, SliceOfFullAxisIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::Normal({2, 5}, 0, 1, &rng);
  EXPECT_TRUE(AllClose(Slice(a, 1, 0, 5), a));
}

TEST(EdgeTest, SliceOfZeroLength) {
  Tensor a({2, 5});
  Tensor s = Slice(a, 1, 2, 0);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 0}));
  EXPECT_EQ(s.size(), 0);
}

TEST(EdgeDeathTest, SliceOutOfRangeAborts) {
  Tensor a({2, 5});
  EXPECT_DEATH(Slice(a, 1, 3, 4), "slice");
  EXPECT_DEATH(Slice(a, 1, -1, 2), "slice");
}

TEST(EdgeDeathTest, ConcatMismatchedShapesAborts) {
  Tensor a({2, 3});
  Tensor b({2, 4});
  EXPECT_DEATH(Concat({a, b}, 0), "CHECK failed");
}

TEST(EdgeDeathTest, AxisOutOfRangeAborts) {
  Tensor a({2, 3});
  EXPECT_DEATH(Sum(a, 2), "axis");
}

TEST(EdgeDeathTest, MaxAllOfEmptyAborts) {
  Tensor empty = Tensor::FromData({0}, {});
  EXPECT_DEATH(MaxAll(empty), "CHECK failed");
}

// ---- Numerical robustness ---------------------------------------------------------

TEST(EdgeTest, SoftmaxWithAllMaskedButOneEntry) {
  Tensor logits = Tensor::FromData({1, 4}, {-1e9f, -1e9f, 5.0f, -1e9f});
  Tensor s = Softmax(logits);
  EXPECT_NEAR(s[2], 1.0f, 1e-6f);
  EXPECT_NEAR(s[0] + s[1] + s[3], 0.0f, 1e-6f);
}

TEST(EdgeTest, ExpOfLargeNegativeIsZeroNotNan) {
  Tensor a = Tensor::FromData({2}, {-200.0f, -1000.0f});
  Tensor e = Exp(a);
  EXPECT_FLOAT_EQ(e[0], 0.0f);
  EXPECT_FALSE(std::isnan(e[1]));
}

TEST(EdgeTest, GradientsThroughDeepChainStayFinite) {
  // 60 chained tanh ops: gradient underflows toward 0 but never NaNs.
  ag::Variable x(Tensor::FromData({4}, {0.3f, -0.2f, 0.5f, 0.9f}), true);
  ag::Variable h = x;
  for (int i = 0; i < 60; ++i) h = ag::Tanh(h);
  ag::SumAll(h).Backward();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(x.grad()[i]));
  }
}

TEST(EdgeTest, LongSequenceGruStaysFinite) {
  Rng rng(2);
  nn::Gru gru(3, 4, &rng);
  ag::Variable x =
      ag::Constant(Tensor::Normal({1, 200, 3}, 0.0f, 2.0f, &rng));
  Tensor h = gru.Forward(x).value();
  for (int64_t i = 0; i < h.size(); ++i) EXPECT_TRUE(std::isfinite(h[i]));
}

TEST(EdgeTest, BatchSizeOneEverywhere) {
  Rng rng(3);
  nn::Gru gru(5, 6, &rng);
  nn::Linear head(6, 1, true, &rng);
  ag::Variable x = ag::Constant(Tensor::Normal({1, 8, 5}, 0, 1, &rng));
  auto steps = gru.ForwardSteps(x);
  Tensor logit = head.Forward(steps.back()).value();
  EXPECT_EQ(logit.shape(), (std::vector<int64_t>{1, 1}));
}

TEST(EdgeDeathTest, DropoutRateOneAborts) {
  Rng rng(4);
  ag::Variable a(Tensor::Ones({4}), true);
  EXPECT_DEATH(ag::Dropout(a, 1.0f, true, &rng), "CHECK failed");
}

TEST(EdgeDeathTest, BceSizeMismatchAborts) {
  ag::Variable z(Tensor::Ones({3}), true);
  Tensor y = Tensor::Ones({4});
  EXPECT_DEATH(ag::BceWithLogits(z, y), "CHECK failed");
}

}  // namespace
}  // namespace elda
