// Property-based sweeps over the tensor algebra: algebraic identities that
// must hold for every shape/broadcast combination the library supports.

#include <cmath>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

using ShapePair = std::tuple<std::vector<int64_t>, std::vector<int64_t>>;

Tensor RandomTensor(const std::vector<int64_t>& shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Normal(shape, 0.0f, 1.0f, &rng);
}

class BroadcastPropertyTest : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastPropertyTest, AddCommutes) {
  const auto& [sa, sb] = GetParam();
  Tensor a = RandomTensor(sa, 1);
  Tensor b = RandomTensor(sb, 2);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a)));
}

TEST_P(BroadcastPropertyTest, MulCommutes) {
  const auto& [sa, sb] = GetParam();
  Tensor a = RandomTensor(sa, 3);
  Tensor b = RandomTensor(sb, 4);
  EXPECT_TRUE(AllClose(Mul(a, b), Mul(b, a)));
}

TEST_P(BroadcastPropertyTest, SubIsAddOfNegation) {
  const auto& [sa, sb] = GetParam();
  Tensor a = RandomTensor(sa, 5);
  Tensor b = RandomTensor(sb, 6);
  EXPECT_TRUE(AllClose(Sub(a, b), Add(a, Neg(b))));
}

TEST_P(BroadcastPropertyTest, DistributiveLaw) {
  const auto& [sa, sb] = GetParam();
  Tensor a = RandomTensor(sa, 7);
  Tensor b = RandomTensor(sb, 8);
  Tensor c = RandomTensor(sb, 9);
  // a * (b + c) == a*b + a*c
  EXPECT_TRUE(AllClose(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c)), 1e-4f,
                       1e-3f));
}

TEST_P(BroadcastPropertyTest, ReduceToShapeIsTheAdjointOfBroadcast) {
  // <broadcast(b), g> == <b, reduce(g)> for every g of the output shape —
  // exactly the identity autograd relies on.
  const auto& [sa, sb] = GetParam();
  Tensor b = RandomTensor(sb, 10);
  const auto out_shape = BroadcastShapes(sa, sb);
  Tensor g = RandomTensor(out_shape, 11);
  // broadcast(b) realised by adding a zero tensor of the output shape.
  Tensor broadcast_b = Add(b, Tensor::Zeros(out_shape));
  const float lhs = SumAll(Mul(broadcast_b, g));
  const float rhs = SumAll(Mul(b, ReduceToShape(g, sb)));
  EXPECT_NEAR(lhs, rhs, 1e-2f + 1e-4f * std::fabs(lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastPropertyTest,
    ::testing::Values(
        ShapePair{{4, 5}, {4, 5}},          // identical
        ShapePair{{4, 5}, {5}},             // suffix
        ShapePair{{4, 5}, {1}},             // scalar-ish
        ShapePair{{2, 3, 4}, {3, 4}},       // trailing matrix
        ShapePair{{2, 3, 4}, {3, 1}},       // inner broadcast
        ShapePair{{2, 1, 4}, {1, 3, 1}},    // two-sided broadcast
        ShapePair{{6}, {2, 3, 6}},          // left operand smaller
        ShapePair{{2, 3, 4, 5}, {4, 5}},    // rank-4
        ShapePair{{2, 3, 4, 1}, {4, 6}}));  // rank-4 inner expansion

class ReductionPropertyTest
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(ReductionPropertyTest, SumOverAllAxesMatchesSumAll) {
  Tensor a = RandomTensor(GetParam(), 12);
  Tensor reduced = a;
  while (reduced.dim() > 0) reduced = Sum(reduced, 0);
  EXPECT_NEAR(reduced[0], SumAll(a), 1e-3f + 1e-4f * std::fabs(SumAll(a)));
}

TEST_P(ReductionPropertyTest, MeanTimesCountEqualsSum) {
  Tensor a = RandomTensor(GetParam(), 13);
  for (int64_t axis = 0; axis < a.dim(); ++axis) {
    Tensor mean = Mean(a, axis);
    Tensor sum = Sum(a, axis);
    EXPECT_TRUE(AllClose(MulScalar(mean, a.shape(axis)), sum, 1e-4f, 1e-4f))
        << "axis " << axis;
  }
}

TEST_P(ReductionPropertyTest, MaxIsAnUpperBoundAttained) {
  Tensor a = RandomTensor(GetParam(), 14);
  for (int64_t axis = 0; axis < a.dim(); ++axis) {
    Tensor max = Max(a, axis, /*keepdims=*/true);
    // max broadcast back >= a everywhere.
    Tensor diff = Sub(Add(max, Tensor::Zeros(a.shape())), a);
    for (int64_t i = 0; i < diff.size(); ++i) EXPECT_GE(diff[i], 0.0f);
  }
}

TEST_P(ReductionPropertyTest, SoftmaxInvariantToConstantShift) {
  Tensor a = RandomTensor(GetParam(), 15);
  EXPECT_TRUE(AllClose(Softmax(a), Softmax(AddScalar(a, 7.5f)), 1e-5f, 1e-4f));
}

TEST_P(ReductionPropertyTest, SoftmaxSumsToOneAlongLastAxis) {
  Tensor a = RandomTensor(GetParam(), 16);
  Tensor sums = Sum(Softmax(a), -1);
  for (int64_t i = 0; i < sums.size(); ++i) {
    EXPECT_NEAR(sums[i], 1.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReductionPropertyTest,
                         ::testing::Values(std::vector<int64_t>{7},
                                           std::vector<int64_t>{3, 5},
                                           std::vector<int64_t>{2, 3, 4},
                                           std::vector<int64_t>{2, 1, 5},
                                           std::vector<int64_t>{2, 3, 2, 3}));

class MatMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(MatMulPropertyTest, TransposeOfProductIsReversedProduct) {
  const auto& [m, k, n] = GetParam();
  Tensor a = RandomTensor({m, k}, 17);
  Tensor b = RandomTensor({k, n}, 18);
  // (AB)^T == B^T A^T
  EXPECT_TRUE(AllClose(Transpose(MatMul(a, b)),
                       MatMul(Transpose(b), Transpose(a)), 1e-4f, 1e-3f));
}

TEST_P(MatMulPropertyTest, TransFlagsMatchExplicitTransposes) {
  const auto& [m, k, n] = GetParam();
  Tensor at = RandomTensor({k, m}, 19);
  Tensor bt = RandomTensor({n, k}, 20);
  EXPECT_TRUE(AllClose(MatMul(at, bt, true, true),
                       MatMul(Transpose(at), Transpose(bt)), 1e-4f, 1e-3f));
}

TEST_P(MatMulPropertyTest, IdentityIsNeutral) {
  const auto& [m, k, n] = GetParam();
  (void)n;
  Tensor a = RandomTensor({m, k}, 21);
  Tensor eye({k, k});
  for (int64_t i = 0; i < k; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a, 1e-5f, 1e-5f));
}

TEST_P(MatMulPropertyTest, LinearInFirstArgument) {
  const auto& [m, k, n] = GetParam();
  Tensor a1 = RandomTensor({m, k}, 22);
  Tensor a2 = RandomTensor({m, k}, 23);
  Tensor b = RandomTensor({k, n}, 24);
  EXPECT_TRUE(AllClose(MatMul(Add(a1, a2), b),
                       Add(MatMul(a1, b), MatMul(a2, b)), 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Dims, MatMulPropertyTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 16, 8),
                                           std::make_tuple(37, 24, 37)));

TEST(ConcatPropertyTest, ConcatThenSliceRecoversParts) {
  for (int64_t axis = 0; axis < 3; ++axis) {
    Tensor a = RandomTensor({3, 4, 5}, 25);
    Tensor b = RandomTensor({3, 4, 5}, 26);
    Tensor cat = Concat({a, b}, axis);
    EXPECT_TRUE(AllClose(Slice(cat, axis, 0, a.shape(axis)), a));
    EXPECT_TRUE(
        AllClose(Slice(cat, axis, a.shape(axis), b.shape(axis)), b));
  }
}

TEST(ClipPropertyTest, ClipIsIdempotent) {
  Tensor a = RandomTensor({100}, 27);
  Tensor once = Clip(a, -0.5f, 0.5f);
  EXPECT_TRUE(AllClose(Clip(once, -0.5f, 0.5f), once));
}

TEST(SigmoidPropertyTest, SymmetryAroundZero) {
  Tensor a = RandomTensor({200}, 28);
  Tensor s_pos = Sigmoid(a);
  Tensor s_neg = Sigmoid(Neg(a));
  // sigmoid(x) + sigmoid(-x) == 1
  Tensor sum = Add(s_pos, s_neg);
  for (int64_t i = 0; i < sum.size(); ++i) EXPECT_NEAR(sum[i], 1.0f, 1e-5f);
}

TEST(TanhPropertyTest, OddFunction) {
  Tensor a = RandomTensor({200}, 29);
  EXPECT_TRUE(AllClose(Tanh(Neg(a)), Neg(Tanh(a)), 1e-5f, 1e-5f));
}

TEST(ExpLogPropertyTest, LogOfExpIsIdentityInRange) {
  Rng rng(30);
  Tensor a = Tensor::Uniform({100}, -3.0f, 3.0f, &rng);
  EXPECT_TRUE(AllClose(Log(Exp(a)), a, 1e-4f, 1e-4f));
}

}  // namespace
}  // namespace elda
