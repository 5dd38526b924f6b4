#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Normal(std::move(shape), 0.0f, 1.0f, &rng);
}

// Reference matmul used to validate the optimised kernels.
Tensor NaiveMatMul2d(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<double>(a.at({i, p})) * b.at({p, j});
      }
      c.at({i, j}) = static_cast<float>(s);
    }
  }
  return c;
}

TEST(BroadcastTest, ShapesCombinePerNumpyRules) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {2, 3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 1, 4}, {3, 1}),
            (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(BroadcastShapes({}, {5}), (std::vector<int64_t>{5}));
}

TEST(BroadcastDeathTest, IncompatibleShapesAbort) {
  EXPECT_DEATH(BroadcastShapes({2, 3}, {4}), "CHECK failed");
}

TEST(ElementwiseTest, AddSameShape) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c[0], 11.0f);
  EXPECT_EQ(c[3], 44.0f);
}

TEST(ElementwiseTest, AddSuffixBroadcast) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromData({3}, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_EQ((c.at({0, 0})), 11.0f);
  EXPECT_EQ((c.at({1, 2})), 36.0f);
}

TEST(ElementwiseTest, GeneralBroadcastWithInnerOnes) {
  // [2,1,3] * [1,4,1] -> [2,4,3]
  Tensor a = Tensor::FromData({2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({1, 4, 1}, {1, 10, 100, 1000});
  Tensor c = Mul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{2, 4, 3}));
  EXPECT_EQ((c.at({0, 0, 0})), 1.0f);
  EXPECT_EQ((c.at({0, 1, 2})), 30.0f);
  EXPECT_EQ((c.at({1, 3, 0})), 4000.0f);
}

TEST(ElementwiseTest, ScalarTensorBroadcast) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor s = Tensor::Scalar(2.0f);
  Tensor c = Mul(a, s);
  EXPECT_EQ(c[2], 6.0f);
  Tensor d = Mul(s, a);  // broadcast on the left too
  EXPECT_EQ(d[1], 4.0f);
}

TEST(ElementwiseTest, SubDivMaximum) {
  Tensor a = Tensor::FromData({3}, {4, 9, -2});
  Tensor b = Tensor::FromData({3}, {2, 3, 5});
  EXPECT_EQ(Sub(a, b)[0], 2.0f);
  EXPECT_EQ(Div(a, b)[1], 3.0f);
  EXPECT_EQ(Maximum(a, b)[2], 5.0f);
}

TEST(ElementwiseTest, ScalarHelpers) {
  Tensor a = Tensor::FromData({2}, {1, -1});
  EXPECT_EQ(AddScalar(a, 5)[0], 6.0f);
  EXPECT_EQ(MulScalar(a, -2)[1], 2.0f);
}

TEST(UnaryTest, BasicFunctions) {
  Tensor a = Tensor::FromData({4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  EXPECT_EQ(Neg(a)[0], 1.0f);
  EXPECT_NEAR(Exp(a)[3], std::exp(2.0f), 1e-5);
  EXPECT_NEAR(Sqrt(Tensor::FromData({1}, {9.0f}))[0], 3.0f, 1e-6);
  EXPECT_EQ(Abs(a)[0], 1.0f);
  EXPECT_EQ(Square(a)[3], 4.0f);
  EXPECT_EQ(Relu(a)[0], 0.0f);
  EXPECT_EQ(Relu(a)[3], 2.0f);
  EXPECT_NEAR(Tanh(a)[2], std::tanh(1.0f), 1e-6);
  EXPECT_NEAR(Pow(a, 2.0f)[3], 4.0f, 1e-6);
}

TEST(UnaryTest, LogClampsAtTinyValues) {
  Tensor a = Tensor::FromData({2}, {0.0f, 1.0f});
  Tensor l = Log(a);
  EXPECT_TRUE(std::isfinite(l[0]));
  EXPECT_NEAR(l[1], 0.0f, 1e-6);
}

TEST(UnaryTest, SigmoidStableAtExtremes) {
  Tensor a = Tensor::FromData({3}, {-100.0f, 0.0f, 100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s[0], 0.0f, 1e-6);
  EXPECT_NEAR(s[1], 0.5f, 1e-6);
  EXPECT_NEAR(s[2], 1.0f, 1e-6);
}

TEST(UnaryTest, ClipBounds) {
  Tensor a = Tensor::FromData({3}, {-5.0f, 0.5f, 5.0f});
  Tensor c = Clip(a, -1.0f, 1.0f);
  EXPECT_EQ(c[0], -1.0f);
  EXPECT_EQ(c[1], 0.5f);
  EXPECT_EQ(c[2], 1.0f);
}

TEST(UnaryTest, SelectorOps) {
  Tensor a = Tensor::FromData({3}, {-1.0f, 0.0f, 2.0f});
  Tensor g = GreaterThanScalar(a, 0.0f);
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[2], 1.0f);
  Tensor e = EqualScalar(a, 0.0f);
  EXPECT_EQ(e[1], 1.0f);
  EXPECT_EQ(e[0], 0.0f);
}

TEST(UnaryTest, EqualScalarTolerance) {
  // The default tolerance (1e-6) absorbs rounding in computed values; an
  // explicit 0.0f restores exact comparison.
  Tensor a = Tensor::FromData({3}, {0.0f, 5e-7f, 1e-3f});
  Tensor e = EqualScalar(a, 0.0f);
  EXPECT_EQ(e[0], 1.0f);
  EXPECT_EQ(e[1], 1.0f);  // within default tolerance
  EXPECT_EQ(e[2], 0.0f);
  Tensor exact = EqualScalar(a, 0.0f, 0.0f);
  EXPECT_EQ(exact[0], 1.0f);
  EXPECT_EQ(exact[1], 0.0f);
}

TEST(MatMulTest, MatchesNaive2d) {
  Tensor a = RandomTensor({7, 5}, 1);
  Tensor b = RandomTensor({5, 9}, 2);
  EXPECT_TRUE(AllClose(MatMul(a, b), NaiveMatMul2d(a, b), 1e-4f, 1e-4f));
}

TEST(MatMulTest, TransAMatchesExplicitTranspose) {
  Tensor a = RandomTensor({5, 7}, 3);  // stored [K, M]
  Tensor b = RandomTensor({5, 9}, 4);
  Tensor expected = NaiveMatMul2d(Transpose(a), b);
  EXPECT_TRUE(AllClose(MatMul(a, b, true, false), expected, 1e-4f, 1e-4f));
}

TEST(MatMulTest, TransBMatchesExplicitTranspose) {
  Tensor a = RandomTensor({7, 5}, 5);
  Tensor b = RandomTensor({9, 5}, 6);  // stored [N, K]
  Tensor expected = NaiveMatMul2d(a, Transpose(b));
  EXPECT_TRUE(AllClose(MatMul(a, b, false, true), expected, 1e-4f, 1e-4f));
}

TEST(MatMulTest, BothTransposed) {
  Tensor a = RandomTensor({5, 7}, 7);
  Tensor b = RandomTensor({9, 5}, 8);
  Tensor expected = NaiveMatMul2d(Transpose(a), Transpose(b));
  EXPECT_TRUE(AllClose(MatMul(a, b, true, true), expected, 1e-4f, 1e-4f));
}

TEST(MatMulTest, Batched3dMatchesPerSlice) {
  Tensor a = RandomTensor({4, 3, 5}, 9);
  Tensor b = RandomTensor({4, 5, 2}, 10);
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{4, 3, 2}));
  for (int64_t i = 0; i < 4; ++i) {
    Tensor as = Slice(a, 0, i, 1).Reshape({3, 5});
    Tensor bs = Slice(b, 0, i, 1).Reshape({5, 2});
    Tensor cs = Slice(c, 0, i, 1).Reshape({3, 2});
    EXPECT_TRUE(AllClose(cs, NaiveMatMul2d(as, bs), 1e-4f, 1e-4f));
  }
}

TEST(MatMulTest, SharedRhs3dx2d) {
  Tensor a = RandomTensor({4, 3, 5}, 11);
  Tensor w = RandomTensor({5, 2}, 12);
  Tensor c = MatMul(a, w);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{4, 3, 2}));
  for (int64_t i = 0; i < 4; ++i) {
    Tensor as = Slice(a, 0, i, 1).Reshape({3, 5});
    Tensor cs = Slice(c, 0, i, 1).Reshape({3, 2});
    EXPECT_TRUE(AllClose(cs, NaiveMatMul2d(as, w), 1e-4f, 1e-4f));
  }
}

TEST(MatMulDeathTest, InnerDimMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_DEATH(MatMul(a, b), "CHECK failed");
}

TEST(TransposeTest, RoundTrips) {
  Tensor a = RandomTensor({3, 5}, 13);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
  Tensor b = RandomTensor({2, 3, 5}, 14);
  EXPECT_TRUE(AllClose(TransposeLast2(TransposeLast2(b)), b));
}

TEST(TransposeTest, MovesElements) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ((t.at({0, 1})), 4.0f);
  EXPECT_EQ((t.at({2, 0})), 3.0f);
}

TEST(ConcatSliceTest, ConcatAlongEachAxis) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {5, 6, 7, 8});
  Tensor c0 = Concat({a, b}, 0);
  ASSERT_EQ(c0.shape(), (std::vector<int64_t>{4, 2}));
  EXPECT_EQ((c0.at({2, 0})), 5.0f);
  Tensor c1 = Concat({a, b}, 1);
  ASSERT_EQ(c1.shape(), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ((c1.at({0, 2})), 5.0f);
  EXPECT_EQ((c1.at({1, 3})), 8.0f);
}

TEST(ConcatSliceTest, SliceConcatRoundTrip) {
  Tensor a = RandomTensor({3, 4, 5}, 15);
  for (int64_t axis = 0; axis < 3; ++axis) {
    Tensor left = Slice(a, axis, 0, 2);
    Tensor right = Slice(a, axis, 2, a.shape(axis) - 2);
    EXPECT_TRUE(AllClose(Concat({left, right}, axis), a));
  }
}

TEST(ConcatSliceTest, NegativeAxis) {
  Tensor a = RandomTensor({2, 3}, 16);
  Tensor s = Slice(a, -1, 1, 2);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ((s.at({0, 0})), (a.at({0, 1})));
}

TEST(ReduceTest, SumAlongEachAxis) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(a, 0);
  ASSERT_EQ(s0.shape(), (std::vector<int64_t>{3}));
  EXPECT_EQ(s0[0], 5.0f);
  EXPECT_EQ(s0[2], 9.0f);
  Tensor s1 = Sum(a, 1);
  ASSERT_EQ(s1.shape(), (std::vector<int64_t>{2}));
  EXPECT_EQ(s1[0], 6.0f);
  EXPECT_EQ(s1[1], 15.0f);
}

TEST(ReduceTest, KeepDimsPreservesRank) {
  Tensor a({2, 3, 4});
  Tensor s = Sum(a, 1, /*keepdims=*/true);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 1, 4}));
}

TEST(ReduceTest, MeanAndScalarReductions) {
  Tensor a = Tensor::FromData({4}, {1, 2, 3, 4});
  EXPECT_EQ(SumAll(a), 10.0f);
  EXPECT_EQ(MeanAll(a), 2.5f);
  EXPECT_EQ(MaxAll(a), 4.0f);
  Tensor m = Mean(Tensor::FromData({2, 2}, {1, 3, 5, 7}), 1);
  EXPECT_EQ(m[0], 2.0f);
  EXPECT_EQ(m[1], 6.0f);
}

TEST(ReduceTest, MaxAlongAxis) {
  Tensor a = Tensor::FromData({2, 3}, {1, 9, 3, 7, 2, 6});
  Tensor m = Max(a, 1);
  EXPECT_EQ(m[0], 9.0f);
  EXPECT_EQ(m[1], 7.0f);
  Tensor m0 = Max(a, 0);
  EXPECT_EQ(m0[0], 7.0f);
  EXPECT_EQ(m0[1], 9.0f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor a = RandomTensor({4, 7}, 17);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < 4; ++i) {
    float row_sum = 0.0f;
    for (int64_t j = 0; j < 7; ++j) row_sum += s.at({i, j});
    EXPECT_NEAR(row_sum, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor a = Tensor::FromData({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s[i], 1.0f / 3.0f, 1e-5);
}

TEST(SoftmaxTest, MaskedEntriesGetZeroWeight) {
  Tensor a = Tensor::FromData({1, 3}, {1.0f, -1e9f, 2.0f});
  Tensor s = Softmax(a);
  EXPECT_NEAR(s[1], 0.0f, 1e-7);
  EXPECT_NEAR(s[0] + s[2], 1.0f, 1e-5);
}

TEST(ReduceToShapeTest, SumsBroadcastDims) {
  Tensor g = Tensor::Ones({4, 3});
  Tensor r = ReduceToShape(g, {3});
  ASSERT_EQ(r.shape(), (std::vector<int64_t>{3}));
  EXPECT_EQ(r[0], 4.0f);
  Tensor r2 = ReduceToShape(Tensor::Ones({2, 3, 4}), {2, 1, 4});
  EXPECT_EQ(r2.shape(), (std::vector<int64_t>{2, 1, 4}));
  EXPECT_EQ(r2[0], 3.0f);
}

TEST(ReduceToShapeTest, IdentityWhenShapesMatch) {
  Tensor g = RandomTensor({2, 3}, 19);
  EXPECT_TRUE(AllClose(ReduceToShape(g, {2, 3}), g));
}

TEST(CompareTest, AllCloseAndMaxAbsDiff) {
  Tensor a = Tensor::FromData({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromData({2}, {1.0f, 2.00001f});
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::FromData({2}, {1.0f, 3.0f});
  EXPECT_FALSE(AllClose(a, c));
  EXPECT_NEAR(MaxAbsDiff(a, c), 1.0f, 1e-6);
  Tensor d({3});
  EXPECT_FALSE(AllClose(a, d));  // shape mismatch
}

}  // namespace
}  // namespace elda
