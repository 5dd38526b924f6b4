#include <cmath>
#include <tuple>
#include <functional>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "gtest/gtest.h"
#include "mem/pool.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace ag {
namespace {

Variable Param(std::vector<int64_t> shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Variable(Tensor::Normal(std::move(shape), 0.0f, scale, &rng),
                  /*requires_grad=*/true);
}

void ExpectGradCheck(const std::function<Variable()>& f,
                     const std::vector<Variable>& params) {
  std::string error;
  EXPECT_TRUE(CheckGradients(f, params, {}, &error)) << error;
}

TEST(VariableTest, LeafProperties) {
  Variable v(Tensor::FromData({2}, {1, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.value()[1], 2.0f);
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  Variable x(Tensor::FromData({3}, {1, 2, 3}), true);
  Variable y = SumAll(Mul(x, x));  // sum(x^2); dy/dx = 2x
  y.Backward();
  ASSERT_TRUE(x.has_grad());
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 4.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 6.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Variable x(Tensor::FromData({1}, {3}), true);
  Variable y = SumAll(Mul(x, x));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
  Variable y2 = SumAll(Mul(x, x));
  y2.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, SharedSubexpressionGetsSummedGradient) {
  Variable x(Tensor::FromData({1}, {2}), true);
  Variable y = Add(Mul(x, x), Mul(x, x));  // 2x^2, dy/dx = 4x = 8
  SumAll(y).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
}

TEST(VariableTest, DetachCutsTheGraph) {
  Variable x(Tensor::FromData({1}, {2}), true);
  Variable d = Mul(x, x).Detach();
  EXPECT_FALSE(d.requires_grad());
  Variable y = SumAll(Mul(d, x));  // only the direct x path contributes
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);  // d = 4 constant
}

TEST(VariableTest, ConstantsDoNotAccumulateGradients) {
  Variable x(Tensor::FromData({1}, {2}), true);
  Variable c = Constant(Tensor::FromData({1}, {5}));
  Variable y = SumAll(Mul(x, c));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(VariableTest, GraphPruningWithoutGradParents) {
  // An expression of constants produces a node with no backward work.
  Variable a = Constant(Tensor::FromData({2}, {1, 2}));
  Variable b = Constant(Tensor::FromData({2}, {3, 4}));
  Variable c = Mul(a, b);
  EXPECT_FALSE(c.requires_grad());
}

// Buffers (every pool tier) acquired by one Backward of `loss`.
int64_t BackwardAcquires(const Variable& loss) {
  auto total = [] {
    const mem::PoolStats s = mem::Pool::Global().Stats();
    return s.acquires + s.small_acquires + s.huge_acquires;
  };
  const int64_t before = total();
  loss.Backward();
  return total() - before;
}

TEST(VariableTest, ConstantOperandsGetNoGradientProducts) {
  // Backward forms no gradient product for an operand that takes no
  // gradient. Against a second parameter, the constant saves exactly that
  // parameter's product(s) and its gradient copy.
  using BinaryOp = Variable (*)(const Variable&, const Variable&);
  const struct {
    const char* name;
    BinaryOp op;
    bool constant_left;
    int64_t saved;
  } kCases[] = {
      {"Mul(a, c)", Mul, false, 2}, {"Mul(c, a)", Mul, true, 2},
      {"Sub(a, c)", Sub, false, 2},  // Neg(g)
      {"Div(a, c)", Div, false, 5},  // Neg(Div(Mul(g, a), Mul(c, c)))
      {"Div(c, a)", Div, true, 2},   // Div(g, a)
  };
  for (const auto& test : kCases) {
    SCOPED_TRACE(test.name);
    auto loss = [&](bool constant) {
      Variable a = Param({64, 64}, 1);
      Variable other = Param({64, 64}, 2, 0.5f);
      Variable c = constant ? other.Detach() : other;
      const Variable out = test.constant_left ? test.op(c, a) : test.op(a, c);
      const int64_t acquires = BackwardAcquires(SumAll(out));
      EXPECT_TRUE(a.has_grad());
      EXPECT_EQ(c.has_grad(), !constant);
      return acquires;
    };
    const int64_t both = loss(false);
    EXPECT_EQ(both - loss(true), test.saved);
  }
}

TEST(VariableDeathTest, BackwardRequiresScalar) {
  Variable x(Tensor::FromData({2}, {1, 2}), true);
  Variable y = Mul(x, x);
  EXPECT_DEATH(y.Backward(), "scalar");
}

// ---- Per-op grad checks -----------------------------------------------------

TEST(GradCheckTest, Add) {
  Variable a = Param({3, 4}, 1);
  Variable b = Param({3, 4}, 2);
  ExpectGradCheck([&] { return SumAll(Add(a, b)); }, {a, b});
}

TEST(GradCheckTest, AddBroadcast) {
  Variable a = Param({3, 4}, 3);
  Variable b = Param({4}, 4);
  ExpectGradCheck([&] { return SumAll(Square(Add(a, b))); }, {a, b});
}

TEST(GradCheckTest, SubMulDiv) {
  Variable a = Param({2, 3}, 5);
  Variable b = Param({2, 3}, 6);
  ExpectGradCheck(
      [&] {
        // Keep the divisor away from zero. The expression must be rebuilt on
        // every call so the finite differences see the perturbed values.
        Variable safe_b = AddScalar(Mul(b, b), 1.0f);
        return SumAll(Div(Sub(a, b), safe_b));
      },
      {a, b});
}

TEST(GradCheckTest, MulBroadcastBothWays) {
  Variable a = Param({2, 1, 3}, 7);
  Variable b = Param({4, 1}, 8);
  ExpectGradCheck([&] { return SumAll(Mul(a, b)); }, {a, b});
}

TEST(GradCheckTest, ScalarOps) {
  Variable a = Param({5}, 9);
  ExpectGradCheck([&] { return SumAll(AddScalar(MulScalar(a, 3.0f), 1.0f)); },
                  {a});
}

TEST(GradCheckTest, UnaryChain) {
  Variable a = Param({4}, 10, 0.5f);
  ExpectGradCheck([&] { return SumAll(Tanh(Sigmoid(a))); }, {a});
}

TEST(GradCheckTest, ExpLogSquareSqrt) {
  Variable a = Param({4}, 11, 0.5f);
  ExpectGradCheck(
      [&] { return SumAll(Log(AddScalar(Square(a), 1.0f))); }, {a});
  ExpectGradCheck(
      [&] { return SumAll(Sqrt(AddScalar(Square(a), 1.0f))); }, {a});
  ExpectGradCheck([&] { return SumAll(Exp(MulScalar(a, 0.5f))); }, {a});
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Values are pushed away from 0 so the finite difference is valid.
  Variable a(Tensor::FromData({4}, {-2.0f, -1.0f, 1.0f, 2.0f}), true);
  ExpectGradCheck([&] { return SumAll(Relu(a)); }, {a});
}

TEST(GradCheckTest, AbsAwayFromKink) {
  Variable a(Tensor::FromData({4}, {-2.0f, -0.8f, 0.7f, 1.5f}), true);
  ExpectGradCheck([&] { return SumAll(Abs(a)); }, {a});
}

TEST(GradCheckTest, ClipStrictlyInsideAndOutside) {
  // Values chosen so no element sits within epsilon of the clip bounds.
  Variable a(Tensor::FromData({4}, {-3.0f, -0.4f, 0.4f, 3.0f}), true);
  ExpectGradCheck([&] { return SumAll(Square(Clip(a, -1.0f, 1.0f))); }, {a});
}

TEST(GradCheckTest, PowOnPositiveInputs) {
  Variable a(Tensor::FromData({3}, {0.5f, 1.2f, 2.5f}), true);
  ExpectGradCheck([&] { return SumAll(Pow(a, 1.7f)); }, {a});
  ExpectGradCheck([&] { return SumAll(Pow(a, -0.5f)); }, {a});
}

TEST(OpValueTest, ClipSaturatedRegionsHaveZeroGradient) {
  Variable a(Tensor::FromData({3}, {-5.0f, 0.0f, 5.0f}), true);
  SumAll(Clip(a, -1.0f, 1.0f)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 0.0f);
}

TEST(GradCheckTest, MatMul2d) {
  Variable a = Param({3, 4}, 12, 0.5f);
  Variable b = Param({4, 2}, 13, 0.5f);
  ExpectGradCheck([&] { return SumAll(Square(MatMul(a, b))); }, {a, b});
}

TEST(GradCheckTest, MatMulBatched) {
  Variable a = Param({2, 3, 4}, 14, 0.5f);
  Variable b = Param({2, 4, 2}, 15, 0.5f);
  ExpectGradCheck([&] { return SumAll(Square(MatMul(a, b))); }, {a, b});
}

TEST(GradCheckTest, MatMulSharedRhs) {
  Variable a = Param({2, 3, 4}, 16, 0.5f);
  Variable w = Param({4, 2}, 17, 0.5f);
  ExpectGradCheck([&] { return SumAll(Square(MatMul(a, w))); }, {a, w});
}

TEST(GradCheckTest, ReshapeTranspose) {
  Variable a = Param({2, 6}, 18);
  ExpectGradCheck(
      [&] {
        Variable r = Reshape(a, {2, 3, 2});
        return SumAll(Square(TransposeLast2(r)));
      },
      {a});
}

TEST(GradCheckTest, ConcatAndSlice) {
  Variable a = Param({2, 3}, 19);
  Variable b = Param({2, 2}, 20);
  ExpectGradCheck(
      [&] {
        Variable c = Concat({a, b}, 1);
        return SumAll(Square(Slice(c, 1, 1, 3)));
      },
      {a, b});
}

TEST(GradCheckTest, GatherRowsWithRepeatedIndices) {
  Variable a = Param({5, 3, 2}, 40);
  // Row 4 is gathered three times, row 3 never.
  const std::vector<int64_t> index = {4, 0, 4, 2, 4, 1};
  ExpectGradCheck([&] { return SumAll(Square(GatherRows(a, index))); }, {a});
  Variable g = GatherRows(a, index);
  ASSERT_EQ(g.value().shape(), (std::vector<int64_t>{6, 3, 2}));
  for (size_t i = 0; i < index.size(); ++i) {
    for (int64_t k = 0; k < 6; ++k) {
      EXPECT_EQ(g.value()[static_cast<int64_t>(i) * 6 + k],
                a.value()[index[i] * 6 + k]);
    }
  }
  a.ZeroGrad();
  SumAll(g).Backward();
  const float want[] = {1, 1, 1, 0, 3};  // gathers per source row
  for (int64_t row = 0; row < 5; ++row) {
    for (int64_t k = 0; k < 6; ++k) {
      EXPECT_EQ(a.grad()[row * 6 + k], want[row]) << "row " << row;
    }
  }
}

TEST(GradCheckTest, SumMeanAxes) {
  Variable a = Param({3, 4, 2}, 21);
  ExpectGradCheck([&] { return SumAll(Square(Sum(a, 1))); }, {a});
  ExpectGradCheck([&] { return SumAll(Square(Mean(a, 0, true))); }, {a});
  ExpectGradCheck([&] { return MeanAll(Square(a)); }, {a});
}

TEST(GradCheckTest, SoftmaxAxis) {
  Variable a = Param({3, 5}, 22);
  Variable w = Constant(Tensor::FromData({5}, {1, -1, 2, 0.5, -0.5}));
  ExpectGradCheck([&] { return SumAll(Square(Mul(Softmax(a), w))); }, {a});
}

TEST(GradCheckTest, MaskedSoftmax) {
  Variable a = Param({2, 4}, 24);
  Tensor mask({2, 4});
  mask.at({0, 1}) = -1e9f;
  mask.at({1, 3}) = -1e9f;
  Variable m = Constant(mask);
  ExpectGradCheck([&] { return SumAll(Square(Softmax(Add(a, m)))); }, {a});
}

TEST(GradCheckTest, BceWithLogits) {
  Variable z = Param({6}, 25);
  Tensor y = Tensor::FromData({6}, {1, 0, 1, 1, 0, 0});
  ExpectGradCheck([&] { return BceWithLogits(z, y); }, {z});
}

// ---- Value checks ------------------------------------------------------------

TEST(OpValueTest, BceMatchesManualComputation) {
  Variable z(Tensor::FromData({2}, {0.0f, 2.0f}), true);
  Tensor y = Tensor::FromData({2}, {1.0f, 0.0f});
  const float expected =
      0.5f * (-std::log(0.5f) - std::log(1.0f - 1.0f / (1.0f + std::exp(-2.0f))));
  EXPECT_NEAR(BceWithLogits(z, y).value()[0], expected, 1e-5);
}

TEST(OpValueTest, BceStableAtExtremeLogits) {
  Variable z(Tensor::FromData({2}, {50.0f, -50.0f}), true);
  Tensor y = Tensor::FromData({2}, {1.0f, 0.0f});
  Variable loss = BceWithLogits(z, y);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-5);
  loss.Backward();
  EXPECT_TRUE(std::isfinite(z.grad()[0]));
}

TEST(OpValueTest, DropoutEvalModeIsIdentity) {
  Rng rng(1);
  Variable a = Param({100}, 26);
  Variable d = Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(AllClose(d.value(), a.value()));
}

TEST(OpValueTest, DropoutTrainingScalesKeptUnits) {
  Rng rng(2);
  Variable a(Tensor::Ones({10000}), true);
  Variable d = Dropout(a, 0.25f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < d.value().size(); ++i) {
    const float v = d.value()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
  // The expected value is preserved.
  EXPECT_NEAR(MeanAll(d.value()), 1.0f, 0.03f);
}

TEST(OpValueTest, DropoutBackwardUsesSameMask) {
  Rng rng(3);
  Variable a(Tensor::Ones({1000}), true);
  Variable d = Dropout(a, 0.5f, /*training=*/true, &rng);
  SumAll(d).Backward();
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_FLOAT_EQ(a.grad()[i], d.value()[i]);
  }
}

TEST(OpValueTest, MeanAllOfConstant) {
  Variable a = Constant(Tensor::Full({4}, 3.0f));
  EXPECT_FLOAT_EQ(MeanAll(a).value()[0], 3.0f);
}

// Parameterised sweep: gradients of broadcast Mul/Add/Div must be correct
// for every supported shape pairing (this drives both the suffix fast path
// and the general odometer path, forward and backward).
using ShapePair = std::tuple<std::vector<int64_t>, std::vector<int64_t>>;

class BroadcastGradTest : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastGradTest, MulGradientsAcrossBroadcastShapes) {
  const auto& [sa, sb] = GetParam();
  Variable a = Param(sa, 101);
  Variable b = Param(sb, 102);
  ExpectGradCheck([&] { return SumAll(Square(Mul(a, b))); }, {a, b});
}

TEST_P(BroadcastGradTest, AddGradientsAcrossBroadcastShapes) {
  const auto& [sa, sb] = GetParam();
  Variable a = Param(sa, 103);
  Variable b = Param(sb, 104);
  ExpectGradCheck([&] { return SumAll(Square(Add(a, b))); }, {a, b});
}

TEST_P(BroadcastGradTest, DivGradientsAcrossBroadcastShapes) {
  const auto& [sa, sb] = GetParam();
  Variable a = Param(sa, 105);
  Variable b = Param(sb, 106);
  ExpectGradCheck(
      [&] {
        // Keep the divisor bounded away from zero.
        Variable safe = AddScalar(Square(b), 0.5f);
        return SumAll(Div(a, safe));
      },
      {a, b});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastGradTest,
    ::testing::Values(ShapePair{{4, 5}, {4, 5}},
                      ShapePair{{4, 5}, {5}},
                      ShapePair{{4, 5}, {1}},
                      ShapePair{{2, 3, 4}, {3, 1}},
                      ShapePair{{2, 1, 4}, {1, 3, 1}},
                      ShapePair{{6}, {2, 3, 6}},
                      ShapePair{{2, 3, 4, 1}, {4, 6}}));

TEST(GradCheckHarnessTest, DetectsWrongGradients) {
  // A deliberately wrong "gradient" is built by detaching a subexpression:
  // f = sum(x * detach(x)) has analytic grad = detach(x) (treating the second
  // factor as constant), while the true derivative of the evaluated function
  // is 2x. The checker must flag the mismatch.
  Variable x(Tensor::FromData({3}, {1.0f, 2.0f, 3.0f}), true);
  std::string error;
  const bool ok = CheckGradients(
      [&] { return SumAll(Mul(x, x.Detach())); }, {x}, {}, &error);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(error.empty());
}

TEST(GradCheckHarnessTest, RejectsNanAnalyticGradient) {
  // Row 1 of `m` is NaN and its product row is sliced away, so f is finite
  // with derivative 1 per element of x; but the MatMul adjoint multiplies
  // the NaN row by its zero gradient, making the analytic gradient NaN.
  Variable x(Tensor::FromData({1, 2}, {0.5f, -1.0f}), true);
  const Variable m = Constant(
      Tensor::FromData({2, 1}, {1.0f, std::nanf("")}));
  std::string error;
  const bool ok = CheckGradients(
      [&] { return SumAll(Slice(MatMul(m, x), 0, 0, 1)); }, {x}, {}, &error);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ag
}  // namespace elda
