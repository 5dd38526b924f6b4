// Tests for the SIMD transcendental contract (tensor/simd_math.h) and the
// fused elementwise autograd ops built on it.
//
// Three layers of guarantees are pinned here:
//   1. Accuracy: the polynomial kernels stay within the documented ULP
//      budget of correctly-rounded double-precision libm (<= 4 ulp for
//      exp/sigmoid, <= 8 ulp for tanh), including denormals and the
//      saturation boundaries, and special values behave as documented.
//   2. Bitwise identity: the AVX2 path equals the scalar reference bit for
//      bit on every input class (specials, denormals, +/-0, every tail
//      remainder and alignment), and tensor-level results are bitwise
//      stable across thread counts.
//   3. Fusion: each fused op equals its composed chain bitwise in the
//      forward pass, grad-checks numerically, and costs exactly one tape
//      node where the composed chain costs several.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "gtest/gtest.h"
#include "par/par.h"
#include "tensor/simd_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenormal = 1e-42f;

// Maps float bits to a number line where adjacent representable floats
// differ by 1 (sign-magnitude -> lexicographic order).
int64_t OrderedBits(float f) {
  int32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits >= 0 ? static_cast<int64_t>(bits)
                   : INT64_C(0x80000000) - static_cast<int64_t>(bits);
}

// ULP distance between `actual` and the float nearest to `expected`.
int64_t UlpFromDouble(float actual, double expected) {
  const float rounded = static_cast<float>(expected);
  if (std::isnan(actual) || std::isnan(rounded)) {
    return std::isnan(actual) == std::isnan(rounded)
               ? 0
               : std::numeric_limits<int64_t>::max();
  }
  if (std::isinf(actual) || std::isinf(rounded)) {
    return actual == rounded ? 0 : std::numeric_limits<int64_t>::max();
  }
  return std::abs(OrderedBits(actual) - OrderedBits(rounded));
}

bool BitsEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Restores Available()-and-env dispatch even if an assertion fires.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool force) { simd::ForceScalar(force); }
  ~ScopedForceScalar() { simd::ForceScalar(false); }
};

// A buffer exercising every input class the kernels distinguish: specials,
// signed zeros, denormals, saturation boundaries, and a dense pseudo-random
// spread of ordinary magnitudes.
std::vector<float> VariedInputs(int64_t n, uint64_t seed) {
  static const float specials[] = {
      0.0f,     -0.0f,    kInf,          -kInf,          kNan,
      kDenormal, -kDenormal, 88.5f,      -88.5f,         simd::kExpHi,
      simd::kExpLo, simd::kTanhClamp, -simd::kTanhClamp, 1e30f, -1e30f};
  std::vector<float> out(n);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (int64_t i = 0; i < n; ++i) {
    if (i < static_cast<int64_t>(sizeof(specials) / sizeof(specials[0]))) {
      out[i] = specials[i];
      continue;
    }
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const float u = static_cast<float>((state >> 40) & 0xFFFFFF) /
                    static_cast<float>(0xFFFFFF);
    out[i] = (u - 0.5f) * 30.0f;  // [-15, 15]
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. Accuracy versus double libm.
// ---------------------------------------------------------------------------

TEST(SimdAccuracyTest, ExpWithinUlpBudget) {
  // Dense sweep across the whole non-saturating domain.
  int64_t worst = 0;
  for (double x = -87.0; x <= 88.37; x += 0.003) {
    const float xf = static_cast<float>(x);
    const int64_t ulp = UlpFromDouble(simd::ExpRef(xf), std::exp(double{xf}));
    worst = std::max(worst, ulp);
    ASSERT_LE(ulp, 4) << "exp(" << xf << ")";
  }
  // Small-argument region where exp ~ 1 (gradient-critical).
  for (double x = -1.0; x <= 1.0; x += 1e-4) {
    const float xf = static_cast<float>(x);
    ASSERT_LE(UlpFromDouble(simd::ExpRef(xf), std::exp(double{xf})), 4);
  }
  // Denormal inputs: exp(tiny) == 1 + tiny ~ 1.
  EXPECT_LE(UlpFromDouble(simd::ExpRef(kDenormal), std::exp(double{kDenormal})),
            4);
  EXPECT_LE(
      UlpFromDouble(simd::ExpRef(-kDenormal), std::exp(double{-kDenormal})),
      4);
  SCOPED_TRACE("worst exp ulp: " + std::to_string(worst));
}

TEST(SimdAccuracyTest, ExpSpecialValues) {
  EXPECT_EQ(simd::ExpRef(kInf), kInf);
  EXPECT_EQ(simd::ExpRef(200.0f), kInf);  // above kExpHi saturates
  EXPECT_EQ(simd::ExpRef(-kInf), 0.0f);
  EXPECT_EQ(simd::ExpRef(-200.0f), 0.0f);  // below kExpLo flushes to +0
  EXPECT_FALSE(std::signbit(simd::ExpRef(-200.0f)));
  EXPECT_EQ(simd::ExpRef(0.0f), 1.0f);
  EXPECT_EQ(simd::ExpRef(-0.0f), 1.0f);
  EXPECT_TRUE(std::isnan(simd::ExpRef(kNan)));
  // No denormal outputs anywhere in the domain.
  for (double x = -89.0; x <= 0.0; x += 0.01) {
    const float y = simd::ExpRef(static_cast<float>(x));
    EXPECT_TRUE(y == 0.0f || std::isnormal(y)) << "exp(" << x << ") = " << y;
  }
}

TEST(SimdAccuracyTest, SigmoidWithinUlpBudget) {
  for (double x = -87.0; x <= 87.0; x += 0.003) {
    const float xf = static_cast<float>(x);
    const double expected = 1.0 / (1.0 + std::exp(-double{xf}));
    ASSERT_LE(UlpFromDouble(simd::SigmoidRef(xf), expected), 4)
        << "sigmoid(" << xf << ")";
  }
}

TEST(SimdAccuracyTest, SigmoidSpecialValues) {
  EXPECT_EQ(simd::SigmoidRef(kInf), 1.0f);
  EXPECT_EQ(simd::SigmoidRef(-kInf), 0.0f);
  EXPECT_EQ(simd::SigmoidRef(200.0f), 1.0f);
  EXPECT_EQ(simd::SigmoidRef(-200.0f), 0.0f);
  EXPECT_EQ(simd::SigmoidRef(0.0f), 0.5f);
  EXPECT_EQ(simd::SigmoidRef(-0.0f), 0.5f);
  EXPECT_TRUE(std::isnan(simd::SigmoidRef(kNan)));
  EXPECT_LE(UlpFromDouble(simd::SigmoidRef(kDenormal), 0.5), 4);
}

TEST(SimdAccuracyTest, TanhWithinUlpBudget) {
  // The clamp at +/-kTanhClamp saturates to ~ +/-(1 - 2.7e-7); true tanh
  // beyond the clamp is within ~5 ulp of that, inside the 8-ulp budget.
  for (double x = -12.0; x <= 12.0; x += 0.003) {
    const float xf = static_cast<float>(x);
    ASSERT_LE(UlpFromDouble(simd::TanhRef(xf), std::tanh(double{xf})), 8)
        << "tanh(" << xf << ")";
  }
  // Denormal inputs are outside the ULP budget: the numerator x*P(x^2)
  // underflows and loses precision before the divide rescales it. The
  // guarantee there is sign-correct, magnitude-bounded, and within the
  // denormalization error of x itself (~20% relative at 1e-42).
  const float td = simd::TanhRef(kDenormal);
  EXPECT_GT(td, 0.0f);
  EXPECT_LE(td, kDenormal);
  EXPECT_NEAR(td, kDenormal, 0.25f * kDenormal);
  EXPECT_EQ(simd::TanhRef(-kDenormal), -td);
}

TEST(SimdAccuracyTest, TanhSpecialValues) {
  EXPECT_TRUE(std::isnan(simd::TanhRef(kNan)));
  EXPECT_EQ(simd::TanhRef(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(simd::TanhRef(0.0f)));
  EXPECT_EQ(simd::TanhRef(-0.0f), -0.0f);
  EXPECT_TRUE(std::signbit(simd::TanhRef(-0.0f)));
  EXPECT_NEAR(simd::TanhRef(kInf), 1.0f, 1e-6f);
  EXPECT_NEAR(simd::TanhRef(-kInf), -1.0f, 1e-6f);
  EXPECT_LE(std::fabs(simd::TanhRef(1e30f)), 1.0f);
}

// ---------------------------------------------------------------------------
// 2. Bitwise identity: AVX2 vs scalar reference, tails, thread counts.
// ---------------------------------------------------------------------------

using UnaryArrayFn = void (*)(const float*, float*, int64_t);

void ExpectUnaryBitwiseParity(UnaryArrayFn fn, const char* name) {
  // Every length 0..33 covers every 8-lane tail remainder with and without
  // full chunks; the +1 offset exercises unaligned loads.
  for (int64_t n = 0; n <= 33; ++n) {
    for (int64_t offset = 0; offset <= 1; ++offset) {
      std::vector<float> x = VariedInputs(n + offset + 7, 17 * n + offset);
      std::vector<float> y_vec(n + 1, -1.0f), y_ref(n + 1, -1.0f);
      {
        ScopedForceScalar scalar(false);
        fn(x.data() + offset, y_vec.data(), n);
      }
      {
        ScopedForceScalar scalar(true);
        fn(x.data() + offset, y_ref.data(), n);
      }
      ASSERT_EQ(std::memcmp(y_vec.data(), y_ref.data(), n * sizeof(float)), 0)
          << name << " n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdBitwiseTest, UnaryKernelsMatchScalarReference) {
  ExpectUnaryBitwiseParity(simd::ExpArray, "ExpArray");
  ExpectUnaryBitwiseParity(simd::SigmoidArray, "SigmoidArray");
  ExpectUnaryBitwiseParity(simd::TanhArray, "TanhArray");
  ExpectUnaryBitwiseParity(simd::ExpNegReluArray, "ExpNegReluArray");
}

TEST(SimdBitwiseTest, FusedBinaryKernelsMatchScalarReference) {
  using BinaryArrayFn = void (*)(const float*, const float*, float*, int64_t);
  const struct {
    BinaryArrayFn fn;
    const char* name;
  } kernels[] = {{simd::AddSigmoidArray, "AddSigmoidArray"},
                 {simd::AddTanhArray, "AddTanhArray"},
                 {simd::SigmoidGradArray, "SigmoidGradArray"},
                 {simd::TanhGradArray, "TanhGradArray"}};
  for (const auto& k : kernels) {
    for (int64_t n = 0; n <= 33; ++n) {
      std::vector<float> a = VariedInputs(n, 3 * n + 1);
      std::vector<float> b = VariedInputs(n, 5 * n + 2);
      // Grad kernels read b as a forward value; keep it in (0, 1).
      if (k.fn == simd::SigmoidGradArray || k.fn == simd::TanhGradArray) {
        for (float& v : b) v = std::isfinite(v) ? 0.5f + 0.4f * std::sin(v) : v;
      }
      std::vector<float> y_vec(n + 1), y_ref(n + 1);
      {
        ScopedForceScalar scalar(false);
        k.fn(a.data(), b.data(), y_vec.data(), n);
      }
      {
        ScopedForceScalar scalar(true);
        k.fn(a.data(), b.data(), y_ref.data(), n);
      }
      ASSERT_EQ(std::memcmp(y_vec.data(), y_ref.data(), n * sizeof(float)), 0)
          << k.name << " n=" << n;
    }
  }
}

TEST(SimdBitwiseTest, ExpNegReluGradMatchesScalarReference) {
  for (int64_t n = 0; n <= 33; ++n) {
    std::vector<float> g = VariedInputs(n, 7 * n + 1);
    std::vector<float> x = VariedInputs(n, 11 * n + 2);
    std::vector<float> y(n);
    simd::ExpNegReluArray(x.data(), y.data(), n);
    std::vector<float> dx_vec(n + 1), dx_ref(n + 1);
    {
      ScopedForceScalar scalar(false);
      simd::ExpNegReluGradArray(g.data(), y.data(), x.data(), dx_vec.data(), n);
    }
    {
      ScopedForceScalar scalar(true);
      simd::ExpNegReluGradArray(g.data(), y.data(), x.data(), dx_ref.data(), n);
    }
    for (int64_t i = 0; i < n; ++i) {
      uint32_t bv, br;
      std::memcpy(&bv, &dx_vec[i], sizeof(bv));
      std::memcpy(&br, &dx_ref[i], sizeof(br));
      if (std::isnan(dx_vec[i]) && std::isnan(dx_ref[i])) {
        // Documented exception (simd_math.h): the sign bit of a NaN
        // gradient is unspecifiable in portable scalar C; payload and
        // NaN-ness must still agree.
        ASSERT_EQ(bv & 0x7FFFFFFFu, br & 0x7FFFFFFFu) << "n=" << n << " i=" << i;
      } else {
        ASSERT_EQ(bv, br) << "n=" << n << " i=" << i;
      }
    }
  }
}

// Rows of n elements at stride ld exercising what the row kernels must
// carry through unchanged: finite spreads, NaN (with a +inf beside it from
// n = 10, so the row holds NaNs of both signs), +inf, -inf with -0, an all
// -inf row, signed zeros and saturating magnitudes. Lanes between n and ld
// hold a sentinel.
std::vector<float> SpecialRows(int64_t rows, int64_t n, int64_t ld,
                               uint64_t seed) {
  constexpr float kSentinel = 12345.0f;
  std::vector<float> out(rows * ld, kSentinel);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<float> v = VariedInputs(n + 16, seed + 31 * r);
    float* row = out.data() + r * ld;
    for (int64_t j = 0; j < n; ++j) {
      float x = v[j + 16];  // past VariedInputs' leading specials
      switch (r % 7) {
        case 1:
          if (j == (3 * r) % n) x = kNan;
          if (j == (3 * r + 9) % n) x = kInf;
          break;
        case 2:
          if (j == (5 * r) % n) x = kInf;
          break;
        case 3:
          x = j % 2 == 0 ? -kInf : (j % 4 == 1 ? -0.0f : x);
          break;
        case 4:
          x = -kInf;
          break;
        case 5:
          x = j % 2 == 0 ? -0.0f : 0.0f;
          break;
        case 6:
          x = x > 0 ? 80.0f : -80.0f;
          break;
        default:
          break;
      }
      row[j] = x;
    }
  }
  return out;
}

// Bitwise equality, except that two NaNs may differ in their sign bit (the
// documented exception of simd_math.h's softmax rows kernels).
::testing::AssertionResult SameBitsUpToNanSign(const std::vector<float>& got,
                                               const std::vector<float>& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t bg, bw;
    std::memcpy(&bg, &got[i], sizeof(bg));
    std::memcpy(&bw, &want[i], sizeof(bw));
    if (std::isnan(got[i]) && std::isnan(want[i])) {
      bg &= 0x7FFFFFFFu;
      bw &= 0x7FFFFFFFu;
    }
    if (bg != bw) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The rows kernels and the ops over them against SoftmaxRow /
// SoftmaxGradRow, the scalar reference, row by row: bitwise up to a NaN's
// sign bit, under each dispatch (with SIMD on the kernels run their
// four-row blocks and one left-over block; with it off the reference
// itself).
TEST(SimdBitwiseTest, SoftmaxRowMatchesScalarReference) {
  const auto to_vector = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.size());
  };
  for (int64_t n = 1; n <= 49; ++n) {
    std::vector<float> x = VariedInputs(n, 13 * n);
    // Keep this row finite so its sum is meaningful; keep +/-0, denormals
    // and large magnitudes.
    for (float& v : x) {
      if (std::isnan(v)) v = 0.25f;
      if (std::isinf(v)) v = v > 0 ? 30.0f : -30.0f;
      if (std::fabs(v) > 1e4f) v = v > 0 ? 80.0f : -80.0f;
    }
    // The reference sums to ~1, and in place matches out of place.
    std::vector<float> y(n);
    simd::SoftmaxRow(x.data(), y.data(), n);
    float sum = 0.0f;
    for (int64_t i = 0; i < n; ++i) sum += y[i];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    std::vector<float> inplace = x;
    simd::SoftmaxRow(inplace.data(), inplace.data(), n);
    ASSERT_EQ(std::memcmp(inplace.data(), y.data(), n * sizeof(float)), 0);
    // On this finite row (denormals and +/-0 included) the rows kernels are
    // bitwise the reference.
    std::vector<float> g = VariedInputs(n, 19 * n + 3);
    for (float& v : g) {
      if (!std::isfinite(v)) v = 0.5f;
      if (std::fabs(v) > 1e4f) v = 2.0f;
    }
    std::vector<float> y_rows(n), dx(n), dx_rows(n);
    simd::SoftmaxRows(x.data(), y_rows.data(), 1, n);
    ASSERT_EQ(std::memcmp(y_rows.data(), y.data(), n * sizeof(float)), 0)
        << "SoftmaxRows n=" << n;
    simd::SoftmaxGradRow(g.data(), y.data(), dx.data(), n);
    simd::SoftmaxGradRows(g.data(), y.data(), n, dx_rows.data(), n, 1, n);
    ASSERT_EQ(std::memcmp(dx_rows.data(), dx.data(), n * sizeof(float)), 0)
        << "SoftmaxGradRows n=" << n;

    // BiasedSoftmaxRows against the scalar adds then SoftmaxRow per row,
    // SoftmaxGradRows against SoftmaxGradRow. Nine rows at strides past n,
    // with the masked column on the first row's diagonal, two columns left
    // of it, and outside every row.
    constexpr int64_t kRows = 9;
    const int64_t ld = n + 3, ldx = n + 1;
    const float bias[kRows] = {0.5f, -0.0f, 0.0f, 3.0f, -2.25f,
                               1e-3f, -80.0f, 7.0f, -0.5f};
    for (const bool scalar : {false, true}) {
      ScopedForceScalar force(scalar);
      for (const int64_t diag : {int64_t{0}, int64_t{-2}, n}) {
        const std::vector<float> in = SpecialRows(kRows, n, ld, 7 * n);
        std::vector<float> got = in, want = in;
        simd::BiasedSoftmaxRows(got.data(), ld, kRows, n, bias, diag, -1e9f);
        for (int64_t r = 0; r < kRows; ++r) {
          float* row = want.data() + r * ld;
          const int64_t col = r + diag;
          const float masked =
              col >= 0 && col < n ? (row[col] + bias[r]) + -1e9f : 0.0f;
          for (int64_t j = 0; j < n; ++j) row[j] = (row[j] + bias[r]) + 0.0f;
          if (col >= 0 && col < n) row[col] = masked;
          simd::SoftmaxRow(row, row, n);
        }
        ASSERT_TRUE(SameBitsUpToNanSign(got, want))
            << "BiasedSoftmaxRows n=" << n << " diag=" << diag
            << (scalar ? " scalar" : " simd");
      }
      const std::vector<float> gin = SpecialRows(kRows, n, ld, 11 * n + 1);
      const std::vector<float> yin = SpecialRows(kRows, n, ld, 13 * n + 2);
      std::vector<float> got(kRows * ldx, -7.0f), want(kRows * ldx, -7.0f);
      simd::SoftmaxGradRows(gin.data(), yin.data(), ld, got.data(), ldx,
                            kRows, n);
      for (int64_t r = 0; r < kRows; ++r) {
        simd::SoftmaxGradRow(gin.data() + r * ld, yin.data() + r * ld,
                             want.data() + r * ldx, n);
      }
      ASSERT_TRUE(SameBitsUpToNanSign(got, want))
          << "SoftmaxGradRows n=" << n << (scalar ? " scalar" : " simd");
    }

    // The Softmax op and SoftmaxLastAxisGrad: rows 1..9 cover every
    // left-over block after whole four-row blocks, and 3001 rows split
    // into several chunks across threads; at 1, 2 and 4 threads.
    std::vector<int64_t> row_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    if (n == 19 || n == 37) row_counts.push_back(3001);
    for (const int64_t rows : row_counts) {
      const std::vector<float> xin = SpecialRows(rows, n, n, 17 * n + rows);
      const std::vector<float> gin = SpecialRows(rows, n, n, 19 * n + rows);
      const std::vector<float> yin = SpecialRows(rows, n, n, 23 * n + rows);
      std::vector<float> want_y(rows * n), want_dx(rows * n);
      for (int64_t r = 0; r < rows; ++r) {
        simd::SoftmaxRow(xin.data() + r * n, want_y.data() + r * n, n);
        simd::SoftmaxGradRow(gin.data() + r * n, yin.data() + r * n,
                             want_dx.data() + r * n, n);
      }
      const Tensor xt = Tensor::FromData({rows, n}, xin);
      const Tensor gt = Tensor::FromData({rows, n}, gin);
      const Tensor yt = Tensor::FromData({rows, n}, yin);
      for (const bool scalar : {false, true}) {
        ScopedForceScalar force(scalar);
        for (const int64_t threads : {1, 2, 4}) {
          par::ScopedNumThreads scoped(threads);
          ASSERT_TRUE(SameBitsUpToNanSign(to_vector(Softmax(xt)), want_y))
              << "Softmax rows=" << rows << " n=" << n << " threads="
              << threads << (scalar ? " scalar" : " simd");
          ASSERT_TRUE(SameBitsUpToNanSign(
              to_vector(SoftmaxLastAxisGrad(gt, yt)), want_dx))
              << "SoftmaxLastAxisGrad rows=" << rows << " n=" << n
              << " threads=" << threads << (scalar ? " scalar" : " simd");
        }
      }
    }
  }
}

TEST(SimdBitwiseTest, DispatchReportsConsistentState) {
  EXPECT_STREQ(simd::ActivePath(), simd::Enabled() ? "avx2" : "scalar");
  if (!simd::Available()) {
    EXPECT_FALSE(simd::Enabled());
  }
  {
    ScopedForceScalar scalar(true);
    EXPECT_FALSE(simd::Enabled());
    EXPECT_STREQ(simd::ActivePath(), "scalar");
  }
}

// Tensor-level transcendental results are bitwise stable across thread
// counts (partitioning is elementwise, the kernels are deterministic) and
// across the scalar/vector dispatch.
TEST(SimdBitwiseTest, TensorOpsStableAcrossThreadCountsAndDispatch) {
  Rng rng(1234);
  Tensor a = Tensor::Normal({37, 19}, 0.0f, 3.0f, &rng);
  Tensor b = Tensor::Normal({37, 19}, 0.0f, 3.0f, &rng);

  const std::vector<std::function<Tensor()>> ops = {
      [&] { return Exp(a); },
      [&] { return Sigmoid(a); },
      [&] { return Tanh(a); },
      [&] { return AddSigmoid(a, b); },
      [&] { return AddTanh(a, b); },
      [&] { return ExpNegRelu(a); },
      [&] { return Softmax(a); },
      [&] { return SoftmaxLastAxisGrad(b, Softmax(a)); },
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    Tensor base;
    {
      par::ScopedNumThreads threads(1);
      base = ops[i]();
    }
    for (int64_t t : {2, 8}) {
      par::ScopedNumThreads threads(t);
      ASSERT_TRUE(BitsEqual(ops[i](), base)) << "op " << i << " threads " << t;
    }
    {
      ScopedForceScalar scalar(true);
      par::ScopedNumThreads threads(8);
      ASSERT_TRUE(BitsEqual(ops[i](), base)) << "op " << i << " forced scalar";
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Fusion: bitwise-equal to composed chains, grad-checked, tape budgets.
// ---------------------------------------------------------------------------

TEST(SimdFusionTest, FusedForwardMatchesComposedBitwise) {
  Rng rng(99);
  Tensor a = Tensor::Normal({5, 33}, 0.0f, 2.0f, &rng);
  Tensor b = Tensor::Normal({5, 33}, 0.0f, 2.0f, &rng);
  EXPECT_TRUE(BitsEqual(AddSigmoid(a, b), Sigmoid(Add(a, b))));
  EXPECT_TRUE(BitsEqual(AddTanh(a, b), Tanh(Add(a, b))));
  EXPECT_TRUE(BitsEqual(ExpNegRelu(a), Exp(MulScalar(Relu(a), -1.0f))));
  // Broadcast shapes fall back to the composed-functor path and still match.
  Tensor row = Tensor::Normal({1, 33}, 0.0f, 2.0f, &rng);
  EXPECT_TRUE(BitsEqual(AddSigmoid(a, row), Sigmoid(Add(a, row))));
  EXPECT_TRUE(BitsEqual(AddTanh(row, a), Tanh(Add(row, a))));
}

TEST(SimdFusionTest, FusedGradKernelsMatchComposedExpressions) {
  Rng rng(7);
  Tensor g = Tensor::Normal({41}, 0.0f, 1.0f, &rng);
  Tensor x = Tensor::Normal({41}, 0.0f, 4.0f, &rng);
  const Tensor ys = Sigmoid(x);
  const Tensor yt = Tanh(x);
  const Tensor ye = ExpNegRelu(x);
  const Tensor ds = SigmoidGrad(g, ys);
  const Tensor dt = TanhGrad(g, yt);
  const Tensor de = ExpNegReluGrad(g, ye, x);
  for (int64_t i = 0; i < x.size(); ++i) {
    // Exactly the composed backward graphs' float expressions.
    const float sref = g[i] * (ys[i] * (1.0f - ys[i]));
    const float tref = g[i] * (1.0f - yt[i] * yt[i]);
    const float eref = (-(g[i] * ye[i])) * (x[i] > 0.0f ? 1.0f : 0.0f);
    const float sgot = ds[i], tgot = dt[i], egot = de[i];
    ASSERT_EQ(std::memcmp(&sgot, &sref, sizeof(float)), 0) << i;
    ASSERT_EQ(std::memcmp(&tgot, &tref, sizeof(float)), 0) << i;
    ASSERT_EQ(std::memcmp(&egot, &eref, sizeof(float)), 0) << i;
  }
}

ag::Variable Param(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return ag::Variable(Tensor::Normal(std::move(shape), 0.0f, 1.5f, &rng),
                      /*requires_grad=*/true);
}

void ExpectGradCheck(const std::function<ag::Variable()>& f,
                     const std::vector<ag::Variable>& params) {
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(f, params, {}, &error)) << error;
}

TEST(SimdFusionTest, FusedOpsGradCheckAcrossThreadCounts) {
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scope(threads);
    ag::Variable a = Param({4, 9}, 21);
    ag::Variable b = Param({4, 9}, 22);
    ag::Variable row = Param({1, 9}, 23);
    ExpectGradCheck(
        [&] { return ag::SumAll(ag::Square(ag::AddSigmoid(a, b))); }, {a, b});
    ExpectGradCheck([&] { return ag::SumAll(ag::Square(ag::AddTanh(a, b))); },
                    {a, b});
    // Broadcast operands: the reduced gradient path.
    ExpectGradCheck(
        [&] { return ag::SumAll(ag::Square(ag::AddSigmoid(a, row))); },
        {a, row});
    ExpectGradCheck([&] { return ag::SumAll(ag::Square(ag::ExpNegRelu(a))); },
                    {a});
    ExpectGradCheck(
        [&] { return ag::SumAll(ag::Square(ag::Softmax(a))); },
        {a});
  }
}

// Fused autograd forwards and backwards are bitwise identical to their
// composed twins, and the whole train of gradients is bitwise stable
// across thread counts.
TEST(SimdFusionTest, FusedBackwardMatchesComposedBitwise) {
  auto run = [](bool fused, int64_t threads) {
    par::ScopedNumThreads scope(threads);
    ag::Variable a = Param({6, 17}, 31);
    ag::Variable b = Param({6, 17}, 32);
    ag::Variable x = Param({6, 17}, 33);
    ag::Variable y =
        fused ? ag::Add(ag::AddSigmoid(a, b),
                        ag::Add(ag::AddTanh(a, b), ag::ExpNegRelu(x)))
              : ag::Add(ag::Sigmoid(ag::Add(a, b)),
                        ag::Add(ag::Tanh(ag::Add(a, b)),
                                ag::Exp(ag::MulScalar(ag::Relu(x), -1.0f))));
    ag::SumAll(ag::Square(y)).Backward();
    return std::vector<Tensor>{y.value(), a.grad(), b.grad(), x.grad()};
  };
  const std::vector<Tensor> composed = run(/*fused=*/false, 1);
  for (int64_t threads : {1, 2, 8}) {
    const std::vector<Tensor> fused = run(/*fused=*/true, threads);
    for (size_t i = 0; i < composed.size(); ++i) {
      ASSERT_TRUE(BitsEqual(fused[i], composed[i]))
          << "tensor " << i << " threads " << threads;
    }
  }
}

TEST(SimdFusionTest, FusedChainsCostOneTapeNode) {
  ag::Variable a = Param({3, 8}, 41);
  ag::Variable b = Param({3, 8}, 42);

  int64_t before = ag::TapeNodesAllocated();
  ag::Variable s = ag::AddSigmoid(a, b);
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 1);

  before = ag::TapeNodesAllocated();
  ag::Variable t = ag::AddTanh(a, b);
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 1);

  before = ag::TapeNodesAllocated();
  ag::Variable e = ag::ExpNegRelu(a);
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 1);

  before = ag::TapeNodesAllocated();
  ag::Variable sm = ag::Softmax(a);
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 1);

  // The composed chains they replace cost 2, 2, 3 nodes respectively.
  before = ag::TapeNodesAllocated();
  ag::Variable sc = ag::Sigmoid(ag::Add(a, b));
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 2);
  before = ag::TapeNodesAllocated();
  ag::Variable ec = ag::Exp(ag::MulScalar(ag::Relu(a), -1.0f));
  EXPECT_EQ(ag::TapeNodesAllocated() - before, 3);
}

}  // namespace
}  // namespace elda
