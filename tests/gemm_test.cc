// Bitwise-identity tests for the GEMM and axis-sum kernels.
//
// MatMul's contract (tensor_ops.h) is that every kernel — the simple
// small-product loops and the packed cache-blocked microkernel — produces
// output bit-for-bit equal to GemmReference for every shape, transpose
// combination, and thread count. These tests enforce that with memcmp, not
// tolerances: any reassociation, accumulator splitting, or zero-skipping
// shortcut in a kernel shows up as a hard failure here.

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "par/par.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

// Mixed-sign values with ~25% exact zeros. Zeros exercise any
// skip-zero shortcut a kernel might take (the accumulator must still pass
// through fma(0, b, acc)); sign mixing exercises cancellation, where a
// reordered sum diverges fastest.
Tensor PatternTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Empty(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng.Uniform(0.0, 1.0) < 0.25
               ? 0.0f
               : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return t;
}

void ExpectBitwiseMatch(int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                        uint64_t seed) {
  Tensor a = PatternTensor(
      ta ? std::vector<int64_t>{k, m} : std::vector<int64_t>{m, k}, seed);
  Tensor b = PatternTensor(
      tb ? std::vector<int64_t>{n, k} : std::vector<int64_t>{k, n}, seed + 1);
  std::vector<float> ref(static_cast<size_t>(m * n));
  GemmReference(a.data(), b.data(), ref.data(), m, k, n, ta, tb);
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scoped(threads);
    Tensor c = MatMul(a, b, ta, tb);
    ASSERT_EQ(c.shape(0), m);
    ASSERT_EQ(c.shape(1), n);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "m=" << m << " k=" << k << " n=" << n << " trans_a=" << ta
        << " trans_b=" << tb << " threads=" << threads;
  }
}

TEST(GemmBitwiseTest, SweepSmallOddPrimeShapesAllTransposes) {
  // Crosses simple-vs-packed thresholds, microtile edges (odd/prime dims),
  // and degenerate rows/columns, for all four transpose combinations.
  const int64_t dims[] = {1, 2, 3, 5, 8, 17, 37, 64};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            ExpectBitwiseMatch(m, k, n, ta != 0, tb != 0, seed++);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(GemmBitwiseTest, PackedKernelShapes) {
  // Shapes that definitely take the packed cache-blocked path, including
  // dims that are not multiples of the register tile.
  ExpectBitwiseMatch(256, 256, 256, false, false, 1001);
  ExpectBitwiseMatch(256, 256, 256, false, true, 1002);
  ExpectBitwiseMatch(65, 127, 63, true, false, 1003);
  ExpectBitwiseMatch(65, 127, 63, true, true, 1004);
  ExpectBitwiseMatch(64, 101, 192, false, false, 1005);  // GRU gate shape
  ExpectBitwiseMatch(37, 24, 37, false, true, 1006);  // feature interaction
}

TEST(GemmBitwiseTest, BatchedMatchesPerItemReference) {
  const int64_t B = 6, m = 37, k = 24, n = 37;
  uint64_t seed = 2001;
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      Tensor a = PatternTensor(ta ? std::vector<int64_t>{B, k, m}
                                  : std::vector<int64_t>{B, m, k},
                               seed++);
      Tensor b = PatternTensor(tb ? std::vector<int64_t>{B, n, k}
                                  : std::vector<int64_t>{B, k, n},
                               seed++);
      std::vector<float> ref(static_cast<size_t>(B * m * n));
      for (int64_t i = 0; i < B; ++i) {
        GemmReference(a.data() + i * m * k, b.data() + i * k * n,
                      ref.data() + i * m * n, m, k, n, ta != 0, tb != 0);
      }
      for (int64_t threads : {1, 2, 8}) {
        par::ScopedNumThreads scoped(threads);
        Tensor c = MatMul(a, b, ta != 0, tb != 0);
        ASSERT_EQ(
            std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0)
            << "trans_a=" << ta << " trans_b=" << tb
            << " threads=" << threads;
      }
    }
  }
}

TEST(GemmBitwiseTest, SharedRhsBatchMatchesReference) {
  // 3-D x 2-D: the right-hand side is shared across the batch; the packed
  // kernel packs it once per chunk and must still match item-by-item.
  const int64_t B = 64, m = 8, k = 101, n = 192;
  Tensor a = PatternTensor({B, m, k}, 3001);
  Tensor b = PatternTensor({k, n}, 3002);
  std::vector<float> ref(static_cast<size_t>(B * m * n));
  for (int64_t i = 0; i < B; ++i) {
    GemmReference(a.data() + i * m * k, b.data(), ref.data() + i * m * n, m,
                  k, n, false, false);
  }
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scoped(threads);
    Tensor c = MatMul(a, b);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

// PatternTensor plus a few special values (NaN, -0, +-inf) at random
// positions: an inf meeting a zero turns a chain to NaN, and -0 products
// test the +0 start. Kept sparse so most outputs stay finite.
Tensor SpecialTensor(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t = PatternTensor(std::move(shape), seed);
  Rng rng(seed + 7);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (int i = 0; i < 8 && t.size() > 0; ++i) {
    t[rng.UniformInt(t.size())] = specials[i % 4];
  }
  return t;
}

// GemmReference of aᵀ b for a stored [K, M] and b stored [K, N], run on
// [M,K] x [N,K]ᵀ copies: the same chains, read contiguously so the long-k
// cases stay cheap.
std::vector<float> TnReference(const Tensor& a, const Tensor& b) {
  const int64_t k = a.shape(0), m = a.shape(1), n = b.shape(1);
  std::vector<float> ref(static_cast<size_t>(m * n));
  const Tensor at = Transpose(a);
  const Tensor bt = Transpose(b);
  GemmReference(at.data(), bt.data(), ref.data(), m, k, n, false, true);
  return ref;
}

// MatMul(a, b, trans_a) against rows [0, m) and columns [0, n) of `ref`,
// a reference over the first m columns of a and n columns of b.
void ExpectTnMatches(const Tensor& a, const Tensor& b,
                     const std::vector<float>& ref, int64_t ldr,
                     const std::vector<int64_t>& thread_counts) {
  const int64_t k = a.shape(0), m = a.shape(1), n = b.shape(1);
  for (int64_t threads : thread_counts) {
    par::ScopedNumThreads scoped(threads);
    const Tensor c = MatMul(a, b, /*trans_a=*/true);
    for (int64_t i = 0; i < m; ++i) {
      ASSERT_EQ(std::memcmp(c.data() + i * n, ref.data() + i * ldr,
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << "m=" << m << " k=" << k << " n=" << n << " row=" << i
          << " threads=" << threads;
    }
  }
}

TEST(GemmBitwiseTest, TnProductTasks) {
  // TN products the packed kernel does not take run as register-blocked
  // 4-row column-block tasks, or, with n < 16, put C's rows on the vector
  // lanes. Both must equal the strict-k reference, specials included, at
  // every thread count. k = 113664 is the tile backward's dp length (B=64,
  // T=48, C=37). Operands are column slices of one pair of tensors per k;
  // an output's chain reads only its own column of each, so one reference
  // over the full pair covers every slice.
  uint64_t seed = 4001;
  for (int64_t k : {1, 4095, 4096, 64 * 48 * 37}) {
    const Tensor a_all = SpecialTensor({k, 8}, seed++);
    const Tensor b_all = SpecialTensor({k, 48}, seed++);
    const std::vector<float> ref = TnReference(a_all, b_all);
    for (int64_t m = 1; m <= 8; ++m) {
      const Tensor a = Slice(a_all, 1, 0, m);
      for (int64_t n : {1, 15, 16, 17, 33, 48}) {
        ExpectTnMatches(a, Slice(b_all, 1, 0, n), ref, 48, {1, 2, 4});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Narrow products with many rows: several 48-lane tasks and a tail.
  for (const auto& [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {113, 3008, 1}, {64, 3008, 1}, {100, 257, 7}}) {
    const Tensor a = SpecialTensor({k, m}, seed++);
    const Tensor b = SpecialTensor({k, n}, seed++);
    ExpectTnMatches(a, b, TnReference(a, b), n, {1, 2, 4});
  }
  // A batch of small TN products: each item runs its tasks serially.
  const int64_t batch = 5, m = 6, k = 50, n = 20;
  const Tensor a = SpecialTensor({batch, k, m}, seed++);
  const Tensor b = SpecialTensor({batch, k, n}, seed++);
  std::vector<float> ref(static_cast<size_t>(batch * m * n));
  for (int64_t i = 0; i < batch; ++i) {
    GemmReference(a.data() + i * k * m, b.data() + i * k * n,
                  ref.data() + i * m * n, m, k, n, true, false);
  }
  for (int64_t threads : {1, 2, 4}) {
    par::ScopedNumThreads scoped(threads);
    const Tensor c = MatMul(a, b, /*trans_a=*/true);
    EXPECT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "batched threads=" << threads;
  }
}

TEST(GemmBitwiseTest, PackedRowBlocksAtEveryThreadCount) {
  // Row counts that leave partial microtiles: the packed path splits rows
  // in whole register blocks and packs B panels in parallel.
  uint64_t seed = 5001;
  for (int64_t m : {9, 148, 255}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const Tensor a = PatternTensor(
            ta ? std::vector<int64_t>{67, m} : std::vector<int64_t>{m, 67},
            seed++);
        const Tensor b = PatternTensor(
            tb ? std::vector<int64_t>{192, 67} : std::vector<int64_t>{67, 192},
            seed++);
        std::vector<float> ref(static_cast<size_t>(m * 192));
        GemmReference(a.data(), b.data(), ref.data(), m, 67, 192, ta != 0,
                      tb != 0);
        for (int64_t threads : {1, 2, 3, 4}) {
          par::ScopedNumThreads scoped(threads);
          const Tensor c = MatMul(a, b, ta != 0, tb != 0);
          ASSERT_EQ(std::memcmp(c.data(), ref.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "m=" << m << " trans_a=" << ta << " trans_b=" << tb
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(AxisSumBitwiseTest, MatchesSerialLoopForEveryInnerWidth) {
  // Sum and Mean keep 64-lane blocks in registers across the reduced axis;
  // each lane must still be src[0] + src[1] + ... in order (then * 1/n for
  // Mean), whatever the block tail or thread count. The kernel picks its
  // path at compile time: blocks under 16 lanes run the portable loop here,
  // wider ones only in a build without AVX-512 (-march=x86-64-v3).
  uint64_t seed = 6001;
  for (int64_t inner : {1, 15, 16, 17, 63, 64, 65, 888, 1369}) {
    const int64_t outer = 3, n = 37;
    const Tensor a = SpecialTensor({outer, n, inner}, seed++);
    std::vector<float> sum(static_cast<size_t>(outer * inner));
    std::vector<float> mean(sum.size());
    const float inv = 1.0f / static_cast<float>(n);
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        float acc = a[o * n * inner + i];
        for (int64_t kk = 1; kk < n; ++kk) acc += a[(o * n + kk) * inner + i];
        sum[static_cast<size_t>(o * inner + i)] = acc;
        mean[static_cast<size_t>(o * inner + i)] = acc * inv;
      }
    }
    for (int64_t threads : {1, 2, 4}) {
      par::ScopedNumThreads scoped(threads);
      const Tensor s = Sum(a, 1);
      const Tensor mu = Mean(a, 1);
      EXPECT_EQ(std::memcmp(s.data(), sum.data(), sum.size() * sizeof(float)),
                0)
          << "Sum inner=" << inner << " threads=" << threads;
      EXPECT_EQ(
          std::memcmp(mu.data(), mean.data(), mean.size() * sizeof(float)), 0)
          << "Mean inner=" << inner << " threads=" << threads;
    }
  }
}

TEST(GemmBitwiseTest, ZeroSizedDims) {
  // k == 0 contracts over nothing: the output must be exact zeros.
  Tensor a = Tensor::Empty({4, 0});
  Tensor b = Tensor::Empty({0, 5});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.size(), 20);
  for (int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0f);
  // m == 0 / n == 0 produce empty outputs without touching memory.
  EXPECT_EQ(MatMul(Tensor::Empty({0, 3}), Tensor::Empty({3, 5})).size(), 0);
  EXPECT_EQ(MatMul(Tensor::Empty({4, 3}), Tensor::Empty({3, 0})).size(), 0);
}

}  // namespace
}  // namespace elda
