// Bitwise-identity tests for the GEMM and axis-sum kernels.
//
// MatMul's contract (tensor_ops.h) is that both kernels — the Product tasks
// that serve every small product and the packed cache-blocked microkernel —
// produce output bit-for-bit equal to GemmReference for every shape,
// transpose combination, and thread count, and store every output element
// (the output is allocated uninitialised). These tests enforce that with
// memcmp, not tolerances: any reassociation, accumulator splitting, or
// zero-skipping shortcut in a kernel shows up as a hard failure here.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "mem/pool.h"
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

// An operand stored as `trans` asks: [rows, cols] logical, [cols, rows]
// stored when transposed.
std::vector<int64_t> Stored(int64_t rows, int64_t cols, bool trans) {
  return trans ? std::vector<int64_t>{cols, rows}
               : std::vector<int64_t>{rows, cols};
}

// GemmReference of op(a) op(b) (2-D operands), run on [M,K] x [N,K]ᵀ
// copies: the same chains, read contiguously so the long-k cases stay cheap.
std::vector<float> Reference(const Tensor& a, const Tensor& b, bool ta,
                             bool tb) {
  const Tensor at = ta ? Transpose(a) : a;
  const Tensor bt = tb ? b : Transpose(b);
  const int64_t m = at.shape(0), k = at.shape(1), n = bt.shape(0);
  std::vector<float> ref(static_cast<size_t>(m * n));
  GemmReference(at.data(), bt.data(), ref.data(), m, k, n, false, true);
  return ref;
}

// MatMul(a, b, ta, tb) against rows [0, m) and columns [0, n) of `ref`, a
// reference with row stride ldr over a superset of a's rows and b's columns.
void ExpectSliceMatches(const Tensor& a, const Tensor& b, bool ta, bool tb,
                        const std::vector<float>& ref, int64_t ldr,
                        const std::vector<int64_t>& thread_counts) {
  for (int64_t threads : thread_counts) {
    par::ScopedNumThreads scoped(threads);
    const Tensor c = MatMul(a, b, ta, tb);
    const int64_t m = c.shape(0), n = c.shape(1);
    for (int64_t i = 0; i < m; ++i) {
      ASSERT_EQ(std::memcmp(c.data() + i * n, ref.data() + i * ldr,
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << "m=" << m << " k=" << a.shape(ta ? 0 : 1) << " n=" << n
          << " trans_a=" << ta << " trans_b=" << tb << " row=" << i
          << " threads=" << threads;
    }
  }
}

// Batched (b 3-D) or shared-rhs (b 2-D) MatMul of 3-D a against
// GemmReference per item.
void ExpectBatchMatches(const Tensor& a, const Tensor& b, bool ta, bool tb,
                        const std::vector<int64_t>& thread_counts) {
  const int64_t batch = a.shape(0);
  const int64_t m = a.shape(ta ? 2 : 1), k = a.shape(ta ? 1 : 2);
  const int64_t n = b.shape(tb ? -2 : -1);
  const bool shared = b.dim() == 2;
  std::vector<float> ref(static_cast<size_t>(batch * m * n));
  for (int64_t i = 0; i < batch; ++i) {
    GemmReference(a.data() + i * m * k, b.data() + (shared ? 0 : i * k * n),
                  ref.data() + i * m * n, m, k, n, ta, tb);
  }
  for (int64_t threads : thread_counts) {
    par::ScopedNumThreads scoped(threads);
    const Tensor c = MatMul(a, b, ta, tb);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "batch=" << batch << " m=" << m << " k=" << k << " n=" << n
        << " shared=" << shared << " trans_a=" << ta << " trans_b=" << tb
        << " threads=" << threads;
  }
}

TEST(GemmBitwiseTest, ProductTasks) {
  // Products the packed kernel does not take run as 4-row Product tasks
  // with the lanes on C's columns (NN, and TN unless m > n) or its rows
  // (TT, and TN with m > n); NT copies its narrower side transposed first.
  // Every transpose must equal the strict-k reference, specials included,
  // at every thread count. k = 113664 is the tile backward's dp length
  // (B=64, T=48, C=37). Operands are slices of one pair of tensors per k
  // and transpose; an output's chain reads only its own row of op(a) and
  // column of op(b), so one reference over the full pair covers every
  // slice. m = 9 with n >= 16 crosses into the packed kernel.
  uint64_t seed = 4001;
  for (int64_t k : {1, 64, 4095, 64 * 48 * 37}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const Tensor a_all = SpecialTensor(Stored(9, k, ta != 0), seed++);
        const Tensor b_all = SpecialTensor(Stored(k, 48, tb != 0), seed++);
        const std::vector<float> ref =
            Reference(a_all, b_all, ta != 0, tb != 0);
        for (int64_t m = 1; m <= 9; ++m) {
          const Tensor a = Slice(a_all, ta ? 1 : 0, 0, m);
          for (int64_t n : {1, 15, 16, 17, 48}) {
            ExpectSliceMatches(a, Slice(b_all, tb ? 0 : 1, 0, n), ta != 0,
                               tb != 0, ref, 48, {1, 2, 4});
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // Many lanes on C's rows or columns: several 48-lane blocks and a tail.
  for (const auto& [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {113, 3008, 1}, {1, 3008, 113}, {100, 257, 7}, {7, 257, 100}}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const Tensor a = SpecialTensor(Stored(m, k, ta != 0), seed++);
        const Tensor b = SpecialTensor(Stored(k, n, tb != 0), seed++);
        ExpectSliceMatches(a, b, ta != 0, tb != 0,
                           Reference(a, b, ta != 0, tb != 0), n, {1, 2, 4});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Batches of small products, per-item and shared rhs: each item runs its
  // tasks serially; the NT copy covers every item of its side.
  for (const auto& [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {1, 64, 7}, {1, 64, 47}, {47, 64, 1}, {6, 50, 20}, {20, 1, 6}}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        std::vector<int64_t> a_shape = Stored(m, k, ta != 0);
        a_shape.insert(a_shape.begin(), 5);
        std::vector<int64_t> b_shape = Stored(k, n, tb != 0);
        const Tensor a = SpecialTensor(a_shape, seed++);
        ExpectBatchMatches(a, SpecialTensor(b_shape, seed++), ta != 0,
                           tb != 0, {1, 2, 4});
        b_shape.insert(b_shape.begin(), 5);
        ExpectBatchMatches(a, SpecialTensor(b_shape, seed++), ta != 0,
                           tb != 0, {1, 2, 4});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(GemmBitwiseTest, DispatchBoundarySweptFromBothSides) {
  // MatMul sends a product to the packed kernel or to Product tasks by m,
  // k, n and the thread count (UsePackedGemm), and spreads Product tasks
  // over the threads only past a work floor (PlanProduct). Shapes on both
  // sides of each of those constants, all four transposes, 1/2/4 threads:
  // one thread packs from 128 rows (m = 127 | 128), or from 32 (m = 31 |
  // 32) once k * n reaches 2^19 floats (n = 170 | 171 at k = 3072);
  // several threads pack long-k products (k = 1023 | 1024) from 128 rows
  // and tall ones from 2048 rows (2047 | 2048) when n is at least 64 (63 |
  // 64). One thread also packs only while B's 32-wide panels pad n by at
  // most 1/8 over Product's 16-lane blocks (n = 32 | 33, 48 | 49, 112 |
  // 113; n = 97 stays with Product, 129 packs). Product tasks spread over
  // the threads from 2^15 vector
  // multiply-adds (m = 42 | 43 at k = 64, n = 192) and, for an NT product
  // with a transposed copy, from 128 flops per copied float (m = 127 | 128
  // at k = n = 64). Whatever the rule picks, every output must be the
  // strict-k reference chain.
  struct Grid {
    std::vector<int64_t> ks, ms, ns;
  };
  const std::vector<Grid> grids = {
      {{1, 64},
       {7, 8, 9, 31, 32, 42, 43, 63, 64, 65, 127, 128, 255, 256},
       {15, 16, 63, 64, 192}},
      {{1, 64}, {2047, 2048}, {63, 64}},
      {{1023, 1024}, {7, 8, 57, 127, 128}, {64}},
      {{3072}, {8, 31, 32, 127, 128}, {170, 171}},
      {{64}, {127, 128, 256}, {32, 33, 37, 48, 49, 97, 112, 113, 129}},
  };
  uint64_t seed = 9001;
  for (const Grid& grid : grids) {
    const int64_t m_max = grid.ms.back(), n_max = grid.ns.back();
    for (int64_t k : grid.ks) {
      for (int ta = 0; ta < 2; ++ta) {
        for (int tb = 0; tb < 2; ++tb) {
          const Tensor a_all =
              PatternTensor(Stored(m_max, k, ta != 0), seed++);
          const Tensor b_all =
              PatternTensor(Stored(k, n_max, tb != 0), seed++);
          const std::vector<float> ref =
              Reference(a_all, b_all, ta != 0, tb != 0);
          for (int64_t m : grid.ms) {
            const Tensor a = Slice(a_all, ta ? 1 : 0, 0, m);
            for (int64_t n : grid.ns) {
              ExpectSliceMatches(a, Slice(b_all, tb ? 0 : 1, 0, n), ta != 0,
                                 tb != 0, ref, n_max, {1, 2, 4});
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
  // Each item of a batch decides as one thread: 128 rows, and 32 once
  // k * n reaches 2^19 floats. Per-item and shared right-hand sides.
  for (const auto& [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {127, 64, 64}, {128, 64, 64}, {31, 3072, 171}, {32, 3072, 171}}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        std::vector<int64_t> a_shape = Stored(m, k, ta != 0);
        a_shape.insert(a_shape.begin(), 2);
        std::vector<int64_t> b_shape = Stored(k, n, tb != 0);
        const Tensor a = PatternTensor(a_shape, seed++);
        ExpectBatchMatches(a, PatternTensor(b_shape, seed++), ta != 0,
                           tb != 0, {1, 2, 4});
        b_shape.insert(b_shape.begin(), 2);
        ExpectBatchMatches(a, PatternTensor(b_shape, seed++), ta != 0,
                           tb != 0, {1, 2, 4});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(GemmBitwiseTest, EveryKernelStoresEveryOutput) {
  // MatMul allocates its output uninitialised, so a task that skips an
  // element would leave stale memory behind. Fill the output's pool bucket
  // with NaN first: any element not stored reads NaN, not the reference.
  mem::ScopedPoolEnabled force(true);
  mem::Pool& pool = mem::Pool::Global();
  uint64_t seed = 7001;
  // Outputs of at least kMinPooledFloats (8192) go through the freelists:
  // lanes on C's columns (n wide), on its rows (m > n), a batch, packed.
  for (const auto& [batch, m, k, n] : std::vector<std::array<int64_t, 4>>{
           {1, 5, 3, 2000}, {1, 1000, 7, 9}, {512, 9, 5, 17},
           {1, 96, 40, 96}}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        std::vector<int64_t> a_shape = Stored(m, k, ta != 0);
        std::vector<int64_t> b_shape = Stored(k, n, tb != 0);
        if (batch > 1) {
          a_shape.insert(a_shape.begin(), batch);
          b_shape.insert(b_shape.begin(), batch);
        }
        const Tensor a = SpecialTensor(a_shape, seed++);
        const Tensor b = SpecialTensor(b_shape, seed++);
        std::vector<float> ref(static_cast<size_t>(batch * m * n));
        for (int64_t i = 0; i < batch; ++i) {
          GemmReference(a.data() + i * m * k, b.data() + i * k * n,
                        ref.data() + i * m * n, m, k, n, ta != 0, tb != 0);
        }
        for (int64_t threads : {1, 4}) {
          par::ScopedNumThreads scoped(threads);
          pool.Trim();
          const int32_t bucket = mem::Pool::BucketFor(batch * m * n);
          ASSERT_GE(bucket, 0);
          float* stale[2];
          for (float*& p : stale) {
            int32_t got = 0;
            p = pool.Acquire(mem::Pool::BucketCapacity(bucket), &got);
            std::fill_n(p, mem::Pool::BucketCapacity(bucket),
                        std::numeric_limits<float>::quiet_NaN());
          }
          for (float* p : stale) pool.Release(p, bucket);
          const Tensor c = MatMul(a, b, ta != 0, tb != 0);
          ASSERT_EQ(
              std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)),
              0)
              << "batch=" << batch << " m=" << m << " k=" << k << " n=" << n
              << " trans_a=" << ta << " trans_b=" << tb
              << " threads=" << threads;
        }
      }
    }
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
