#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "mem/pool.h"
#include "mem/prof.h"
#include "par/par.h"
#include "tensor/simd_math.h"

namespace elda {
namespace {

// Threading note: every parallel loop in this file partitions disjoint
// *output* elements across chunks and computes each element with exactly the
// serial instruction sequence, so results are bitwise identical for any
// thread count (see DESIGN.md "Threading model"). Whole-tensor float sums
// (SumAll/MeanAll) stay serial because chunked accumulation would reorder
// the additions.
//
// Allocation note: kernels here allocate their outputs with Tensor::Empty
// (uninitialized pooled memory) because they overwrite every output element.

// Applies a binary functor with NumPy broadcasting. The fast paths cover the
// two layouts that dominate this codebase: identical shapes, and a
// right-hand side whose shape is a suffix of the left-hand side's (e.g.
// [B, T, C] op [C] for per-feature biases).
template <typename F>
Tensor BinaryBroadcast(const char* prof_name, const Tensor& a, const Tensor& b,
                       F f) {
  ELDA_PROF_SCOPE(prof_name);
  ELDA_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Empty(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    par::ParallelFor(0, a.size(), par::kElementGrain,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
                     });
    return out;
  }
  // Suffix fast path: b's shape equals the trailing dims of a's shape.
  if (b.dim() <= a.dim()) {
    bool suffix = true;
    for (int64_t i = 0; i < b.dim(); ++i) {
      if (b.shape(b.dim() - 1 - i) != a.shape(a.dim() - 1 - i)) {
        suffix = false;
        break;
      }
    }
    if (suffix && b.size() > 0) {
      Tensor out = Tensor::Empty(a.shape());
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out.data();
      const int64_t inner = b.size();
      const int64_t outer = a.size() / inner;
      const int64_t grain =
          std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, inner));
      par::ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
          const float* row = pa + o * inner;
          float* orow = po + o * inner;
          for (int64_t i = 0; i < inner; ++i) orow[i] = f(row[i], pb[i]);
        }
      });
      return out;
    }
  }
  // General broadcast: align shapes right, stride 0 on broadcast dims. The
  // innermost dimension is peeled into a tight loop (strides there are 0 or
  // 1), so the odometer only ticks once per inner run.
  const std::vector<int64_t> out_shape = BroadcastShapes(a.shape(), b.shape());
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  std::vector<int64_t> sa(rank, 0), sb(rank, 0);
  {
    const auto stra = a.Strides();
    const auto strb = b.Strides();
    for (int64_t i = 0; i < a.dim(); ++i) {
      const int64_t o = rank - a.dim() + i;
      sa[o] = a.shape(i) == 1 ? 0 : stra[i];
    }
    for (int64_t i = 0; i < b.dim(); ++i) {
      const int64_t o = rank - b.dim() + i;
      sb[o] = b.shape(i) == 1 ? 0 : strb[i];
    }
  }
  Tensor out = Tensor::Empty(out_shape);
  float* po = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t inner = out_shape[rank - 1];
  const int64_t inner_sa = sa[rank - 1];
  const int64_t inner_sb = sb[rank - 1];
  const int64_t outer = out.size() / std::max<int64_t>(inner, 1);
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, inner));
  par::ParallelFor(0, outer, grain, [&](int64_t r0, int64_t r1) {
    // Seed the odometer at run r0 (mixed-radix decomposition over the outer
    // dims, dim rank-2 fastest), then tick it across the chunk.
    std::vector<int64_t> idx(rank, 0);
    int64_t off_a = 0, off_b = 0;
    int64_t rem = r0;
    for (int64_t d = rank - 2; d >= 0; --d) {
      idx[d] = rem % out_shape[d];
      rem /= out_shape[d];
      off_a += idx[d] * sa[d];
      off_b += idx[d] * sb[d];
    }
    int64_t flat = r0 * inner;
    for (int64_t run = r0; run < r1; ++run) {
      const float* ra = pa + off_a;
      const float* rb = pb + off_b;
      float* ro = po + flat;
      if (inner_sa == 1 && inner_sb == 1) {
        for (int64_t i = 0; i < inner; ++i) ro[i] = f(ra[i], rb[i]);
      } else if (inner_sa == 1 && inner_sb == 0) {
        const float bv = *rb;
        for (int64_t i = 0; i < inner; ++i) ro[i] = f(ra[i], bv);
      } else if (inner_sa == 0 && inner_sb == 1) {
        const float av = *ra;
        for (int64_t i = 0; i < inner; ++i) ro[i] = f(av, rb[i]);
      } else {
        const float v = f(*ra, *rb);
        for (int64_t i = 0; i < inner; ++i) ro[i] = v;
      }
      flat += inner;
      // Odometer over the remaining (outer) dimensions.
      for (int64_t d = rank - 2; d >= 0; --d) {
        off_a += sa[d];
        off_b += sb[d];
        if (++idx[d] < out_shape[d]) break;
        idx[d] = 0;
        off_a -= sa[d] * out_shape[d];
        off_b -= sb[d] * out_shape[d];
      }
    }
  });
  return out;
}

// Scalar activation bodies shared by the elementwise kernels and the fused
// recurrent gate kernels, so both paths run literally the same float
// expressions (the fused kernels' bitwise-identity contract relies on it).
// Since the SIMD transcendental layer these delegate to the scalar
// reference contract in simd_math.h, whose 8-lane AVX2 mirrors the
// vectorized gate loops below embed — one contract, every path.
inline float SigmoidScalar(float x) { return simd::SigmoidRef(x); }

inline float TanhScalar(float x) { return simd::TanhRef(x); }

template <typename F>
Tensor UnaryOp(const char* prof_name, const Tensor& a, F f) {
  ELDA_PROF_SCOPE(prof_name);
  ELDA_CHECK(a.defined());
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ParallelFor(0, a.size(), par::kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
                   });
  return out;
}

// Decomposes a shape around `axis` into [outer, n, inner].
void AxisDecompose(const std::vector<int64_t>& shape, int64_t axis,
                   int64_t* outer, int64_t* n, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape[i];
  *n = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) *inner *= shape[i];
}

int64_t NormalizeAxis(int64_t axis, int64_t rank) {
  if (axis < 0) axis += rank;
  ELDA_CHECK(axis >= 0 && axis < rank) << "axis" << axis << "rank" << rank;
  return axis;
}

// ---------------------------------------------------------------------------
// GEMM.
//
// Determinism contract (DESIGN.md "Memory model"): every output element is
// computed as
//     acc = +0;  for p = 0..K-1 ascending:  acc = fma(A[i,p], B[p,j], acc)
// — one fused multiply-add per k step, strictly in k order. Both production
// kernels (Product tasks for small products and the packed cache-blocked
// kernel for large ones) implement exactly this per-element sequence, as
// does GemmReference. Packing, register tiling, and thread partitioning
// only change *which elements* are computed when, never the arithmetic
// inside one element, so results are bitwise identical across kernels,
// tile shapes, and thread counts. fma is exactly rounded, so scalar
// std::fma and vector FMA lanes agree bit-for-bit.
//
// Operand storage conventions match the logical transposes: A is stored
// [M,K] ([K,M] when trans_a), B is stored [K,N] ([N,K] when trans_b), C is
// always [M,N] row-major.

// Register microtile: kMR output rows by kNR output columns.
#if defined(__AVX512F__) && defined(__FMA__)
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 32;  // two zmm vectors
#else
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 16;
#endif

// Floats needed to hold all packed B panels for a [K,N] product.
int64_t PackedBFloats(int64_t k, int64_t n) {
  return ((n + kNR - 1) / kNR) * kNR * std::max<int64_t>(k, 1);
}

// Packs the column panel [j0, j0+kNR) of logical B[K,N] into bp[k][kNR],
// zero-padding past column n (padded lanes are computed by the microkernel
// but never stored).
void PackBPanel(const float* __restrict__ b, float* __restrict__ bp,
                int64_t k, int64_t n, int64_t j0, bool trans_b) {
  const int64_t nr = std::min(kNR, n - j0);
  if (!trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * n + j0;
      float* dst = bp + p * kNR;
      for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
      for (int64_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
    }
  } else {
    // B stored [N, K]: read each logical column contiguously.
    for (int64_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * k;
      for (int64_t p = 0; p < k; ++p) bp[p * kNR + j] = src[p];
    }
    for (int64_t j = nr; j < kNR; ++j) {
      for (int64_t p = 0; p < k; ++p) bp[p * kNR + j] = 0.0f;
    }
  }
}

void PackBAll(const float* b, float* bp, int64_t k, int64_t n, bool trans_b) {
  for (int64_t j0 = 0, panel = 0; j0 < n; j0 += kNR, ++panel) {
    PackBPanel(b, bp + panel * k * kNR, k, n, j0, trans_b);
  }
}

// Packs logical rows [i0, i0+mr) of A[M,K] into ap[k][kMR], zero-padding to
// kMR rows.
void PackABlock(const float* __restrict__ a, float* __restrict__ ap,
                int64_t m, int64_t k, int64_t i0, int64_t mr, bool trans_a) {
  if (!trans_a) {
    for (int64_t r = 0; r < mr; ++r) {
      const float* src = a + (i0 + r) * k;
      for (int64_t p = 0; p < k; ++p) ap[p * kMR + r] = src[p];
    }
  } else {
    // A stored [K, M].
    for (int64_t p = 0; p < k; ++p) {
      const float* src = a + p * m + i0;
      float* dst = ap + p * kMR;
      for (int64_t r = 0; r < mr; ++r) dst[r] = src[r];
    }
  }
  for (int64_t r = mr; r < kMR; ++r) {
    for (int64_t p = 0; p < k; ++p) ap[p * kMR + r] = 0.0f;
  }
}

#if defined(__AVX512F__) && defined(__FMA__)

// 8x32 register tile: 16 zmm accumulators, two B vectors streamed per k
// step, A broadcast from the packed block. Each accumulator lane is one
// output element's strict-k fma chain.
void MicroKernel(const float* __restrict__ ap, const float* __restrict__ bp,
                 int64_t k, float* __restrict__ c, int64_t ldc, int64_t mr,
                 int64_t nr) {
  __m512 acc[kMR][2];
  for (int64_t r = 0; r < kMR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * kNR);
    const __m512 b1 = _mm512_loadu_ps(bp + p * kNR + 16);
    const float* arow = ap + p * kMR;
    for (int64_t r = 0; r < kMR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (nr == kNR) {
    for (int64_t r = 0; r < mr; ++r) {
      _mm512_storeu_ps(c + r * ldc, acc[r][0]);
      _mm512_storeu_ps(c + r * ldc + 16, acc[r][1]);
    }
  } else {
    const __mmask16 m0 =
        nr >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << nr) - 1u);
    const __mmask16 m1 =
        nr > 16 ? static_cast<__mmask16>((1u << (nr - 16)) - 1u)
                : static_cast<__mmask16>(0);
    for (int64_t r = 0; r < mr; ++r) {
      _mm512_mask_storeu_ps(c + r * ldc, m0, acc[r][0]);
      if (m1) _mm512_mask_storeu_ps(c + r * ldc + 16, m1, acc[r][1]);
    }
  }
}

#else

// Portable microkernel: identical per-element fma sequence; the compiler
// vectorizes the jr lanes as far as the target allows.
void MicroKernel(const float* __restrict__ ap, const float* __restrict__ bp,
                 int64_t k, float* __restrict__ c, int64_t ldc, int64_t mr,
                 int64_t nr) {
  float acc[kMR][kNR];
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < kNR; ++j) acc[r][j] = 0.0f;
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (int64_t j = 0; j < kNR; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#endif

// Computes output rows [i0, i1) of C[M,N] against pre-packed B panels.
// ap_scratch holds one packed A block (k * kMR floats). Restricting the row
// range never changes any element's accumulation, so partitioning rows
// across threads (with arbitrary, even tile-misaligned, boundaries) is
// bitwise identical to one serial call.
void GemmPackedRows(const float* a, const float* bp, float* c, int64_t m,
                    int64_t k, int64_t n, bool trans_a, int64_t i0,
                    int64_t i1, float* ap_scratch) {
  for (int64_t ib = i0; ib < i1; ib += kMR) {
    const int64_t mr = std::min(kMR, i1 - ib);
    PackABlock(a, ap_scratch, m, k, ib, mr, trans_a);
    for (int64_t jp = 0, panel = 0; jp < n; jp += kNR, ++panel) {
      const int64_t nr = std::min(kNR, n - jp);
      MicroKernel(ap_scratch, bp + panel * k * kNR, k, c + ib * n + jp, n,
                  mr, nr);
    }
  }
}

// A strided matrix operand: element (r, p) sits at data[r * rs + p * ps].
struct Operand {
  const float* data;
  int64_t rs;
  int64_t ps;
};

// Strided products, used by the feature-interaction tile and by every MatMul
// the packed kernel does not take: out[r * ldo + j] = sum_{p < k} a(r, p) * b[p * ldb + j],
// each output one strict-p fma chain from +0 (GemmReference). Rows run in
// blocks of up to kProductRows, so each pass over b feeds that many rows'
// chains; per-element order never depends on the blocking.
constexpr int64_t kProductRows = 4;
constexpr int64_t kProductLanes = 16;

#if defined(__AVX512F__) && defined(__FMA__)

// Columns run up to kProductVecs zmm vectors at a time: a 4 x 3 block
// keeps 12 independent accumulators in registers across the whole p loop.
// The last vector is masked to the column tail (masked-off lanes load as
// zero and are never stored).
constexpr int64_t kProductVecs = 3;

// One output row's accumulators: acc[v] += av * bv[v].
template <int64_t kVecs>
inline __attribute__((always_inline)) void FmaRow(float av, const __m512* bv,
                                                  __m512* acc) {
  const __m512 avv = _mm512_set1_ps(av);
  for (int64_t v = 0; v < kVecs; ++v) {
    acc[v] = _mm512_fmadd_ps(avv, bv[v], acc[v]);
  }
}

template <int64_t kVecs>
inline __attribute__((always_inline)) void StoreRow(const __m512* acc,
                                                    float* out,
                                                    __mmask16 tail) {
  for (int64_t v = 0; v + 1 < kVecs; ++v) {
    _mm512_storeu_ps(out + v * kProductLanes, acc[v]);
  }
  _mm512_mask_storeu_ps(out + (kVecs - 1) * kProductLanes, tail,
                        acc[kVecs - 1]);
}

// One accumulator array per row: GCC keeps each small array in registers,
// while a single [kRows][kVecs] array past ~256 bytes is written back to
// the stack on every p step.
template <int64_t kRows, int64_t kVecs>
void ProductBlock(Operand a, const float* __restrict__ b, int64_t ldb,
                  int64_t k, float* __restrict__ out, int64_t ldo,
                  __mmask16 tail) {
  static_assert(kRows >= 1 && kRows <= 4);
  __m512 c0[kVecs], c1[kVecs], c2[kVecs], c3[kVecs];
  for (int64_t v = 0; v < kVecs; ++v) {
    c0[v] = c1[v] = c2[v] = c3[v] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* row = b + p * ldb;
    __m512 bv[kVecs];
    for (int64_t v = 0; v + 1 < kVecs; ++v) {
      bv[v] = _mm512_loadu_ps(row + v * kProductLanes);
    }
    bv[kVecs - 1] =
        _mm512_maskz_loadu_ps(tail, row + (kVecs - 1) * kProductLanes);
    const float* ap = a.data + p * a.ps;
    FmaRow<kVecs>(ap[0], bv, c0);
    if constexpr (kRows > 1) FmaRow<kVecs>(ap[a.rs], bv, c1);
    if constexpr (kRows > 2) FmaRow<kVecs>(ap[2 * a.rs], bv, c2);
    if constexpr (kRows > 3) FmaRow<kVecs>(ap[3 * a.rs], bv, c3);
  }
  StoreRow<kVecs>(c0, out, tail);
  if constexpr (kRows > 1) StoreRow<kVecs>(c1, out + ldo, tail);
  if constexpr (kRows > 2) StoreRow<kVecs>(c2, out + 2 * ldo, tail);
  if constexpr (kRows > 3) StoreRow<kVecs>(c3, out + 3 * ldo, tail);
}

template <int64_t kRows>
void ProductRows(Operand a, const float* b, int64_t ldb, int64_t k, int64_t n,
                 float* out, int64_t ldo) {
  constexpr int64_t kBlock = kProductVecs * kProductLanes;
  for (int64_t j = 0; j < n; j += kBlock) {
    const int64_t width = std::min(kBlock, n - j);
    const int64_t vecs = (width + kProductLanes - 1) / kProductLanes;
    const int64_t last = width - (vecs - 1) * kProductLanes;
    const __mmask16 tail = static_cast<__mmask16>((1u << last) - 1u);
    switch (vecs) {
      case 3:
        ProductBlock<kRows, 3>(a, b + j, ldb, k, out + j, ldo, tail);
        break;
      case 2:
        ProductBlock<kRows, 2>(a, b + j, ldb, k, out + j, ldo, tail);
        break;
      default:
        ProductBlock<kRows, 1>(a, b + j, ldb, k, out + j, ldo, tail);
        break;
    }
  }
}

#else

// Portable blocks: the same per-element chains over plain arrays; the
// compiler vectorises the lanes as far as the target allows.
template <int64_t kRows, int64_t kWidth>
void ProductBlock(Operand a, const float* b, int64_t ldb, int64_t k,
                  float* out, int64_t ldo) {
  float acc[kRows][kWidth] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* row = b + p * ldb;
    for (int64_t r = 0; r < kRows; ++r) {
      const float av = a.data[r * a.rs + p * a.ps];
      for (int64_t l = 0; l < kWidth; ++l) {
        acc[r][l] = std::fma(av, row[l], acc[r][l]);
      }
    }
  }
  for (int64_t r = 0; r < kRows; ++r) {
    std::memcpy(out + r * ldo, acc[r], sizeof(acc[r]));
  }
}

template <int64_t kRows>
void ProductRows(Operand a, const float* b, int64_t ldb, int64_t k, int64_t n,
                 float* out, int64_t ldo) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    ProductBlock<kRows, 16>(a, b + j, ldb, k, out + j, ldo);
  }
  if (j + 8 <= n) {
    ProductBlock<kRows, 8>(a, b + j, ldb, k, out + j, ldo);
    j += 8;
  }
  for (; j < n; ++j) {
    for (int64_t r = 0; r < kRows; ++r) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fma(a.data[r * a.rs + p * a.ps], b[p * ldb + j], acc);
      }
      out[r * ldo + j] = acc;
    }
  }
}

#endif

// Product over `rows` rows of a: 4-row blocks, then one block of the
// remaining 1–3 rows.
void Product(Operand a, int64_t rows, const float* b, int64_t ldb, int64_t k,
             int64_t n, float* out, int64_t ldo) {
  int64_t r = 0;
  for (; r + kProductRows <= rows; r += kProductRows) {
    ProductRows<kProductRows>({a.data + r * a.rs, a.rs, a.ps}, b, ldb, k, n,
                              out + r * ldo, ldo);
  }
  const Operand rest{a.data + r * a.rs, a.rs, a.ps};
  switch (rows - r) {
    case 3:
      ProductRows<3>(rest, b, ldb, k, n, out + r * ldo, ldo);
      break;
    case 2:
      ProductRows<2>(rest, b, ldb, k, n, out + r * ldo, ldo);
      break;
    case 1:
      ProductRows<1>(rest, b, ldb, k, n, out + r * ldo, ldo);
      break;
    default:
      break;
  }
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// When packing pays. The packed kernel copies B into panels once and A once
// per kMR-row block, then runs the widest register tile over them; Product
// tasks copy nothing but re-read B once per kProductRows rows. So packing
// pays only where enough rows reuse the packed panels:
//  - on one thread, kPackedMinRows of them, or a quarter of that once B
//    outgrows L2 (kPackedL2Floats) and every Product pass re-reads it from
//    L3; and only while B's kNR-wide panels pad n by at most
//    kPanelPadSlack over Product's kProductLanes-wide blocks (n = 37 pads
//    to 64 packed columns but only 48 Product lanes);
//  - on several threads, where each thread packs its own A blocks from a B
//    packed by all of them, for long-k products with kPackedMinRows, or for
//    tall ones with kPackedTallRows rows and kPackedTallCols columns.
// The constants count rows and columns, not microtiles, so the rule is the
// same whatever kMR and kNR the build picks; the several-thread ones were
// measured at 4 threads. Products the packed kernel does not take run as
// Product tasks (DESIGN.md "GEMM determinism contract" has measured shapes
// on both sides).
constexpr int64_t kPackedMinRows = 128;
constexpr int64_t kPackedL2Floats = int64_t{1} << 19;
constexpr int64_t kPackedLongK = 1024;
constexpr int64_t kPackedTallRows = 2048;
constexpr int64_t kPackedTallCols = 64;
// Packed columns may exceed Product's padded lanes by 1/8 on one thread.
constexpr int64_t kPanelPadSlack = 8;

bool UsePackedGemm(int64_t m, int64_t k, int64_t n, int64_t threads) {
  if (m < kMR || n < kNR / 2) return false;
  if (threads == 1) {
    const int64_t packed_cols = CeilDiv(n, kNR) * kNR;
    const int64_t product_cols = CeilDiv(n, kProductLanes) * kProductLanes;
    if (packed_cols * kPanelPadSlack >
        product_cols * (kPanelPadSlack + 1)) {
      return false;
    }
    return m >= kPackedMinRows ||
           (m >= kPackedMinRows / 4 && k * n >= kPackedL2Floats);
  }
  if (k >= kPackedLongK) return m >= kPackedMinRows;
  return m >= kPackedTallRows && n >= kPackedTallCols;
}

// Minimum flops worth one parallel chunk; below this, dispatch overhead
// dominates and the work stays on fewer threads.
constexpr int64_t kMatMulGrainFlops = 1 << 15;

// A Product-task product is spread over the threads only with at least
// kProductSplitWork vector multiply-adds (rows x 16-lane vectors x k; waking
// the workers and gathering their rows costs a few microseconds), and, when
// MatMul copied a side transposed for it, at least kCopyReuse flops per
// copied float: every task reads the whole copy, which the calling thread
// has just written, so each float must feed enough rows to be worth pulling
// across cores. Smaller products run as one chunk on the calling thread.
constexpr int64_t kProductSplitWork = int64_t{1} << 15;
constexpr int64_t kCopyReuse = 128;

// Every product the packed kernel does not take runs as tasks over strided
// Product blocks, each block's chains in registers across the whole k loop.
// Product reads its lane operand p-major, so the lanes go on the side
// already stored that way: C's columns for NN (B is [K, N]), C's rows for TT
// (A is [K, M]), and the wider side for TN. NT products reach the planner
// as NN or TT, their narrower side copied transposed (MatMul). With lanes on
// C's rows a task computes a block of Cᵀ = op(B)ᵀ op(A)ᵀ; fma's product
// commutes exactly, so every output is still GemmReference's strict-k chain
// from +0.
//
// One task per kProductRows-row block and column (lane) block. A product
// worth spreading (kProductSplitWork) whose row blocks cannot occupy every
// thread splits its lanes as finely as 16, so each thread streams only its
// own 64-byte slice of every lane-operand row (e.g. the feature-interaction
// tile backward's dp, [B·T·C, 4]ᵀ x [B·T·C, 48]); otherwise a task spans all
// lanes and the lane operand streams once per row block. `copied` counts
// the floats MatMul copied transposed for the product.
struct ProductPlan {
  bool lanes_on_rows = false;  // lanes run along C's rows (output is Cᵀ)
  int64_t rows = 0;            // extent of the row side
  int64_t lanes = 0;           // extent of the lane side, its p stride
  int64_t rs = 0, ps = 0;      // strides of the row operand
  int64_t cols = 1;            // lanes per task
  int64_t tasks = 0;
  int64_t grain = 1;           // tasks per parallel chunk
};

ProductPlan PlanProduct(int64_t m, int64_t k, int64_t n, bool trans_a,
                        bool trans_b, int64_t threads, int64_t copied) {
  ProductPlan plan;
  plan.lanes_on_rows = trans_a && (trans_b || m > n);
  plan.rows = plan.lanes_on_rows ? n : m;
  plan.lanes = plan.lanes_on_rows ? m : n;
  // Row operand: B (element (j, p)) with lanes on rows, else A (i, p).
  const bool row_p_major = plan.lanes_on_rows ? !trans_b : trans_a;
  plan.rs = row_p_major ? 1 : k;
  plan.ps = row_p_major ? plan.rows : 1;
  if (plan.rows == 0 || plan.lanes == 0) return plan;
  const int64_t row_blocks = CeilDiv(plan.rows, kProductRows);
  const int64_t vecs = CeilDiv(plan.lanes, kProductLanes);
  const bool split = threads > 1 &&
                     plan.rows * vecs * k >= kProductSplitWork &&
                     m * k * n >= kCopyReuse * copied;
  const int64_t col_blocks =
      split ? std::min(vecs, CeilDiv(threads, row_blocks)) : 1;
  plan.cols = kProductLanes * CeilDiv(vecs, col_blocks);
  plan.tasks = row_blocks * CeilDiv(plan.lanes, plan.cols);
  const int64_t task_flops = std::max<int64_t>(
      1, kProductRows * std::min(plan.cols, plan.lanes) * k);
  plan.grain = split ? std::max<int64_t>(1, kMatMulGrainFlops / task_flops)
                     : plan.tasks;
  return plan;
}

// Runs tasks [t0, t1) of one product; tasks write disjoint outputs and
// overwrite them. Cᵀ blocks pass through a stack buffer, 48 lanes at a time.
void ProductTasks(const ProductPlan& plan, const float* a, const float* b,
                  float* c, int64_t k, int64_t n, int64_t t0, int64_t t1) {
  constexpr int64_t kChunk = 3 * kProductLanes;
  const float* lane = plan.lanes_on_rows ? a : b;
  const float* row = plan.lanes_on_rows ? b : a;
  const int64_t col_blocks = CeilDiv(plan.lanes, plan.cols);
  for (int64_t t = t0; t < t1; ++t) {
    const int64_t r0 = (t / col_blocks) * kProductRows;
    const int64_t l0 = (t % col_blocks) * plan.cols;
    const int64_t nr = std::min(kProductRows, plan.rows - r0);
    const int64_t nl = std::min(plan.cols, plan.lanes - l0);
    const Operand block{row + r0 * plan.rs, plan.rs, plan.ps};
    if (!plan.lanes_on_rows) {
      Product(block, nr, lane + l0, plan.lanes, k, nl, c + r0 * n + l0, n);
      continue;
    }
    float ct[kProductRows * kChunk];
    for (int64_t l = l0; l < l0 + nl; l += kChunk) {
      const int64_t w = std::min(kChunk, l0 + nl - l);
      Product(block, nr, lane + l, plan.lanes, k, w, ct, w);
      for (int64_t i = 0; i < w; ++i) {
        for (int64_t j = 0; j < nr; ++j) {
          c[(l + i) * n + r0 + j] = ct[j * w + i];
        }
      }
    }
  }
}

}  // namespace

void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool trans_a, bool trans_b) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc = std::fma(av, bv, acc);
      }
      c[i * n + j] = acc;
    }
  }
}

std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b) {
  const int64_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> out(rank, 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < static_cast<int64_t>(rank - a.size()) ? 1 : a[i - (rank - a.size())];
    const int64_t db =
        i < static_cast<int64_t>(rank - b.size()) ? 1 : b[i - (rank - b.size())];
    ELDA_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast" << ShapeToString(a) << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t, const std::vector<int64_t>& shape) {
  if (t.shape() == shape) return t;
  const int64_t rank = t.dim();
  const int64_t target_rank = static_cast<int64_t>(shape.size());
  ELDA_CHECK_LE(target_rank, rank);
  Tensor cur = t;
  // Sum away leading extra dims.
  for (int64_t i = 0; i < rank - target_rank; ++i) cur = Sum(cur, 0, false);
  // Sum (keepdims) over dims where the target is 1 but current is larger.
  for (int64_t i = 0; i < target_rank; ++i) {
    if (shape[i] == 1 && cur.shape(i) != 1) cur = Sum(cur, i, true);
  }
  ELDA_CHECK(cur.shape() == shape)
      << ShapeToString(t.shape()) << "->" << ShapeToString(shape);
  return cur;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast("Add", a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast("Sub", a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast("Mul", a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast("Div", a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast("Maximum", a, b,
                         [](float x, float y) { return std::max(x, y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp("AddScalar", a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp("MulScalar", a, [s](float x) { return x * s; });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp("Neg", a, [](float x) { return -x; });
}
// Exp/Sigmoid/Tanh dispatch whole chunks into the SIMD array kernels
// instead of a per-element functor; chunk boundaries cannot affect
// elementwise values, so any thread partition stays bitwise identical.
namespace {
template <void (*ArrayFn)(const float*, float*, int64_t)>
Tensor UnarySimd(const char* prof_name, const Tensor& a) {
  ELDA_PROF_SCOPE(prof_name);
  ELDA_CHECK(a.defined());
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ParallelFor(0, a.size(), par::kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     ArrayFn(pa + lo, po + lo, hi - lo);
                   });
  return out;
}
}  // namespace

Tensor Exp(const Tensor& a) { return UnarySimd<simd::ExpArray>("Exp", a); }
Tensor Log(const Tensor& a) {
  return UnaryOp("Log", a, [](float x) { return std::log(std::max(x, 1e-12f)); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp("Sqrt", a, [](float x) { return std::sqrt(x); });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp("Abs", a, [](float x) { return std::fabs(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryOp("Square", a, [](float x) { return x * x; });
}
Tensor Sigmoid(const Tensor& a) {
  return UnarySimd<simd::SigmoidArray>("Sigmoid", a);
}
Tensor Tanh(const Tensor& a) { return UnarySimd<simd::TanhArray>("Tanh", a); }
Tensor Relu(const Tensor& a) {
  return UnaryOp("Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Clip(const Tensor& a, float lo, float hi) {
  return UnaryOp("Clip", a,
                 [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}
Tensor Pow(const Tensor& a, float p) {
  return UnaryOp("Pow", a, [p](float x) { return std::pow(x, p); });
}
Tensor GreaterThanScalar(const Tensor& a, float s) {
  return UnaryOp("GreaterThanScalar", a,
                 [s](float x) { return x > s ? 1.0f : 0.0f; });
}
Tensor EqualScalar(const Tensor& a, float s, float tolerance) {
  return UnaryOp("EqualScalar", a, [s, tolerance](float x) {
    return std::fabs(x - s) <= tolerance ? 1.0f : 0.0f;
  });
}

// -- Fused elementwise chains ------------------------------------------------
//
// Each kernel runs a short composed chain (Add+Sigmoid, Relu+Neg+Exp, ...)
// as one pass over memory. Per element they evaluate exactly the float
// expression the composed kernels would, in the same order, against the
// same transcendental reference contract — so fused and composed paths are
// bitwise identical (tested in tests/simd_test.cc). RecordFusion feeds the
// ELDA_PROF fusion columns: kernel passes and temporary allocations the
// composed graph would have cost.

namespace {
constexpr int64_t kFloatBytes = static_cast<int64_t>(sizeof(float));

template <void (*ArrayFn)(const float*, const float*, float*, int64_t)>
Tensor FusedBinarySameShape(const Tensor& a, const Tensor& b) {
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  par::ParallelFor(0, a.size(), par::kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     ArrayFn(pa + lo, pb + lo, po + lo, hi - lo);
                   });
  return out;
}

// f(r0, r1) over `rows` rows of n, split across threads in whole four-row
// blocks: each row meets the simd rows kernels at the same block position
// for any thread count, so not even their documented NaN-sign latitude
// depends on the partition.
template <typename F>
void ForRowQuads(int64_t rows, int64_t n, const F& f) {
  const int64_t grain = std::max<int64_t>(1, par::kElementGrain / (4 * n));
  par::ParallelFor(0, (rows + 3) / 4, grain, [&](int64_t q0, int64_t q1) {
    f(4 * q0, std::min(4 * q1, rows));
  });
}
}  // namespace

Tensor AddSigmoid(const Tensor& a, const Tensor& b) {
  ELDA_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    ELDA_PROF_SCOPE("AddSigmoid");
    prof::RecordFusion(1, a.size() * kFloatBytes);
    return FusedBinarySameShape<simd::AddSigmoidArray>(a, b);
  }
  // Broadcast shapes fall back to the (scalar, still single-pass) broadcast
  // engine with the same per-element expression.
  return BinaryBroadcast("AddSigmoid", a, b, [](float x, float y) {
    return simd::SigmoidRef(x + y);
  });
}

Tensor AddTanh(const Tensor& a, const Tensor& b) {
  ELDA_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    ELDA_PROF_SCOPE("AddTanh");
    prof::RecordFusion(1, a.size() * kFloatBytes);
    return FusedBinarySameShape<simd::AddTanhArray>(a, b);
  }
  return BinaryBroadcast("AddTanh", a, b, [](float x, float y) {
    return simd::TanhRef(x + y);
  });
}

Tensor ExpNegRelu(const Tensor& a) {
  ELDA_PROF_SCOPE("ExpNegRelu");
  ELDA_CHECK(a.defined());
  prof::RecordFusion(2, 2 * a.size() * kFloatBytes);
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ParallelFor(0, a.size(), par::kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     simd::ExpNegReluArray(pa + lo, po + lo, hi - lo);
                   });
  return out;
}

Tensor SigmoidGrad(const Tensor& g, const Tensor& y) {
  ELDA_PROF_SCOPE("SigmoidGrad");
  ELDA_CHECK(g.shape() == y.shape());
  prof::RecordFusion(3, 3 * g.size() * kFloatBytes);
  return FusedBinarySameShape<simd::SigmoidGradArray>(g, y);
}

Tensor TanhGrad(const Tensor& g, const Tensor& y) {
  ELDA_PROF_SCOPE("TanhGrad");
  ELDA_CHECK(g.shape() == y.shape());
  prof::RecordFusion(3, 3 * g.size() * kFloatBytes);
  return FusedBinarySameShape<simd::TanhGradArray>(g, y);
}

Tensor ExpNegReluGrad(const Tensor& g, const Tensor& y, const Tensor& x) {
  ELDA_PROF_SCOPE("ExpNegReluGrad");
  ELDA_CHECK(g.shape() == y.shape());
  ELDA_CHECK(g.shape() == x.shape());
  prof::RecordFusion(3, 3 * g.size() * kFloatBytes);
  Tensor out = Tensor::Empty(g.shape());
  const float* pg = g.data();
  const float* py = y.data();
  const float* px = x.data();
  float* po = out.data();
  par::ParallelFor(0, g.size(), par::kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     simd::ExpNegReluGradArray(pg + lo, py + lo, px + lo,
                                               po + lo, hi - lo);
                   });
  return out;
}

Tensor SoftmaxLastAxisGrad(const Tensor& g, const Tensor& y) {
  ELDA_PROF_SCOPE("SoftmaxGrad");
  ELDA_CHECK(g.shape() == y.shape());
  const int64_t n = y.shape(-1);
  ELDA_CHECK_GT(n, 0);
  prof::RecordFusion(3, 3 * g.size() * kFloatBytes);
  Tensor out = Tensor::Empty(g.shape());
  const float* pg = g.data();
  const float* py = y.data();
  float* po = out.data();
  ForRowQuads(y.size() / n, n, [&](int64_t r0, int64_t r1) {
    simd::SoftmaxGradRows(pg + r0 * n, py + r0 * n, n, po + r0 * n, n,
                          r1 - r0, n);
  });
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  ELDA_PROF_SCOPE("MatMul");
  ELDA_CHECK(a.dim() >= 2 && b.dim() >= 2)
      << ShapeToString(a.shape()) << ShapeToString(b.shape());
  const int64_t am = a.shape(trans_a ? -1 : -2);
  const int64_t ak = a.shape(trans_a ? -2 : -1);
  const int64_t bk = b.shape(trans_b ? -1 : -2);
  const int64_t bn = b.shape(trans_b ? -2 : -1);
  ELDA_CHECK_EQ(ak, bk) << "matmul inner dims" << ShapeToString(a.shape())
                        << ShapeToString(b.shape());
  const int64_t a_mat = a.shape(-1) * a.shape(-2);
  const int64_t b_mat = b.shape(-1) * b.shape(-2);
  // max(.., 1) guards zero-sized matrices (a zero batch just runs no work).
  const int64_t a_batch = a.size() / std::max<int64_t>(a_mat, 1);
  const int64_t b_batch = b.size() / std::max<int64_t>(b_mat, 1);
  ELDA_CHECK(a_batch == b_batch || b_batch == 1 || a_batch == 1)
      << "matmul batch dims" << ShapeToString(a.shape())
      << ShapeToString(b.shape());
  const int64_t batch = std::max(a_batch, b_batch);

  std::vector<int64_t> out_shape;
  if (a_batch >= b_batch) {
    out_shape.assign(a.shape().begin(), a.shape().end() - 2);
  } else {
    out_shape.assign(b.shape().begin(), b.shape().end() - 2);
  }
  out_shape.push_back(am);
  out_shape.push_back(bn);
  Tensor out = Tensor::Empty(out_shape);
  // A batch of products runs each one serially inside its chunk.
  const int64_t item_threads = batch > 1 ? 1 : par::NumThreads();
  const bool packed = UsePackedGemm(am, ak, bn, item_threads);
  const float* base_a = a.data();
  const float* base_b = b.data();
  float* base_o = out.data();
  // Non-packed NT runs as NN or TT: Product needs one p-major side, so the
  // narrower side is copied transposed. A side that is one wide, or one
  // deep (k == 1), is stored the same either way and needs no copy; at
  // k == 1 that holds for both, and NN writes C directly.
  bool ta = trans_a, tb = trans_b;
  Tensor copy;
  if (!packed && !trans_a && trans_b) {
    if (bn <= am || ak == 1) {
      tb = false;
      if (bn > 1 && ak > 1) {
        copy = TransposeLast2(b);
        base_b = copy.data();
      }
    } else {
      ta = true;
      if (am > 1) {
        copy = TransposeLast2(a);
        base_a = copy.data();
      }
    }
  }
  const ProductPlan plan =
      packed ? ProductPlan{}
             : PlanProduct(am, ak, bn, ta, tb, item_threads,
                           copy.defined() ? copy.size() : 0);
  const int64_t flops_per_item = am * ak * bn;
  if (batch > 1) {
    // Flop-derived grain, capped to a few chunks per thread: a large batch
    // of small matrices (flops_per_item > kMatMulGrainFlops => grain 1)
    // must not degenerate into thousands of one-item chunks whose per-chunk
    // pool buffers and B-packing cost more than the GEMMs themselves —
    // which used to make 8 threads *slower* than 2 on BM_MatMulBatchedSmall.
    const int64_t grain = par::BalancedGrain(
        batch, kMatMulGrainFlops / std::max<int64_t>(1, flops_per_item));
    par::ParallelFor(0, batch, grain, [&](int64_t b0, int64_t b1) {
      if (packed) {
        mem::ScopedBuffer bp(PackedBFloats(ak, bn));
        mem::ScopedBuffer ap(std::max<int64_t>(ak, 1) * kMR);
        for (int64_t i = b0; i < b1; ++i) {
          const float* pa = base_a + (a_batch == 1 ? 0 : i * a_mat);
          const float* pb = base_b + (b_batch == 1 ? 0 : i * b_mat);
          // A shared B is packed once per chunk, per-item B every time.
          if (b_batch != 1 || i == b0) {
            PackBAll(pb, bp.data(), ak, bn, trans_b);
          }
          GemmPackedRows(pa, bp.data(), base_o + i * am * bn, am, ak, bn,
                         trans_a, 0, am, ap.data());
        }
        return;
      }
      for (int64_t i = b0; i < b1; ++i) {
        ProductTasks(plan, base_a + (a_batch == 1 ? 0 : i * a_mat),
                     base_b + (b_batch == 1 ? 0 : i * b_mat),
                     base_o + i * am * bn, ak, bn, 0, plan.tasks);
      }
    });
  } else if (packed) {
    // B's panels are disjoint, so they pack in parallel, one element grain
    // of packed floats per chunk.
    mem::ScopedBuffer bp(PackedBFloats(ak, bn));
    const int64_t pack_grain =
        std::max<int64_t>(1, par::kElementGrain / (ak * kNR));
    par::ParallelFor(0, CeilDiv(bn, kNR), pack_grain, [&](int64_t p0,
                                                          int64_t p1) {
      for (int64_t panel = p0; panel < p1; ++panel) {
        PackBPanel(base_b, bp.data() + panel * ak * kNR, ak, bn, panel * kNR,
                   trans_b);
      }
    });
    // Rows split in whole kMR blocks, so no chunk boundary leaves a
    // microtile running a handful of rows.
    const int64_t block_grain =
        std::max<int64_t>(1, kMatMulGrainFlops / (kMR * ak * bn));
    par::ParallelFor(0, CeilDiv(am, kMR), block_grain, [&](int64_t b0,
                                                            int64_t b1) {
      mem::ScopedBuffer ap(std::max<int64_t>(ak, 1) * kMR);
      GemmPackedRows(base_a, bp.data(), base_o, am, ak, bn, trans_a, b0 * kMR,
                     std::min(am, b1 * kMR), ap.data());
    });
  } else {
    par::ParallelFor(0, plan.tasks, plan.grain, [&](int64_t t0, int64_t t1) {
      ProductTasks(plan, base_a, base_b, base_o, ak, bn, t0, t1);
    });
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  ELDA_CHECK_EQ(a.dim(), 2);
  return TransposeLast2(a);
}

Tensor TransposeLast2(const Tensor& a) {
  ELDA_PROF_SCOPE("Transpose");
  ELDA_CHECK_GE(a.dim(), 2);
  const int64_t rows = a.shape(-2);
  const int64_t cols = a.shape(-1);
  const int64_t mat = rows * cols;
  const int64_t batch = a.size() / std::max<int64_t>(mat, 1);
  std::vector<int64_t> out_shape = a.shape();
  std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
  Tensor out = Tensor::Empty(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  // kTile x kTile blocks: each output row segment is written contiguously
  // from kTile source rows that stay in cache, where a row-at-a-time copy
  // strides every write by a whole output row.
  constexpr int64_t kTile = 16;
  const int64_t row_tiles = CeilDiv(rows, kTile);
  const int64_t grain = std::max<int64_t>(
      1, par::kElementGrain / std::max<int64_t>(1, kTile * cols));
  // Lane space: (batch, row tile) pairs; each lane writes kTile output
  // columns.
  par::ParallelFor(0, batch * row_tiles, grain, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int64_t i0 = (l % row_tiles) * kTile;
      const int64_t i1 = std::min(rows, i0 + kTile);
      const float* src = pa + (l / row_tiles) * mat;
      float* dst = po + (l / row_tiles) * mat;
      for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
        const int64_t j1 = std::min(cols, j0 + kTile);
        for (int64_t j = j0; j < j1; ++j) {
          for (int64_t i = i0; i < i1; ++i) {
            dst[j * rows + i] = src[i * cols + j];
          }
        }
      }
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  ELDA_PROF_SCOPE("Concat");
  ELDA_CHECK(!parts.empty());
  const int64_t rank = parts[0].dim();
  axis = NormalizeAxis(axis, rank);
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& p : parts) {
    ELDA_CHECK_EQ(p.dim(), rank);
    for (int64_t d = 0; d < rank; ++d) {
      if (d != axis) ELDA_CHECK_EQ(p.shape(d), out_shape[d]);
    }
    total_axis += p.shape(axis);
  }
  out_shape[axis] = total_axis;
  Tensor out = Tensor::Empty(out_shape);
  int64_t outer, n_unused, inner;
  AxisDecompose(out_shape, axis, &outer, &n_unused, &inner);
  // Per-part source pointer, copy length, and destination offset inside one
  // outer slice; the outer dimension is then partitioned across threads
  // (disjoint output ranges, so bitwise-deterministic for free).
  std::vector<const float*> srcs(parts.size());
  std::vector<int64_t> chunks(parts.size());
  std::vector<int64_t> offsets(parts.size());
  int64_t dst_offset = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    srcs[pi] = parts[pi].data();
    chunks[pi] = parts[pi].shape(axis) * inner;
    offsets[pi] = dst_offset;
    dst_offset += chunks[pi];
  }
  const int64_t row = total_axis * inner;  // floats per outer slice
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, row));
  par::ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      float* dst = po + o * row;
      for (size_t pi = 0; pi < srcs.size(); ++pi) {
        std::memcpy(dst + offsets[pi], srcs[pi] + o * chunks[pi],
                    static_cast<size_t>(chunks[pi]) * sizeof(float));
      }
    }
  });
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  ELDA_PROF_SCOPE("Slice");
  axis = NormalizeAxis(axis, a.dim());
  ELDA_CHECK(start >= 0 && len >= 0 && start + len <= a.shape(axis))
      << "slice [" << start << "," << start + len << ") of axis" << axis
      << "in" << ShapeToString(a.shape());
  std::vector<int64_t> out_shape = a.shape();
  out_shape[axis] = len;
  Tensor out = Tensor::Empty(out_shape);
  int64_t outer, n, inner;
  AxisDecompose(a.shape(), axis, &outer, &n, &inner);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t row = len * inner;
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, row));
  par::ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      std::memcpy(po + o * row, pa + (o * n + start) * inner,
                  static_cast<size_t>(row) * sizeof(float));
    }
  });
  return out;
}

Tensor Transpose01(const Tensor& a) {
  ELDA_PROF_SCOPE("Transpose01");
  ELDA_CHECK_GE(a.dim(), 2);
  const int64_t d0 = a.shape(0);
  const int64_t d1 = a.shape(1);
  const int64_t inner = a.size() / std::max<int64_t>(d0 * d1, 1);
  std::vector<int64_t> out_shape = a.shape();
  std::swap(out_shape[0], out_shape[1]);
  Tensor out = Tensor::Empty(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, inner));
  // Lane space: output (j, i) pairs; each lane copies one inner run.
  par::ParallelFor(0, d1 * d0, grain, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int64_t j = l / d0;
      const int64_t i = l % d0;
      std::memcpy(po + l * inner, pa + (i * d1 + j) * inner,
                  static_cast<size_t>(inner) * sizeof(float));
    }
  });
  return out;
}

Tensor ReverseAxis(const Tensor& a, int64_t axis) {
  ELDA_PROF_SCOPE("ReverseAxis");
  axis = NormalizeAxis(axis, a.dim());
  int64_t outer, n, inner;
  AxisDecompose(a.shape(), axis, &outer, &n, &inner);
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, inner));
  par::ParallelFor(0, outer * n, grain, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int64_t o = l / n;
      const int64_t i = l % n;
      std::memcpy(po + (o * n + i) * inner,
                  pa + (o * n + (n - 1 - i)) * inner,
                  static_cast<size_t>(inner) * sizeof(float));
    }
  });
  return out;
}

Tensor StackRows(const std::vector<Tensor>& parts) {
  ELDA_PROF_SCOPE("StackRows");
  ELDA_CHECK(!parts.empty());
  const std::vector<int64_t>& part_shape = parts[0].shape();
  const int64_t part_size = parts[0].size();
  std::vector<int64_t> out_shape;
  out_shape.reserve(part_shape.size() + 1);
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  out_shape.insert(out_shape.end(), part_shape.begin(), part_shape.end());
  Tensor out = Tensor::Empty(out_shape);
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, part_size));
  par::ParallelFor(
      0, static_cast<int64_t>(parts.size()), grain, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
          ELDA_CHECK(parts[p].shape() == part_shape)
              << "stack part" << p << ShapeToString(parts[p].shape()) << "vs"
              << ShapeToString(part_shape);
          std::memcpy(po + p * part_size, parts[p].data(),
                      static_cast<size_t>(part_size) * sizeof(float));
        }
      });
  return out;
}

namespace {

// One batch row of GruGates: gate activations r, z, n and h_t over the H
// hidden units, with r, z, n stored to `cap` rows when kCapture. Same float
// expressions, in the same order, as the composed
// Slice/Add/Sigmoid/Mul/Tanh/Sub kernels; the 8-lane body runs the same
// transcendental contract as the scalar tail (Sigmoid8/Tanh8 mirror
// SigmoidRef/TanhRef bitwise), so vector, tail and scalar-dispatch elements
// agree bit for bit.
template <bool kCapture>
void GruGatesRow(const float* xr, const float* ur, const float* hp,
                 int64_t hidden, bool vec, float* out, float* const* cap) {
  int64_t k = 0;
#if ELDA_SIMD_AVX2
  if (vec) {
    const __m256 one = _mm256_set1_ps(1.0f);
    for (; k + 8 <= hidden; k += 8) {
      const __m256 r = simd::Sigmoid8(
          _mm256_add_ps(_mm256_loadu_ps(xr + k), _mm256_loadu_ps(ur + k)));
      const __m256 z = simd::Sigmoid8(
          _mm256_add_ps(_mm256_loadu_ps(xr + hidden + k),
                        _mm256_loadu_ps(ur + hidden + k)));
      const __m256 n = simd::Tanh8(_mm256_add_ps(
          _mm256_loadu_ps(xr + 2 * hidden + k),
          _mm256_mul_ps(r, _mm256_loadu_ps(ur + 2 * hidden + k))));
      const __m256 h_next =
          _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(one, z), n),
                        _mm256_mul_ps(z, _mm256_loadu_ps(hp + k)));
      _mm256_storeu_ps(out + k, h_next);
      if constexpr (kCapture) {
        _mm256_storeu_ps(cap[0] + k, r);
        _mm256_storeu_ps(cap[1] + k, z);
        _mm256_storeu_ps(cap[2] + k, n);
      }
    }
  }
#else
  (void)vec;
#endif
  for (; k < hidden; ++k) {
    const float r = SigmoidScalar(xr[k] + ur[k]);
    const float z = SigmoidScalar(xr[hidden + k] + ur[hidden + k]);
    const float n = TanhScalar(xr[2 * hidden + k] + (r * ur[2 * hidden + k]));
    out[k] = ((1.0f - z) * n) + (z * hp[k]);
    if constexpr (kCapture) {
      cap[0][k] = r;
      cap[1][k] = z;
      cap[2][k] = n;
    }
  }
}

// One batch row of LstmGates: gates i, f, g, o, c_t and h_t, with i, f, g,
// o and tanh(c_t) stored to `cap` rows when kCapture. Gate pre-activations
// exactly as Add(Add(xw, hu), bias); the 8-lane body mirrors the scalar
// expressions op for op (see GruGatesRow).
template <bool kCapture>
void LstmGatesRow(const float* xr, const float* ur, const float* pb,
                  const float* cp, int64_t hidden, bool vec, float* hr,
                  float* cr, float* const* cap) {
  int64_t k = 0;
#if ELDA_SIMD_AVX2
  if (vec) {
    const auto pre = [&](int gate) {
      const int64_t at = gate * hidden + k;
      return _mm256_add_ps(
          _mm256_add_ps(_mm256_loadu_ps(xr + at), _mm256_loadu_ps(ur + at)),
          _mm256_loadu_ps(pb + at));
    };
    for (; k + 8 <= hidden; k += 8) {
      const __m256 i_g = simd::Sigmoid8(pre(0));
      const __m256 f_g = simd::Sigmoid8(pre(1));
      const __m256 g_g = simd::Tanh8(pre(2));
      const __m256 o_g = simd::Sigmoid8(pre(3));
      const __m256 c_new =
          _mm256_add_ps(_mm256_mul_ps(f_g, _mm256_loadu_ps(cp + k)),
                        _mm256_mul_ps(i_g, g_g));
      const __m256 tc = simd::Tanh8(c_new);
      _mm256_storeu_ps(hr + k, _mm256_mul_ps(o_g, tc));
      _mm256_storeu_ps(cr + k, c_new);
      if constexpr (kCapture) {
        _mm256_storeu_ps(cap[0] + k, i_g);
        _mm256_storeu_ps(cap[1] + k, f_g);
        _mm256_storeu_ps(cap[2] + k, g_g);
        _mm256_storeu_ps(cap[3] + k, o_g);
        _mm256_storeu_ps(cap[4] + k, tc);
      }
    }
  }
#else
  (void)vec;
#endif
  for (; k < hidden; ++k) {
    const float i = SigmoidScalar((xr[k] + ur[k]) + pb[k]);
    const float f =
        SigmoidScalar((xr[hidden + k] + ur[hidden + k]) + pb[hidden + k]);
    const float g = TanhScalar((xr[2 * hidden + k] + ur[2 * hidden + k]) +
                               pb[2 * hidden + k]);
    const float o = SigmoidScalar((xr[3 * hidden + k] + ur[3 * hidden + k]) +
                                  pb[3 * hidden + k]);
    const float c_new = (f * cp[k]) + (i * g);
    const float tc = TanhScalar(c_new);
    hr[k] = o * tc;
    cr[k] = c_new;
    if constexpr (kCapture) {
      cap[0][k] = i;
      cap[1][k] = f;
      cap[2][k] = g;
      cap[3][k] = o;
      cap[4][k] = tc;
    }
  }
}

}  // namespace

Tensor GruGates(const Tensor& xw, const Tensor& hu, const Tensor& h,
                Tensor* r_out, Tensor* z_out, Tensor* n_out) {
  ELDA_PROF_SCOPE("GruGates");
  ELDA_CHECK_EQ(xw.dim(), 2);
  const int64_t batch = xw.shape(0);
  const int64_t hidden = xw.shape(1) / 3;
  ELDA_CHECK_EQ(xw.shape(1), 3 * hidden);
  ELDA_CHECK(hu.shape() == xw.shape());
  ELDA_CHECK(h.shape() == (std::vector<int64_t>{batch, hidden}));
  Tensor h_new = Tensor::Empty({batch, hidden});
  Tensor* const captures[3] = {r_out, z_out, n_out};
  const bool capture = r_out != nullptr;
  float* cap[3] = {};
  if (capture) {
    for (int q = 0; q < 3; ++q) {
      *captures[q] = Tensor::Empty({batch, hidden});
      cap[q] = captures[q]->data();
    }
  }
  const float* pxw = xw.data();
  const float* phu = hu.data();
  const float* ph = h.data();
  float* po = h_new.data();
  prof::RecordFusion(10, 10 * batch * hidden *
                             static_cast<int64_t>(sizeof(float)));
  const bool vec = simd::Enabled();
  const int64_t row_grain =
      std::max<int64_t>(1, par::kElementGrain / (3 * hidden));
  par::ParallelFor(0, batch, row_grain, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* xr = pxw + b * 3 * hidden;
      const float* ur = phu + b * 3 * hidden;
      const float* hp = ph + b * hidden;
      float* out = po + b * hidden;
      if (capture) {
        float* const rows[3] = {cap[0] + b * hidden, cap[1] + b * hidden,
                                cap[2] + b * hidden};
        GruGatesRow<true>(xr, ur, hp, hidden, vec, out, rows);
      } else {
        GruGatesRow<false>(xr, ur, hp, hidden, vec, out, nullptr);
      }
    }
  });
  return h_new;
}

Tensor LstmGates(const Tensor& xw, const Tensor& hu, const Tensor& bias,
                 const Tensor& c, Tensor* i_out, Tensor* f_out, Tensor* g_out,
                 Tensor* o_out, Tensor* tc_out) {
  ELDA_PROF_SCOPE("LstmGates");
  ELDA_CHECK_EQ(xw.dim(), 2);
  const int64_t batch = xw.shape(0);
  const int64_t hidden = xw.shape(1) / 4;
  ELDA_CHECK_EQ(xw.shape(1), 4 * hidden);
  ELDA_CHECK(hu.shape() == xw.shape());
  ELDA_CHECK_EQ(bias.size(), 4 * hidden);
  ELDA_CHECK(c.shape() == (std::vector<int64_t>{batch, hidden}));
  Tensor packed = Tensor::Empty({2, batch, hidden});
  Tensor* const captures[5] = {i_out, f_out, g_out, o_out, tc_out};
  const bool capture = i_out != nullptr;
  float* cap[5] = {};
  if (capture) {
    for (int q = 0; q < 5; ++q) {
      *captures[q] = Tensor::Empty({batch, hidden});
      cap[q] = captures[q]->data();
    }
  }
  const float* pxw = xw.data();
  const float* phu = hu.data();
  const float* pb = bias.data();
  const float* pc = c.data();
  float* ph_new = packed.data();
  float* pc_new = packed.data() + batch * hidden;
  prof::RecordFusion(16, 16 * batch * hidden *
                             static_cast<int64_t>(sizeof(float)));
  const bool vec = simd::Enabled();
  const int64_t row_grain =
      std::max<int64_t>(1, par::kElementGrain / (4 * hidden));
  par::ParallelFor(0, batch, row_grain, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* xr = pxw + b * 4 * hidden;
      const float* ur = phu + b * 4 * hidden;
      const float* cp = pc + b * hidden;
      float* hr = ph_new + b * hidden;
      float* cr = pc_new + b * hidden;
      if (capture) {
        float* rows[5];
        for (int q = 0; q < 5; ++q) rows[q] = cap[q] + b * hidden;
        LstmGatesRow<true>(xr, ur, pb, cp, hidden, vec, hr, cr, rows);
      } else {
        LstmGatesRow<false>(xr, ur, pb, cp, hidden, vec, hr, cr, nullptr);
      }
    }
  });
  return packed;
}

// -- Feature-interaction tile --------------------------------------------------
//
// Per (b, t) tile these kernels replay the composed chain's float sequence
// element for element: every product is a strict-k std::fma chain from +0
// (GemmReference), every elementwise step keeps the composed operand order,
// and every row is SoftmaxRow's / SoftmaxGradRow's, bitwise up to a NaN's
// sign bit (simd_math.h's rows kernels, the bodies the Softmax op runs
// too). The products
// keep blocks of independent chains in registers so they vectorize and
// overlap, while each output's own chain still steps through k in ascending
// order. Tiles share nothing, so any partition over threads is bitwise
// identical.

namespace {

constexpr float kDiagMask = -1e9f;

struct TileShape {
  int64_t n;  // tiles: the product of e's leading dims
  int64_t c;  // features
  int64_t e;  // embedding width
  int64_t d;  // compression
};

TileShape CheckTileShapes(const Tensor& e, const Tensor& w, const Tensor& b,
                          const Tensor& p) {
  ELDA_CHECK_GE(e.dim(), 3);
  TileShape s;
  s.c = e.shape(-2);
  s.e = e.shape(-1);
  s.n = e.size() / std::max<int64_t>(s.c * s.e, 1);
  ELDA_CHECK(w.shape() == (std::vector<int64_t>{s.c, s.e}))
      << ShapeToString(w.shape());
  ELDA_CHECK(b.shape() == (std::vector<int64_t>{s.c}))
      << ShapeToString(b.shape());
  ELDA_CHECK(p.dim() == 2 && p.shape(0) == 2 * s.e)
      << ShapeToString(p.shape());
  s.d = p.shape(1);
  return s;
}

// e's leading dims followed by `tail`.
std::vector<int64_t> TileOutShape(const Tensor& e,
                                  std::initializer_list<int64_t> tail) {
  std::vector<int64_t> shape(e.shape().begin(), e.shape().end() - 2);
  shape.insert(shape.end(), tail);
  return shape;
}

// Per-thread scratch for one tile. Feature-indexed rows are padded to
// cp = C rounded up to 8 lanes; the pad lanes of eᵀ stay zero, so whole
// 8-lane blocks can run over them (their outputs are never read).
struct TileScratch {
  TileScratch(int64_t c, int64_t e)
      : cp((c + 7) & ~int64_t{7}),
        buf(e * cp + c * cp + 4 * c * e),
        et(buf.data()),
        alpha(et + e * cp),
        u(alpha + c * cp),
        wt(u + c * e),
        relu(wt + c * e) {
    std::memset(buf.data(), 0, static_cast<size_t>(e * cp) * sizeof(float));
  }
  const int64_t cp;
  mem::ScopedBuffer buf;
  float* et;     // [E, cp] eᵀ
  float* alpha;  // [C, cp] scores, then α in place
  float* u;      // [C, E] W ⊙ e
  float* wt;     // [C, E] α e
  float* relu;   // [C, 2E] relu([e ; c]) when the caller keeps no slab
};

#if ELDA_SIMD_AVX2
// The 8x8 block of `src` (rows `ls` apart) transposed into `dst` (rows `ld`
// apart) through registers: values are moved, never changed.
inline void Transpose8x8(const float* src, int64_t ls, float* dst,
                         int64_t ld) {
  __m256 r[8], t[8];
  for (int q = 0; q < 8; ++q) r[q] = _mm256_loadu_ps(src + q * ls);
  for (int q = 0; q < 8; q += 2) {
    t[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
    t[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
  }
  for (int q = 0; q < 8; q += 4) {
    r[q] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int q = 0; q < 4; ++q) {
    _mm256_storeu_ps(dst + q * ld,
                     _mm256_permute2f128_ps(r[q], r[q + 4], 0x20));
    _mm256_storeu_ps(dst + (q + 4) * ld,
                     _mm256_permute2f128_ps(r[q], r[q + 4], 0x31));
  }
}
#endif

// u = W ⊙ e and eᵀ [E, cp] for one tile ev [C, E]. eᵀ goes in 8x8 register
// transposes where SIMD is on, with scalar edges for C and E outside whole
// blocks; pad lanes j >= C are never written, so they stay zero.
void TileTransposeAndScale(const float* __restrict__ ev,
                           const float* __restrict__ w, int64_t C, int64_t E,
                           int64_t cp, float* __restrict__ u,
                           float* __restrict__ et) {
  for (int64_t i = 0; i < C * E; ++i) u[i] = ev[i] * w[i];
  int64_t c8 = 0, e8 = 0;
#if ELDA_SIMD_AVX2
  if (simd::Enabled()) {
    c8 = C & ~int64_t{7};
    e8 = E & ~int64_t{7};
    for (int64_t j = 0; j < c8; j += 8) {
      for (int64_t k = 0; k < e8; k += 8) {
        Transpose8x8(ev + j * E + k, E, et + k * cp + j, cp);
      }
    }
  }
#endif
  // The rows below c8 past column e8, then every column of the rows from c8.
  for (int64_t j = 0; j < C; ++j) {
    for (int64_t k = j < c8 ? e8 : 0; k < E; ++k) {
      et[k * cp + j] = ev[j * E + k];
    }
  }
}

// The forward chain of one tile ev [C, E] up to relu([e ; e ⊙ α e]),
// written row-major [C, 2E] to `r`, with eᵀ, u, α and α e left in `s`.
void TileForward(const float* ev, const float* w, const float* b, int64_t C,
                 int64_t E, TileScratch* s, float* __restrict__ r) {
  const int64_t cp = s->cp;
  TileTransposeAndScale(ev, w, C, E, cp, s->u, s->et);
  Product({s->u, E, 1}, C, s->et, cp, E, cp, s->alpha, cp);
  // Bias, then the diagonal exclusion (the composed graph's two broadcast
  // adds, +0 off the diagonal included), then the softmax.
  simd::BiasedSoftmaxRows(s->alpha, cp, C, C, b, 0, kDiagMask);
  Product({s->alpha, cp, 1}, C, ev, E, C, E, s->wt, E);
  for (int64_t i = 0; i < C; ++i) {
    const float* __restrict__ erow = ev + i * E;
    const float* __restrict__ wrow = s->wt + i * E;
    float* __restrict__ rrow = r + i * 2 * E;
    for (int64_t k = 0; k < E; ++k) {
      const float context = erow[k] * wrow[k];
      rrow[k] = erow[k] > 0.0f ? erow[k] : 0.0f;
      rrow[E + k] = context > 0.0f ? context : 0.0f;
    }
  }
}

// Backward through the relu and c = e ⊙ (α e) for one tile: dwt = d(α e)
// and, when de is non-null, de's first two terms. The relu mask is the
// product x * float(r > 0) — the composed graph's Mul by GreaterThanScalar,
// NaN and −0 included — written branch-free so the loops vectorise.
void ReluMaskBackward(const float* __restrict__ dr,
                      const float* __restrict__ r,
                      const float* __restrict__ ev,
                      const float* __restrict__ wt, int64_t C, int64_t E,
                      float* __restrict__ dwt, float* __restrict__ de) {
  const int64_t K = 2 * E;
  for (int64_t i = 0; i < C; ++i) {
    const float* __restrict__ drow = dr + i * K;
    const float* __restrict__ rrow = r + i * K;
    const float* __restrict__ erow = ev + i * E;
    float* __restrict__ dwrow = dwt + i * E;
    if (de == nullptr) {
      for (int64_t k = 0; k < E; ++k) {
        const float dctx =
            drow[E + k] * static_cast<float>(rrow[E + k] > 0.0f);
        dwrow[k] = dctx * erow[k];
      }
      continue;
    }
    const float* __restrict__ wrow = wt + i * E;
    float* __restrict__ derow = de + i * E;
    for (int64_t k = 0; k < E; ++k) {
      const float dctx = drow[E + k] * static_cast<float>(rrow[E + k] > 0.0f);
      dwrow[k] = dctx * erow[k];
      derow[k] = drow[k] * static_cast<float>(rrow[k] > 0.0f) + dctx * wrow[k];
    }
  }
}

}  // namespace

Tensor FeatureInteractionTile(const Tensor& e, const Tensor& w,
                              const Tensor& b, const Tensor& p,
                              Tensor* alpha_out) {
  ELDA_PROF_SCOPE("FeatureInteractionTile");
  const TileShape ts = CheckTileShapes(e, w, b, p);
  const int64_t C = ts.c, E = ts.e, D = ts.d, K = 2 * ts.e;
  // The composed chain's four [N,C,C]- and eight [N,C,E]-sized temporaries.
  prof::RecordFusion(10, ts.n * (4 * C * C + 8 * C * E) * kFloatBytes);
  Tensor out = Tensor::Empty(TileOutShape(e, {C * D}));
  float* pa = nullptr;
  if (alpha_out != nullptr) {
    *alpha_out = Tensor::Empty(TileOutShape(e, {C, C}));
    pa = alpha_out->data();
  }
  const float* pe = e.data();
  const float* pw = w.data();
  const float* pb = b.data();
  const float* pp = p.data();
  float* po = out.data();
  par::ParallelFor(
      0, ts.n, par::BalancedGrain(ts.n, 1), [&](int64_t n0, int64_t n1) {
        TileScratch s(C, E);
        for (int64_t n = n0; n < n1; ++n) {
          TileForward(pe + n * C * E, pw, pb, C, E, &s, s.relu);
          if (pa != nullptr) {
            for (int64_t i = 0; i < C; ++i) {
              std::memcpy(pa + (n * C + i) * C, s.alpha + i * s.cp,
                          static_cast<size_t>(C) * sizeof(float));
            }
          }
          // f = relu([e ; c]) p: each f[i, q] the strict-k chain of relu
          // row i against p column q.
          Product({s.relu, K, 1}, C, pp, D, K, D, po + n * C * D, D);
        }
      });
  return out;
}

FeatureInteractionTileGrads FeatureInteractionTileBackward(
    const Tensor& e, const Tensor& w, const Tensor& b, const Tensor& p,
    const Tensor& g, bool want_de) {
  ELDA_PROF_SCOPE("FeatureInteractionTileGrad");
  const TileShape ts = CheckTileShapes(e, w, b, p);
  const int64_t N = ts.n, C = ts.c, E = ts.e, D = ts.d, K = 2 * ts.e;
  ELDA_CHECK_EQ(g.size(), N * C * D);
  FeatureInteractionTileGrads grads;
  if (want_de) grads.de = Tensor::Empty(e.shape());
  Tensor du_e = Tensor::Empty({N, C, E});
  Tensor dscores = Tensor::Empty({N, C, C});
  Tensor relu = Tensor::Empty({N, C, K});
  const Tensor pt = Transpose(p);  // [D, 2E]: rows of d relu run contiguously
  const float* pe = e.data();
  const float* pw = w.data();
  const float* pb = b.data();
  const float* ppt = pt.data();
  const float* pg = g.data();
  float* pde = want_de ? grads.de.data() : nullptr;
  float* pdue = du_e.data();
  float* pds = dscores.data();
  float* pr = relu.data();
  par::ParallelFor(0, N, par::BalancedGrain(N, 1), [&](int64_t n0, int64_t n1) {
    TileScratch s(C, E);
    const int64_t cp = s.cp;
    mem::ScopedBuffer grad_buf(C * K + C * cp + 4 * C * E);
    float* dr = grad_buf.data();  // [C, 2E] d relu([e ; c])
    float* da = dr + C * K;       // [C, cp] dα
    float* dwt = da + C * cp;     // [C, E] d(α e)
    float* t1 = dwt + C * E;      // [C, E]
    float* t2 = t1 + C * E;       // [C, E]
    float* du = t2 + C * E;       // [C, E]
    for (int64_t n = n0; n < n1; ++n) {
      const float* ev = pe + n * C * E;
      float* r = pr + n * C * K;
      float* ds = pds + n * C * C;
      float* de = pde != nullptr ? pde + n * C * E : nullptr;
      TileForward(ev, pw, pb, C, E, &s, r);
      // Backward through f = r p, the relu, the concat and c = e ⊙ (α e),
      // then dα and the softmax. de starts as its concat slice plus the
      // context term: the first two of e's five uses.
      Product({pg + n * C * D, D, 1}, C, ppt, K, D, K, dr, K);
      ReluMaskBackward(dr, r, ev, s.wt, C, E, dwt, de);
      Product({dwt, E, 1}, C, s.et, cp, E, cp, da, cp);
      simd::SoftmaxGradRows(da, s.alpha, cp, ds, C, C, C);
      // e's third and fourth uses: α e's right operand, then the scores' eᵀ.
      if (de != nullptr) {
        Product({s.alpha, 1, cp}, C, dwt, E, C, E, t1, E);
        Product({ds, 1, C}, C, s.u, E, C, E, t2, E);
        for (int64_t i = 0; i < C * E; ++i) de[i] = (de[i] + t1[i]) + t2[i];
      }
      // du = dscores e: the fifth use (u = W ⊙ e) and the dW slab.
      Product({ds, C, 1}, C, ev, E, C, E, du, E);
      float* due = pdue + n * C * E;
      for (int64_t i = 0; i < C * E; ++i) due[i] = du[i] * ev[i];
      if (de != nullptr) {
        for (int64_t i = 0; i < C * E; ++i) de[i] = de[i] + du[i] * pw[i];
      }
    }
  });
  // Phase 2: the composed tape's own reductions over the same slabs. dp is
  // formed as (gᵀ relu)ᵀ rather than reluᵀ g: every element is the same
  // row-ascending fma chain (an fma's product is commutative), but this
  // orientation is a skinny TN product (D rows), which MatMul runs as
  // register-blocked tasks that each stream one column slice of the slab.
  grads.dw = ReduceToShape(du_e, {C, E});
  grads.db = ReduceToShape(dscores, {C, 1}).Reshape({C});
  grads.dp = Transpose(
      MatMul(g.Reshape({N * C, D}), relu.Reshape({N * C, K}), true, false));
  return grads;
}

namespace {

struct EmbeddingDims {
  int64_t b, t, c;
};

EmbeddingDims CheckEmbeddingInputs(const Tensor& x, const Tensor& never) {
  ELDA_CHECK_EQ(x.dim(), 3) << ShapeToString(x.shape());
  const EmbeddingDims d{x.shape(0), x.shape(1), x.shape(2)};
  if (never.defined()) {
    ELDA_CHECK(never.shape() == (std::vector<int64_t>{d.b, 1, d.c, 1}))
        << ShapeToString(never.shape());
  }
  return d;
}

// Eq. 2's interpolation weights for one value, as the composed chain forms
// them: AddScalar(x, -a) then MulScalar by 1 / (b - a), and MulScalar(x, -1)
// then AddScalar(b) then the same MulScalar.
void AnchorWeights(float x, const EmbeddingSpec& spec, float* wa, float* wb) {
  const float inv_range = 1.0f / (spec.upper - spec.lower);
  *wa = (x + -spec.lower) * inv_range;
  *wb = ((x * -1.0f) + spec.upper) * inv_range;
}

// The star variants' zero selector: EqualScalar(x, 0, 1e-6).
float ZeroSelector(float x) {
  return std::fabs(x - 0.0f) <= 1e-6f ? 1.0f : 0.0f;
}

}  // namespace

Tensor BiDirectionalEmbedding(const Tensor& x, const Tensor& va,
                              const Tensor& vb, const Tensor& vm,
                              const Tensor& never, const EmbeddingSpec& spec) {
  ELDA_PROF_SCOPE("BiDirectionalEmbedding");
  const EmbeddingDims d = CheckEmbeddingInputs(x, never);
  const int64_t T = d.t, C = d.c, E = va.shape(-1);
  ELDA_CHECK(va.shape() == (std::vector<int64_t>{C, E}))
      << ShapeToString(va.shape());
  ELDA_CHECK_EQ(spec.bi, vb.defined());
  if (spec.bi) ELDA_CHECK(vb.shape() == va.shape());
  const bool with_vm = vm.defined();
  ELDA_CHECK_EQ(with_vm, never.defined());
  if (with_vm) ELDA_CHECK(vm.shape() == va.shape());
  const int64_t rows = d.b * T;
  // The composed chain's [B, T, C, E] passes: the table products and their
  // sum (or the FM product), plus a multiply and an add per star / V_m stage.
  const int64_t passes =
      (spec.bi ? 3 : 1) + (spec.star ? 2 : 0) + (with_vm ? 2 : 0);
  prof::RecordFusion(passes - 1, (passes - 1) * rows * C * E * kFloatBytes);
  Tensor out = Tensor::Empty({d.b, T, C, E});
  const float* px = x.data();
  const float* pva = va.data();
  const float* pvb = spec.bi ? vb.data() : nullptr;
  const float* pvm = with_vm ? vm.data() : nullptr;
  const float* pn = with_vm ? never.data() : nullptr;
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, C * E));
  par::ParallelFor(0, rows, grain, [&](int64_t n0, int64_t n1) {
    for (int64_t n = n0; n < n1; ++n) {
      for (int64_t c = 0; c < C; ++c) {
        const float xv = px[n * C + c];
        const float* __restrict__ a = pva + c * E;
        float* __restrict__ o = po + (n * C + c) * E;
        if (spec.bi) {
          float wa, wb;
          AnchorWeights(xv, spec, &wa, &wb);
          const float* __restrict__ b = pvb + c * E;
          for (int64_t k = 0; k < E; ++k) o[k] = (wa * a[k]) + (wb * b[k]);
        } else {
          for (int64_t k = 0; k < E; ++k) o[k] = xv * a[k];
        }
        if (spec.star) {
          const float sel = ZeroSelector(xv);
          const float keep = 1.0f - sel;
          for (int64_t k = 0; k < E; ++k) o[k] = (o[k] * keep) + sel;
        }
        if (with_vm) {
          const float nv = pn[(n / T) * C + c];
          const float keep = 1.0f - nv;
          const float* __restrict__ m = pvm + c * E;
          for (int64_t k = 0; k < E; ++k) o[k] = (o[k] * keep) + (nv * m[k]);
        }
      }
    }
  });
  return out;
}

BiDirectionalEmbeddingGrads BiDirectionalEmbeddingBackward(
    const Tensor& x, const Tensor& never, const Tensor& g,
    const EmbeddingSpec& spec, bool want_va, bool want_vb, bool want_vm) {
  ELDA_PROF_SCOPE("BiDirectionalEmbeddingGrad");
  const EmbeddingDims d = CheckEmbeddingInputs(x, never);
  const int64_t B = d.b, T = d.t, C = d.c;
  ELDA_CHECK_EQ(g.dim(), 4);
  const int64_t E = g.shape(3);
  ELDA_CHECK(g.shape() == (std::vector<int64_t>{B, T, C, E}))
      << ShapeToString(g.shape());
  const bool with_vm = never.defined();
  ELDA_CHECK(!want_vb || spec.bi);
  ELDA_CHECK(!want_vm || with_vm);
  BiDirectionalEmbeddingGrads grads;
  if (B * T == 0) {
    // An empty batch contributes zero gradients.
    if (want_va) grads.dva = Tensor({C, E});
    if (want_vb) grads.dvb = Tensor({C, E});
    if (want_vm) grads.dvm = Tensor({C, E});
    return grads;
  }
  if (want_va) grads.dva = Tensor::Empty({C, E});
  if (want_vb) grads.dvb = Tensor::Empty({C, E});
  if (want_vm) grads.dvm = Tensor::Empty({C, E});
  const bool want_tables = want_va || want_vb;
  const float* px = x.data();
  const float* pn = with_vm ? never.data() : nullptr;
  const float* pg = g.data();
  // Features are independent, so chunks own a feature range and stream
  // every (b, t) row of it: each gradient element is one thread's serial
  // chain, whatever the partition. One range per thread keeps each row's
  // slice long and contiguous.
  const int64_t threads = par::NumThreads();
  par::ParallelFor(0, C, (C + threads - 1) / threads, [&](int64_t c0,
                                                          int64_t c1) {
    const int64_t w = (c1 - c0) * E;
    mem::ScopedBuffer buf(2 * T * w + 2 * w);
    float* sa = buf.data();  // [T, w] per-t running sums over b, V_a products
    float* sb = sa + T * w;  // [T, w] the same for V_b
    float* gt = sb + T * w;  // [w] row b's sum of g over t
    float* rm = gt + w;      // [w] running sum over b of gt * never
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t t = 0; t < T; ++t) {
        const int64_t n = b * T + t;
        for (int64_t c = c0; c < c1; ++c) {
          const int64_t off = (c - c0) * E;
          const float* __restrict__ grow = pg + (n * C + c) * E;
          if (want_vm) {
            float* __restrict__ m = gt + off;
            if (t == 0) {
              for (int64_t k = 0; k < E; ++k) m[k] = grow[k];
            } else {
              for (int64_t k = 0; k < E; ++k) m[k] = m[k] + grow[k];
            }
          }
          if (!want_tables) continue;
          // The gradient reaching the table products is g * (1 - n), then
          // * (1 - s); a stage the variant lacks multiplies by 1, exactly.
          const float xv = px[n * C + c];
          const float keep_n = with_vm ? 1.0f - pn[b * C + c] : 1.0f;
          const float keep_s = spec.star ? 1.0f - ZeroSelector(xv) : 1.0f;
          float wa = xv, wb = 0.0f;
          if (spec.bi) AnchorWeights(xv, spec, &wa, &wb);
          float* __restrict__ a = sa + t * w + off;
          float* __restrict__ bb = sb + t * w + off;
          if (b == 0) {
            for (int64_t k = 0; k < E; ++k) {
              const float gk = (grow[k] * keep_n) * keep_s;
              a[k] = gk * wa;
              bb[k] = gk * wb;
            }
          } else {
            for (int64_t k = 0; k < E; ++k) {
              const float gk = (grow[k] * keep_n) * keep_s;
              a[k] = a[k] + gk * wa;
              bb[k] = bb[k] + gk * wb;
            }
          }
        }
      }
      if (want_vm) {
        for (int64_t c = c0; c < c1; ++c) {
          const float nv = pn[b * C + c];
          const int64_t off = (c - c0) * E;
          for (int64_t k = 0; k < E; ++k) {
            const float p = gt[off + k] * nv;
            rm[off + k] = b == 0 ? p : rm[off + k] + p;
          }
        }
      }
    }
    // Then the sum over t, from t = 0's value.
    auto fold_t = [&](const float* s, float* out) {
      std::memcpy(out, s, static_cast<size_t>(w) * sizeof(float));
      for (int64_t t = 1; t < T; ++t) {
        const float* row = s + t * w;
        for (int64_t i = 0; i < w; ++i) out[i] = out[i] + row[i];
      }
    };
    if (want_va) fold_t(sa, grads.dva.data() + c0 * E);
    if (want_vb) fold_t(sb, grads.dvb.data() + c0 * E);
    if (want_vm) {
      std::memcpy(grads.dvm.data() + c0 * E, rm,
                  static_cast<size_t>(w) * sizeof(float));
    }
  });
  return grads;
}

namespace {

// Lanes of one axis-sum block: a block's partial sums stay in registers
// across the whole reduced axis.
constexpr int64_t kSumBlock = 64;

// One block of an axis sum: dst[i] = (src[i] + src[inner + i] + ... ) for
// i < width, k ascending, then * *scale when scale is non-null.
void AxisSumBlock(const float* __restrict__ src, float* __restrict__ dst,
                  int64_t n, int64_t inner, int64_t width,
                  const float* scale) {
#if defined(__AVX512F__) && defined(__FMA__)
  if (width >= 16) {
    // Four masked vectors cover the block; a vector past `width` has an
    // empty mask, so it neither loads nor stores.
    __mmask16 mask[4];
    for (int64_t v = 0; v < 4; ++v) {
      const int64_t lanes = std::clamp<int64_t>(width - 16 * v, 0, 16);
      mask[v] = static_cast<__mmask16>((1u << lanes) - 1u);
    }
    __m512 s0 = _mm512_maskz_loadu_ps(mask[0], src);
    __m512 s1 = _mm512_maskz_loadu_ps(mask[1], src + 16);
    __m512 s2 = _mm512_maskz_loadu_ps(mask[2], src + 32);
    __m512 s3 = _mm512_maskz_loadu_ps(mask[3], src + 48);
    for (int64_t kk = 1; kk < n; ++kk) {
      const float* row = src + kk * inner;
      s0 = _mm512_add_ps(s0, _mm512_maskz_loadu_ps(mask[0], row));
      s1 = _mm512_add_ps(s1, _mm512_maskz_loadu_ps(mask[1], row + 16));
      s2 = _mm512_add_ps(s2, _mm512_maskz_loadu_ps(mask[2], row + 32));
      s3 = _mm512_add_ps(s3, _mm512_maskz_loadu_ps(mask[3], row + 48));
    }
    if (scale != nullptr) {
      const __m512 sv = _mm512_set1_ps(*scale);
      s0 = _mm512_mul_ps(s0, sv);
      s1 = _mm512_mul_ps(s1, sv);
      s2 = _mm512_mul_ps(s2, sv);
      s3 = _mm512_mul_ps(s3, sv);
    }
    _mm512_mask_storeu_ps(dst, mask[0], s0);
    _mm512_mask_storeu_ps(dst + 16, mask[1], s1);
    _mm512_mask_storeu_ps(dst + 32, mask[2], s2);
    _mm512_mask_storeu_ps(dst + 48, mask[3], s3);
    return;
  }
#endif
  for (int64_t i = 0; i < width; ++i) dst[i] = src[i];
  for (int64_t kk = 1; kk < n; ++kk) {
    const float* row = src + kk * inner;
    for (int64_t i = 0; i < width; ++i) dst[i] += row[i];
  }
  if (scale != nullptr) {
    for (int64_t i = 0; i < width; ++i) dst[i] *= *scale;
  }
}

// Sums [outer, n, inner] over n into [outer, inner] (n >= 1), scaling by
// *scale when non-null. Tasks are blocks of up to kSumBlock lanes within
// one o-row; each lane assigns its k = 0 element and adds k = 1..n-1 in
// order, exactly as a serial loop, so any task partition is bitwise
// identical.
void AxisSum(const float* pa, float* po, int64_t outer, int64_t n,
             int64_t inner, const float* scale) {
  const int64_t blocks = CeilDiv(inner, kSumBlock);
  const int64_t grain = std::max<int64_t>(
      1, par::kElementGrain /
             std::max<int64_t>(1, n * std::min(inner, kSumBlock)));
  par::ParallelFor(0, outer * blocks, grain, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t o = t / blocks;
      const int64_t i0 = (t % blocks) * kSumBlock;
      AxisSumBlock(pa + o * n * inner + i0, po + o * inner + i0, n, inner,
                   std::min(kSumBlock, inner - i0), scale);
    }
  });
}

}  // namespace

float SumAll(const Tensor& a) {
  ELDA_PROF_SCOPE("SumAll");
  // Deliberately serial: a chunked parallel sum would reorder the float
  // additions and break bitwise reproducibility across thread counts.
  double s = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) s += p[i];
  return static_cast<float>(s);
}

float MeanAll(const Tensor& a) {
  ELDA_CHECK_GT(a.size(), 0);
  return SumAll(a) / static_cast<float>(a.size());
}

float MaxAll(const Tensor& a) {
  ELDA_PROF_SCOPE("MaxAll");
  ELDA_CHECK_GT(a.size(), 0);
  const float* p = a.data();
  // Max is an exact, order-independent combine, so the partitioned reduce
  // is bitwise identical to the serial loop for every thread count.
  return par::ParallelReduce(
      0, a.size(), par::kElementGrain, p[0],
      [p](int64_t lo, int64_t hi) {
        float m = p[lo];
        for (int64_t i = lo + 1; i < hi; ++i) m = std::max(m, p[i]);
        return m;
      },
      [](float x, float y) { return std::max(x, y); });
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  ELDA_PROF_SCOPE("Sum");
  axis = NormalizeAxis(axis, a.dim());
  int64_t outer, n, inner;
  AxisDecompose(a.shape(), axis, &outer, &n, &inner);
  std::vector<int64_t> out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out = Tensor::Empty(out_shape);
  if (n == 0) {
    std::memset(out.data(), 0, static_cast<size_t>(out.size()) * sizeof(float));
    return out;
  }
  AxisSum(a.data(), out.data(), outer, n, inner, nullptr);
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  ELDA_PROF_SCOPE("Mean");
  axis = NormalizeAxis(axis, a.dim());
  int64_t outer, n, inner;
  AxisDecompose(a.shape(), axis, &outer, &n, &inner);
  const float inv = 1.0f / static_cast<float>(n);
  std::vector<int64_t> out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out = Tensor::Empty(out_shape);
  if (n == 0) {
    out.Fill(0.0f * inv);  // matches Sum-then-MulScalar: 0 * inf = NaN
    return out;
  }
  // Fused Sum + scale: per lane the k-order sum is identical to Sum's and
  // the 1/n multiply happens after the sum completes, so results match
  // MulScalar(Sum(...)) bit-for-bit.
  AxisSum(a.data(), out.data(), outer, n, inner, &inv);
  return out;
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdims) {
  ELDA_PROF_SCOPE("Max");
  axis = NormalizeAxis(axis, a.dim());
  int64_t outer, n, inner;
  AxisDecompose(a.shape(), axis, &outer, &n, &inner);
  ELDA_CHECK_GT(n, 0);
  std::vector<int64_t> out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out = Tensor::Empty(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain =
      std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, n));
  par::ParallelFor(0, outer * inner, grain, [&](int64_t l0, int64_t l1) {
    while (l0 < l1) {
      const int64_t o = l0 / inner;
      const int64_t i0 = l0 % inner;
      const int64_t i1 = std::min(inner, i0 + (l1 - l0));
      float* orow = po + o * inner;
      std::memcpy(orow + i0, pa + o * n * inner + i0,
                  (i1 - i0) * sizeof(float));
      for (int64_t k = 1; k < n; ++k) {
        const float* row = pa + (o * n + k) * inner;
        for (int64_t i = i0; i < i1; ++i) orow[i] = std::max(orow[i], row[i]);
      }
      l0 += i1 - i0;
    }
  });
  return out;
}

Tensor Softmax(const Tensor& a) {
  ELDA_PROF_SCOPE("Softmax");
  ELDA_CHECK_GE(a.dim(), 1);
  const int64_t n = a.shape(-1);
  Tensor out = Tensor::Empty(a.shape());
  if (n == 0) return out;
  const float* pa = a.data();
  float* po = out.data();
  ForRowQuads(a.size() / n, n, [&](int64_t r0, int64_t r1) {
    simd::SoftmaxRows(pa + r0 * n, po + r0 * n, r1 - r0, n);
  });
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  return par::ParallelReduce(
      0, a.size(), par::kElementGrain, true,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float diff = std::fabs(pa[i] - pb[i]);
          if (diff > atol + rtol * std::fabs(pb[i])) return false;
          if (std::isnan(pa[i]) || std::isnan(pb[i])) return false;
        }
        return true;
      },
      [](bool x, bool y) { return x && y; });
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  ELDA_CHECK(a.shape() == b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  return par::ParallelReduce(
      0, a.size(), par::kElementGrain, 0.0f,
      [&](int64_t lo, int64_t hi) {
        float m = 0.0f;
        for (int64_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(pa[i] - pb[i]));
        }
        return m;
      },
      [](float x, float y) { return std::max(x, y); });
}

}  // namespace elda
