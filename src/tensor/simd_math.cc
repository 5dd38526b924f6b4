// Scalar reference definitions and dispatched array kernels for the SIMD
// transcendental contract (see simd_math.h).
//
// This file is compiled with -ffp-contract=off (see CMakeLists.txt): the
// bitwise scalar==vector contract requires every fma to be an explicit
// std::fma and every separate mul/add to stay separate.

#include "tensor/simd_math.h"

#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace elda {
namespace simd {
namespace {

bool EnvDisabled() {
  const char* env = std::getenv("ELDA_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "OFF") == 0 || std::strcmp(env, "scalar") == 0;
}

bool DetectAvx2() {
#if ELDA_SIMD_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

struct Dispatch {
  bool available = false;
  bool env_enabled = false;  // available and not disabled by ELDA_SIMD
  bool enabled = false;      // current state (ForceScalar can clear it)
  Dispatch() {
    available = DetectAvx2();
    env_enabled = available && !EnvDisabled();
    enabled = env_enabled;
  }
};

Dispatch& D() {
  static Dispatch d;  // thread-safe magic-static init
  return d;
}

// The fixed 8-lane fold trees of the row-softmax reduction contract. Both
// the scalar reference and the AVX2 path (after storing its accumulator
// register) fold through these exact functions.
inline float FoldMax8(const float* l) {
  const float m01 = MaxPs(l[0], l[1]);
  const float m23 = MaxPs(l[2], l[3]);
  const float m45 = MaxPs(l[4], l[5]);
  const float m67 = MaxPs(l[6], l[7]);
  return MaxPs(MaxPs(m01, m23), MaxPs(m45, m67));
}

inline float FoldAdd8(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

#if ELDA_SIMD_AVX2

// Mask with `tail` (1..7) active lanes for maskload/maskstore; an active
// lane is all-ones so the same mask works as a blend/and operand.
inline __m256i TailMask(int64_t tail) {
  alignas(32) static const int32_t kMask[16] = {-1, -1, -1, -1, -1, -1, -1,
                                                -1, 0,  0,  0,  0,  0,  0,
                                                0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - tail));
}

#endif  // ELDA_SIMD_AVX2

}  // namespace

bool Available() { return D().available; }

bool Enabled() { return D().enabled; }

void ForceScalar(bool force) { D().enabled = !force && D().env_enabled; }

const char* ActivePath() { return Enabled() ? "avx2" : "scalar"; }

float ExpRef(float x) {
  float xc = MinPs(x, kExpHi);
  xc = MaxPs(xc, kExpLo);
  const float nf = std::fma(xc, kLog2e, kExpRoundMagic) - kExpRoundMagic;
  float r = std::fma(nf, kExpNegC1, xc);
  r = std::fma(nf, kExpNegC2, r);
  float p = kExpP0;
  p = std::fma(p, r, kExpP1);
  p = std::fma(p, r, kExpP2);
  p = std::fma(p, r, kExpP3);
  p = std::fma(p, r, kExpP4);
  p = std::fma(p, r, kExpP5);
  const float r2 = r * r;
  p = std::fma(p, r2, r);
  p = p + 1.0f;
  // nf is exactly integral, so the truncating cast equals the vector path's
  // round-to-nearest cvtps2dq.
  const int32_t n = static_cast<int32_t>(nf);
  float y = p * BitsToFloat((n + 127) << 23);
  y = (x > kExpHi) ? HUGE_VALF : y;
  y = (x < kExpLo) ? 0.0f : y;
  y = (x != x) ? x : y;
  return y;
}

float SigmoidRef(float x) {
  const float z = ExpRef(-std::fabs(x));
  const float num = (x >= 0.0f) ? 1.0f : z;
  return num / (1.0f + z);
}

float TanhRef(float x) {
  float xc = MinPs(x, kTanhClamp);
  xc = MaxPs(xc, -kTanhClamp);
  const float x2 = xc * xc;
  float p = kTanhAlpha13;
  p = std::fma(x2, p, kTanhAlpha11);
  p = std::fma(x2, p, kTanhAlpha9);
  p = std::fma(x2, p, kTanhAlpha7);
  p = std::fma(x2, p, kTanhAlpha5);
  p = std::fma(x2, p, kTanhAlpha3);
  p = std::fma(x2, p, kTanhAlpha1);
  p = xc * p;
  float q = kTanhBeta6;
  q = std::fma(x2, q, kTanhBeta4);
  q = std::fma(x2, q, kTanhBeta2);
  q = std::fma(x2, q, kTanhBeta0);
  float y = p / q;
  y = (x != x) ? x : y;
  return y;
}

void ExpArray(const float* x, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, Exp8(_mm256_loadu_ps(x + i)));
    }
  }
#endif
  for (; i < n; ++i) y[i] = ExpRef(x[i]);
}

void SigmoidArray(const float* x, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, Sigmoid8(_mm256_loadu_ps(x + i)));
    }
  }
#endif
  for (; i < n; ++i) y[i] = SigmoidRef(x[i]);
}

void TanhArray(const float* x, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, Tanh8(_mm256_loadu_ps(x + i)));
    }
  }
#endif
  for (; i < n; ++i) y[i] = TanhRef(x[i]);
}

void AddSigmoidArray(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, Sigmoid8(_mm256_add_ps(_mm256_loadu_ps(a + i),
                                                     _mm256_loadu_ps(b + i))));
    }
  }
#endif
  for (; i < n; ++i) y[i] = SigmoidRef(a[i] + b[i]);
}

void AddTanhArray(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, Tanh8(_mm256_add_ps(_mm256_loadu_ps(a + i),
                                                  _mm256_loadu_ps(b + i))));
    }
  }
#endif
  for (; i < n; ++i) y[i] = TanhRef(a[i] + b[i]);
}

void ExpNegReluArray(const float* x, float* y, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 neg1 = _mm256_set1_ps(-1.0f);
    for (; i + 8 <= n; i += 8) {
      const __m256 relu = _mm256_max_ps(_mm256_loadu_ps(x + i), zero);
      _mm256_storeu_ps(y + i, Exp8(_mm256_mul_ps(relu, neg1)));
    }
  }
#endif
  for (; i < n; ++i) {
    y[i] = ExpRef((x[i] > 0.0f ? x[i] : 0.0f) * -1.0f);
  }
}

void SigmoidGradArray(const float* g, const float* y, float* dx, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    const __m256 one = _mm256_set1_ps(1.0f);
    for (; i + 8 <= n; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      const __m256 d = _mm256_mul_ps(yv, _mm256_sub_ps(one, yv));
      _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
    }
  }
#endif
  for (; i < n; ++i) dx[i] = g[i] * (y[i] * (1.0f - y[i]));
}

void TanhGradArray(const float* g, const float* y, float* dx, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    const __m256 one = _mm256_set1_ps(1.0f);
    for (; i + 8 <= n; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      const __m256 d = _mm256_sub_ps(one, _mm256_mul_ps(yv, yv));
      _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
    }
  }
#endif
  for (; i < n; ++i) dx[i] = g[i] * (1.0f - y[i] * y[i]);
}

void ExpNegReluGradArray(const float* g, const float* y, const float* x,
                         float* dx, int64_t n) {
  int64_t i = 0;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    // The contract's negation is an exact sign flip; vmulps with -1 would
    // leave the sign of a NaN product untouched (and compilers fold a
    // constant * -1 to xor only sometimes), so both paths xor explicitly.
    const __m256 sign = _mm256_set1_ps(-0.0f);
    for (; i + 8 <= n; i += 8) {
      const __m256 gy =
          _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(y + i));
      const __m256 mask = _mm256_blendv_ps(
          zero, one, _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ));
      _mm256_storeu_ps(dx + i,
                       _mm256_mul_ps(_mm256_xor_ps(gy, sign), mask));
    }
  }
#endif
  for (; i < n; ++i) {
    dx[i] = (-(g[i] * y[i])) * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void SoftmaxRow(const float* x, float* y, int64_t n) {
  if (n <= 0) return;
  // The 8-lane-blocked reduction, spelled out. Padding lanes (j >= n up to
  // the next multiple of 8) contribute -inf to the max and +0.0f to the sum.
  const int64_t padded = (n + 7) & ~int64_t{7};
  float lanes[8];
  for (int64_t l = 0; l < 8; ++l) lanes[l] = -HUGE_VALF;
  for (int64_t j = 0; j < padded; ++j) {
    const float v = j < n ? x[j] : -HUGE_VALF;
    lanes[j & 7] = MaxPs(lanes[j & 7], v);
  }
  const float m = FoldMax8(lanes);
  for (int64_t l = 0; l < 8; ++l) lanes[l] = 0.0f;
  for (int64_t j = 0; j < padded; ++j) {
    float e = 0.0f;
    if (j < n) {
      e = ExpRef(x[j] - m);
      y[j] = e;
    }
    lanes[j & 7] = lanes[j & 7] + e;
  }
  const float inv = 1.0f / FoldAdd8(lanes);
  for (int64_t j = 0; j < n; ++j) y[j] = y[j] * inv;
}

void SoftmaxGradRow(const float* g, const float* y, float* dx, int64_t n) {
  if (n <= 0) return;
  const int64_t padded = (n + 7) & ~int64_t{7};
  float lanes[8];
  for (int64_t l = 0; l < 8; ++l) lanes[l] = 0.0f;
  for (int64_t j = 0; j < padded; ++j) {
    const float gv = j < n ? g[j] : 0.0f;
    const float yv = j < n ? y[j] : 0.0f;
    lanes[j & 7] = std::fma(gv, yv, lanes[j & 7]);
  }
  const float dot = FoldAdd8(lanes);
  for (int64_t j = 0; j < n; ++j) dx[j] = y[j] * (g[j] - dot);
}

namespace {

#if ELDA_SIMD_AVX2

// FoldMax8 / FoldAdd8 of four rows' lane vectors at once: the same pairs,
// combined in the same operand order, so lane r of the result is bitwise
// the fold of v[r]'s lanes. Step 1 pairs lanes (0,1) (2,3) (4,5) (6,7),
// step 2 their results (01,23) and (45,67), step 3 the two halves. No
// step mixes two rows, so a block with fewer than four live rows folds
// each live row bitwise whatever the dead entries hold.
template <typename Op>
inline __m128 Fold8x4(const __m256* v, Op op) {
  const auto pairs = [&](__m256 a, __m256 b) {
    return op(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
              _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  const __m256 y = pairs(pairs(v[0], v[1]), pairs(v[2], v[3]));
  const __m256 hi = _mm256_castps128_ps256(_mm256_extractf128_ps(y, 1));
  return _mm256_castps256_ps128(op(y, hi));
}

inline __m128 FoldMax8x4(const __m256* v) {
  return Fold8x4(v, [](__m256 a, __m256 b) { return _mm256_max_ps(a, b); });
}

inline __m128 FoldAdd8x4(const __m256* v) {
  return Fold8x4(v, [](__m256 a, __m256 b) { return _mm256_add_ps(a, b); });
}

// Lane r of x in all eight lanes.
inline __m256 Broadcast(__m128 x, int r) {
  return _mm256_permutevar8x32_ps(_mm256_castps128_ps256(x),
                                  _mm256_set1_epi32(r));
}

// The one AVX2 softmax body: R (1..4) rows at once, row r read at
// x + r * ldx and written at y + r * ldy (y == x runs in place). Each row
// keeps SoftmaxRow's lane contract (lane j mod 8, ascending j, -inf / +0
// padding, the FoldMax8 / FoldAdd8 trees), and the rows' serial folds
// overlap. With kBiased a row's values are BiasedSoftmaxRows'
// (x + bias[r]) + (0 or mask), formed in both passes that read them rather
// than stored in pass 1 and read back.
template <int R, bool kBiased>
void SoftmaxBlock(const float* x, int64_t ldx, float* y, int64_t ldy,
                  int64_t n, const float* bias, int64_t diag, float mask) {
  const int64_t full = n & ~int64_t{7};
  const int64_t tail = n - full;
  const __m256i tmask = tail > 0 ? TailMask(tail) : _mm256_setzero_si256();
  const __m256 tmaskf = _mm256_castsi256_ps(tmask);
  const __m256 neg_inf = _mm256_set1_ps(-HUGE_VALF);
  const __m256 zero = _mm256_setzero_ps();
  __m256 b[R], dmask[R];
  int64_t dblock[R];  // start of the block holding the masked column, or -1
  if constexpr (kBiased) {
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (int r = 0; r < R; ++r) {
      b[r] = _mm256_set1_ps(bias[r]);
      const int64_t col = r + diag;
      dblock[r] = col >= 0 && col < n ? col & ~int64_t{7} : -1;
      // mask in the masked column's lane, +0 in the others.
      dmask[r] = _mm256_and_ps(
          _mm256_set1_ps(mask),
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(
              iota, _mm256_set1_epi32(static_cast<int32_t>(col & 7)))));
    }
  }
  // Row r's values in the block at j, from x's block `v`.
  const auto value = [&](int r, int64_t j, __m256 v) {
    if constexpr (kBiased) {
      return _mm256_add_ps(_mm256_add_ps(v, b[r]),
                           j == dblock[r] ? dmask[r] : zero);
    } else {
      return v;
    }
  };
  const auto load = [&](int r, int64_t j) {
    return value(r, j, _mm256_loadu_ps(x + r * ldx + j));
  };
  const auto load_tail = [&](int r) {
    return value(r, full, _mm256_maskload_ps(x + r * ldx + full, tmask));
  };
  // Pass 1: lane-blocked max.
  __m256 mv[4] = {neg_inf, neg_inf, neg_inf, neg_inf};
  for (int64_t j = 0; j < full; j += 8) {
    for (int r = 0; r < R; ++r) mv[r] = _mm256_max_ps(mv[r], load(r, j));
  }
  if (tail > 0) {
    for (int r = 0; r < R; ++r) {
      mv[r] = _mm256_max_ps(mv[r],
                            _mm256_blendv_ps(neg_inf, load_tail(r), tmaskf));
    }
  }
  const __m128 m4 = FoldMax8x4(mv);
  __m256 mb[R];
  for (int r = 0; r < R; ++r) mb[r] = Broadcast(m4, r);
  // Pass 2: e = exp(x - m) into y, lane-blocked sum.
  __m256 sv[4] = {zero, zero, zero, zero};
  for (int64_t j = 0; j < full; j += 8) {
    for (int r = 0; r < R; ++r) {
      const __m256 ev = Exp8(_mm256_sub_ps(load(r, j), mb[r]));
      _mm256_storeu_ps(y + r * ldy + j, ev);
      sv[r] = _mm256_add_ps(sv[r], ev);
    }
  }
  if (tail > 0) {
    for (int r = 0; r < R; ++r) {
      const __m256 ev = Exp8(_mm256_sub_ps(load_tail(r), mb[r]));
      _mm256_maskstore_ps(y + r * ldy + full, tmask, ev);
      sv[r] = _mm256_add_ps(sv[r], _mm256_and_ps(ev, tmaskf));
    }
  }
  const __m128 inv4 = _mm_div_ps(_mm_set1_ps(1.0f), FoldAdd8x4(sv));
  // Pass 3: scale.
  for (int r = 0; r < R; ++r) {
    float* yr = y + r * ldy;
    const __m256 iv = Broadcast(inv4, r);
    for (int64_t j = 0; j < full; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), iv));
    }
    if (tail > 0) {
      _mm256_maskstore_ps(
          yr + full, tmask,
          _mm256_mul_ps(_mm256_maskload_ps(yr + full, tmask), iv));
    }
  }
}

// The one AVX2 softmax-backward body: R (1..4) rows of SoftmaxGradRow at
// once under its lane contract. Masked loads read +0 in inactive lanes,
// so the tail's fma adds the exact +0 of the reference's padded lanes.
template <int R>
void SoftmaxGradBlock(const float* g, const float* y, int64_t ld, float* dx,
                      int64_t ldx, int64_t n) {
  const int64_t full = n & ~int64_t{7};
  const int64_t tail = n - full;
  const __m256i tmask = tail > 0 ? TailMask(tail) : _mm256_setzero_si256();
  const __m256 zero = _mm256_setzero_ps();
  __m256 sv[4] = {zero, zero, zero, zero};
  for (int64_t j = 0; j < full; j += 8) {
    for (int r = 0; r < R; ++r) {
      sv[r] = _mm256_fmadd_ps(_mm256_loadu_ps(g + r * ld + j),
                              _mm256_loadu_ps(y + r * ld + j), sv[r]);
    }
  }
  if (tail > 0) {
    for (int r = 0; r < R; ++r) {
      sv[r] = _mm256_fmadd_ps(_mm256_maskload_ps(g + r * ld + full, tmask),
                              _mm256_maskload_ps(y + r * ld + full, tmask),
                              sv[r]);
    }
  }
  const __m128 dot4 = FoldAdd8x4(sv);
  for (int r = 0; r < R; ++r) {
    const float* gr = g + r * ld;
    const float* yr = y + r * ld;
    float* dr = dx + r * ldx;
    const __m256 db = Broadcast(dot4, r);
    for (int64_t j = 0; j < full; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(gr + j), db);
      _mm256_storeu_ps(dr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), d));
    }
    if (tail > 0) {
      const __m256 d =
          _mm256_sub_ps(_mm256_maskload_ps(gr + full, tmask), db);
      _mm256_maskstore_ps(
          dr + full, tmask,
          _mm256_mul_ps(_mm256_maskload_ps(yr + full, tmask), d));
    }
  }
}

// block(R, r) over `rows` rows: four-row blocks from r = 0, then one block
// of the 1-3 rows left over, as std::integral_constant<int, R>.
template <typename Block>
void ForRowBlocks(int64_t rows, const Block& block) {
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) block(std::integral_constant<int, 4>(), r);
  switch (rows - r) {
    case 3:
      block(std::integral_constant<int, 3>(), r);
      break;
    case 2:
      block(std::integral_constant<int, 2>(), r);
      break;
    case 1:
      block(std::integral_constant<int, 1>(), r);
      break;
    default:
      break;
  }
}

#endif  // ELDA_SIMD_AVX2

}  // namespace

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t n) {
  if (n <= 0) return;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    ForRowBlocks(rows, [&](auto R, int64_t r) {
      SoftmaxBlock<R, false>(x + r * n, n, y + r * n, n, n, nullptr, 0, 0.0f);
    });
    return;
  }
#endif
  for (int64_t r = 0; r < rows; ++r) SoftmaxRow(x + r * n, y + r * n, n);
}

void BiasedSoftmaxRows(float* s, int64_t ld, int64_t rows, int64_t n,
                       const float* bias, int64_t diag, float mask) {
  if (n <= 0) return;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    ForRowBlocks(rows, [&](auto R, int64_t r) {
      SoftmaxBlock<R, true>(s + r * ld, ld, s + r * ld, ld, n, bias + r,
                            r + diag, mask);
    });
    return;
  }
#endif
  // The composed graph's two adds, then SoftmaxRow.
  for (int64_t r = 0; r < rows; ++r) {
    float* row = s + r * ld;
    const int64_t col = r + diag;
    const bool masked = col >= 0 && col < n;
    const float m = masked ? (row[col] + bias[r]) + mask : 0.0f;
    for (int64_t j = 0; j < n; ++j) row[j] = (row[j] + bias[r]) + 0.0f;
    if (masked) row[col] = m;
    SoftmaxRow(row, row, n);
  }
}

void SoftmaxGradRows(const float* g, const float* y, int64_t ld, float* dx,
                     int64_t ldx, int64_t rows, int64_t n) {
  if (n <= 0) return;
#if ELDA_SIMD_AVX2
  if (Enabled()) {
    ForRowBlocks(rows, [&](auto R, int64_t r) {
      SoftmaxGradBlock<R>(g + r * ld, y + r * ld, ld, dx + r * ldx, ldx, n);
    });
    return;
  }
#endif
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxGradRow(g + r * ld, y + r * ld, dx + r * ldx, n);
  }
}

}  // namespace simd
}  // namespace elda
