// SIMD transcendental kernels and their scalar reference contract.
//
// This is the elementwise twin of the GEMM contract in tensor_ops.h: every
// transcendental the kernels evaluate (exp, sigmoid, tanh, row softmax) has
// one executable scalar definition — ExpRef / SigmoidRef / TanhRef /
// SoftmaxRow / SoftmaxGradRow — and the production AVX2 paths run *exactly
// the same IEEE-754 operation sequence* eight lanes at a time. Every individual
// step (add, sub, mul, div, fma, min/max select, blend, int<->float
// conversion) is correctly rounded and therefore lane-for-lane identical to
// its scalar counterpart, so the vector kernels are bitwise equal to the
// scalar reference for all inputs, not merely close. Disabling SIMD
// (ELDA_SIMD=off at runtime, -DELDA_SIMD=OFF at configure time, or a CPU
// without AVX2+FMA) changes performance only, never a single output bit —
// which is how the checkpoint/resume, streamed-vs-batch, and
// across-thread-count bitwise guarantees survive this layer.
//
// The references are deliberately *not* libm: they are polynomial kernels
// (Cephes-style exp, Eigen-style rational tanh) whose accuracy versus
// correctly-rounded double-precision libm is bounded and tested in
// tests/simd_test.cc (<= 4 ulp for exp/sigmoid, <= 8 ulp for tanh on
// normal inputs; tanh of a *denormal* input is only sign-correct and
// magnitude-bounded, since the rational's numerator underflows before the
// divide rescales it; see DESIGN.md "Elementwise execution" for the full
// policy). Special values:
// NaN propagates through exp/sigmoid/tanh; exp saturates to +inf above
// kExpHi and flushes to +0 below kExpLo (no denormal outputs); tanh
// saturates to the polynomial's value at +/-kTanhClamp.
//
// The scalar references are defined out-of-line in simd_math.cc, which is
// compiled with -ffp-contract=off: the contract depends on each fma being
// an *explicit* std::fma and each mul/add staying un-fused, and out-of-line
// definitions keep other translation units from recompiling them with
// different contraction settings.

#ifndef ELDA_TENSOR_SIMD_MATH_H_
#define ELDA_TENSOR_SIMD_MATH_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__) && !defined(ELDA_SIMD_DISABLED)
#define ELDA_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace elda {
namespace simd {

// -- Dispatch ---------------------------------------------------------------

// True when the binary was compiled with AVX2+FMA support and the running
// CPU reports both features.
bool Available();

// True when the AVX2 path is active: Available(), not disabled by the
// ELDA_SIMD environment variable ("off" / "0" / "scalar"), and not forced
// off via ForceScalar. Because scalar and vector paths are bitwise
// identical, this only ever selects a speed, never a value.
bool Enabled();

// Test hook: ForceScalar(true) pins every kernel to the scalar reference;
// ForceScalar(false) restores Available()-and-env dispatch.
void ForceScalar(bool force);

// "avx2" or "scalar"; for logs and bench metadata.
const char* ActivePath();

// -- Scalar building blocks -------------------------------------------------

// The exact semantics of vminps/vmaxps: return b on NaN or equality. These
// are the only compare-selects the kernels use, so NaN behaviour is pinned.
inline float MinPs(float a, float b) { return a < b ? a : b; }
inline float MaxPs(float a, float b) { return a > b ? a : b; }

inline float BitsToFloat(int32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// -- Kernel constants -------------------------------------------------------
//
// Shared by the scalar references (simd_math.cc) and the inline AVX2 bodies
// below; both sides must consume identical constants for the bitwise
// contract to hold.

// exp: Cephes-style expf. Range-reduce x = n*ln2 + r with the hi/lo split
// constant, evaluate a degree-5 polynomial on r, scale by 2^n through the
// exponent bits. kExpLo is chosen so the 2^n scale factor and the final
// product both stay normal (exp(-87) ~ 1.6e-38 > FLT_MIN).
inline constexpr float kExpHi = 88.3762626647949f;
inline constexpr float kExpLo = -87.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpRoundMagic = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kExpNegC1 = -0.693359375f;     // -ln2_hi
inline constexpr float kExpNegC2 = 2.12194440e-4f;    // -ln2_lo
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// tanh: Eigen-style rational approximation x*P(x^2)/Q(x^2), inputs clamped
// to +/-kTanhClamp where the rational saturates to ~ +/-(1 - 2.7e-7).
inline constexpr float kTanhClamp = 7.90531110763549805f;
inline constexpr float kTanhAlpha1 = 4.89352455891786e-03f;
inline constexpr float kTanhAlpha3 = 6.37261928875436e-04f;
inline constexpr float kTanhAlpha5 = 1.48572235717979e-05f;
inline constexpr float kTanhAlpha7 = 5.12229709037114e-08f;
inline constexpr float kTanhAlpha9 = -8.60467152213735e-11f;
inline constexpr float kTanhAlpha11 = 2.00018790482477e-13f;
inline constexpr float kTanhAlpha13 = -2.76076847742355e-16f;
inline constexpr float kTanhBeta0 = 4.89352518554385e-03f;
inline constexpr float kTanhBeta2 = 2.26843463243900e-03f;
inline constexpr float kTanhBeta4 = 1.18534705686654e-04f;
inline constexpr float kTanhBeta6 = 1.19825839466702e-06f;

// -- Scalar reference contract ----------------------------------------------
//
// The executable definitions of the transcendental contract. All elementwise
// kernels, fused gate kernels, and fused autograd ops evaluate these (or
// their 8-lane mirrors). Defined in simd_math.cc (-ffp-contract=off).

float ExpRef(float x);      // Cephes expf; NaN in -> NaN out
float SigmoidRef(float x);  // exp(-|x|) sign-split form, branch-free select
float TanhRef(float x);     // Eigen rational form; NaN in -> NaN out

// -- Array kernels ----------------------------------------------------------
//
// Contiguous [n]-element kernels: vector body over full 8-lane chunks, the
// scalar reference over the remainder (bitwise identical either way).
// Callers partition work across threads *before* calling (any split is
// safe: the kernels are elementwise).

void ExpArray(const float* x, float* y, int64_t n);
void SigmoidArray(const float* x, float* y, int64_t n);
void TanhArray(const float* x, float* y, int64_t n);

// Fused chains: one pass over memory, no intermediate temporaries. Each
// computes per element exactly the float expression the composed kernels
// would, in the same order (see the autograd twins in autograd/ops.h).
void AddSigmoidArray(const float* a, const float* b, float* y, int64_t n);
void AddTanhArray(const float* a, const float* b, float* y, int64_t n);
// exp(-relu(x)), evaluated as ExpRef((x > 0 ? x : 0) * -1.0f) — the exact
// composed Relu -> MulScalar(-1) -> Exp sequence (GRU-D's decay factors).
void ExpNegReluArray(const float* x, float* y, int64_t n);

// Fused backward kernels. Parenthesization matches the composed backward
// graphs they replace, so switching to them is bitwise neutral given the
// same forward value y:
//   SigmoidGrad:    dx = g * (y * (1 - y))
//   TanhGrad:       dx = g * (1 - y*y)
//   ExpNegReluGrad: dx = (-(g * y)) * (x > 0 ? 1 : 0)
// ExpNegReluGrad carries one documented exception to bitwise identity: the
// sign bit of a *NaN* gradient. C leaves the sign of a negated NaN
// unspecified, and compilers exploit it (folding -(t) * c into t * -c,
// where a hardware multiply returns NaN operands sign-unchanged), so no
// portable scalar expression can pin it. Non-NaN elements — everything a
// finite training run produces — are bitwise identical across paths; NaN
// elements agree on payload and NaN-ness but may differ in sign bit.
void SigmoidGradArray(const float* g, const float* y, float* dx, int64_t n);
void TanhGradArray(const float* g, const float* y, float* dx, int64_t n);
void ExpNegReluGradArray(const float* g, const float* y, const float* x,
                         float* dx, int64_t n);

// -- Row softmax (last axis) ------------------------------------------------
//
// Softmax over one contiguous row of n elements, with an 8-lane-blocked
// reduction contract: the row is conceptually padded to a multiple of 8
// (padding contributes -inf to the max pass and +0.0f to the sum passes),
// element j accumulates into lane j mod 8, and the 8 lane partials are
// folded with the fixed tree ((l0?l1)?(l2?l3)) ? ((l4?l5)?(l6?l7)).
// SoftmaxRow and SoftmaxGradRow are that contract's scalar reference: they
// always run scalar, and are what ELDA_SIMD=off runs and what the tests
// check the rows kernels against. In-place operation (y == x) is allowed.
void SoftmaxRow(const float* x, float* y, int64_t n);

// Fused softmax backward for one row: dx = y * (g - dot(g, y)), with the
// dot product accumulated under the same 8-lane contract (lane-blocked
// fma, fixed fold tree).
void SoftmaxGradRow(const float* g, const float* y, float* dx, int64_t n);

// The rows kernels. Each runs one AVX2 body per direction over blocks of
// four rows, then one block of the 1-3 rows left over; every row keeps
// the reference's lane contract (lane j mod 8, ascending j, -inf / +0
// padding, the same fold trees) while the block's serial folds overlap.
// Every row is bitwise the reference's, with one exception, as for
// ExpNegReluGrad: the sign bit of a NaN output. When a row holds NaNs of
// both signs (a NaN input beside a +inf, whose inf - inf is a negative
// NaN), which one propagates depends on the operand order of each add and
// multiply, and the compiler may commute those in any body; NaN-ness and
// every non-NaN output are bitwise.

// SoftmaxRow over `rows` contiguous rows of n: x row r at x + r * n, y row
// r at y + r * n (y == x runs in place).
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t n);

// The feature-interaction tile's score rows, in place: row r (0 <= r <
// rows, n elements at s + r * ld) becomes SoftmaxRow of
// (s[r][j] + bias[r]) + 0.0f, except its masked column j = r + diag, which
// gets (s[r][j] + bias[r]) + mask (none when that column is outside
// [0, n)). The vector body forms the biased scores in both passes that
// read them, so they are never stored and reloaded.
void BiasedSoftmaxRows(float* s, int64_t ld, int64_t rows, int64_t n,
                       const float* bias, int64_t diag, float mask);

// SoftmaxGradRow over `rows` rows: g and y row r at g + r * ld and
// y + r * ld, dx row r at dx + r * ldx.
void SoftmaxGradRows(const float* g, const float* y, int64_t ld, float* dx,
                     int64_t ldx, int64_t rows, int64_t n);

// -- Inline AVX2 bodies -----------------------------------------------------
//
// The 8-lane mirrors of ExpRef/SigmoidRef/TanhRef, usable from any TU that
// wants to embed them in a wider fused loop (the recurrent gate kernels in
// tensor_ops.cc do). All-intrinsic bodies: immune to -ffp-contract.

#if ELDA_SIMD_AVX2

inline __m256 Exp8(__m256 x) {
  const __m256 hi = _mm256_set1_ps(kExpHi);
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 xc = _mm256_min_ps(x, hi);
  xc = _mm256_max_ps(xc, lo);
  // n = round-to-nearest(xc * log2e) via the shift-magic constant; exact
  // because |xc * log2e| < 2^22.
  const __m256 magic = _mm256_set1_ps(kExpRoundMagic);
  __m256 nf = _mm256_fmadd_ps(xc, _mm256_set1_ps(kLog2e), magic);
  nf = _mm256_sub_ps(nf, magic);
  // r = xc - n*ln2, in two fma steps against the hi/lo split.
  __m256 r = _mm256_fmadd_ps(nf, _mm256_set1_ps(kExpNegC1), xc);
  r = _mm256_fmadd_ps(nf, _mm256_set1_ps(kExpNegC2), r);
  // Degree-5 Horner polynomial for e^r on |r| <= ln2/2 + epsilon.
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
  const __m256 r2 = _mm256_mul_ps(r, r);
  p = _mm256_fmadd_ps(p, r2, r);
  p = _mm256_add_ps(p, one);
  // Scale by 2^n through the exponent field; n is within [-126, 127] by the
  // clamp, so (n + 127) << 23 is a valid finite float.
  const __m256i n = _mm256_cvtps_epi32(nf);
  const __m256i ebits =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  __m256 y = _mm256_mul_ps(p, _mm256_castsi256_ps(ebits));
  // Saturation and NaN selects, in the same order as ExpRef.
  y = _mm256_blendv_ps(y, _mm256_set1_ps(HUGE_VALF),
                       _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
  y = _mm256_blendv_ps(y, _mm256_setzero_ps(),
                       _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
  y = _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return y;
}

inline __m256 Sigmoid8(__m256 x) {
  // Sign-split sigmoid on exp(-|x|), as SigmoidRef: z = exp(-|x|);
  // x >= 0 ? 1/(1+z) : z/(1+z). NaN falls through the GE compare into the
  // z branch and propagates.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 nabs = _mm256_or_ps(x, _mm256_set1_ps(-0.0f));  // -|x|
  const __m256 z = Exp8(nabs);
  const __m256 num = _mm256_blendv_ps(
      z, one, _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ));
  return _mm256_div_ps(num, _mm256_add_ps(one, z));
}

inline __m256 Tanh8(__m256 x) {
  const __m256 clamp = _mm256_set1_ps(kTanhClamp);
  __m256 xc = _mm256_min_ps(x, clamp);
  xc = _mm256_max_ps(xc, _mm256_set1_ps(-kTanhClamp));
  const __m256 x2 = _mm256_mul_ps(xc, xc);
  __m256 p = _mm256_set1_ps(kTanhAlpha13);
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha11));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha9));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha7));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha5));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha3));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhAlpha1));
  p = _mm256_mul_ps(xc, p);
  __m256 q = _mm256_set1_ps(kTanhBeta6);
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(kTanhBeta4));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(kTanhBeta2));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(kTanhBeta0));
  __m256 y = _mm256_div_ps(p, q);
  y = _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return y;
}

#endif  // ELDA_SIMD_AVX2

}  // namespace simd
}  // namespace elda

#endif  // ELDA_TENSOR_SIMD_MATH_H_
