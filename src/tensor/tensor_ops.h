// Numeric kernels over Tensor.
//
// All functions return freshly allocated tensors (inputs are never mutated
// unless the name says so). Binary element-wise ops support full NumPy-style
// broadcasting; matmul supports 2-D, batched 3-D, and 3-D x 2-D (shared
// right-hand side) operands, each with optional transposition of either
// operand (needed by autograd backward passes).

#ifndef ELDA_TENSOR_TENSOR_OPS_H_
#define ELDA_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace elda {

// -- Broadcasting ------------------------------------------------------------

// NumPy broadcast of two shapes; CHECK-fails if incompatible.
std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b);

// Sums `t` over its broadcast dimensions so that the result has `shape`.
// This is the adjoint of broadcasting and is used by autograd backward.
Tensor ReduceToShape(const Tensor& t, const std::vector<int64_t>& shape);

// -- Element-wise binary (broadcasting) ---------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// Scalar right-hand-side conveniences.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// -- Element-wise unary --------------------------------------------------------

// Transcendental note: Exp/Sigmoid/Tanh/Softmax evaluate the SIMD
// transcendental contract of tensor/simd_math.h (polynomial kernels whose
// scalar reference and AVX2 paths are bitwise identical), not libm. See
// DESIGN.md "Elementwise execution" for the accuracy policy.
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  // clamps input at 1e-12 to keep finite
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Clip(const Tensor& a, float lo, float hi);
Tensor Pow(const Tensor& a, float p);

// 1.0 where the predicate holds, else 0.0 (used for masks / selectors).
Tensor GreaterThanScalar(const Tensor& a, float s);
// |x - s| <= tolerance. The default tolerance absorbs float rounding when
// the compared values are computed rather than stored constants (e.g.
// standardised mask cells); pass 0.0f explicitly for exact bit equality.
Tensor EqualScalar(const Tensor& a, float s, float tolerance = 1e-6f);

// -- Fused elementwise chains -----------------------------------------------
//
// One memory pass instead of a short chain of composed kernels. Per element
// each evaluates exactly the float expression of the composed chain it
// replaces, in the same order, so fused and composed results are bitwise
// identical (the autograd twins in autograd/ops.h rely on this to keep
// streamed-vs-batch and checkpoint guarantees intact while dropping tape
// nodes and temporaries).

Tensor AddSigmoid(const Tensor& a, const Tensor& b);  // sigmoid(a + b)
Tensor AddTanh(const Tensor& a, const Tensor& b);     // tanh(a + b)
Tensor ExpNegRelu(const Tensor& a);                   // exp(-relu(a))

// Fused backward kernels (parenthesization pinned to the composed graphs):
Tensor SigmoidGrad(const Tensor& g, const Tensor& y);  // g * (y * (1 - y))
Tensor TanhGrad(const Tensor& g, const Tensor& y);     // g * (1 - y*y)
// (-(g * y)) * (x > 0 ? 1 : 0); the negation is an exact sign flip
Tensor ExpNegReluGrad(const Tensor& g, const Tensor& y, const Tensor& x);
// Per last-axis row: dx = y * (g - dot(g, y)), simd::SoftmaxGradRow's
// under the 8-lane-blocked reduction contract of simd_math.h, with
// Softmax's NaN-sign exception and thread partition.
Tensor SoftmaxLastAxisGrad(const Tensor& g, const Tensor& y);

// -- Matrix multiplication ------------------------------------------------------

// MatMul(a, b, trans_a, trans_b): logical shapes after transposition must be
// [.., M, K] x [.., K, N] -> [.., M, N]. Supported operand ranks:
//   2-D x 2-D, 3-D x 3-D (equal batch), 3-D x 2-D (rhs shared across batch).
//
// Determinism contract: every output element is acc = +0 then
// acc = fma(a_ip, b_pj, acc) for p ascending — the sequence GemmReference
// spells out below. Two kernels serve it, both bitwise identical to
// GemmReference for all inputs, transposes and thread counts: the packed,
// cache-blocked kernel where enough row blocks reuse its packed panels (a
// rule on the row-block count, k, n and the thread count), and
// register-blocked Product tasks from one planner for every other product. Both overwrite every
// output element, so the output is allocated uninitialised.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// The executable definition of the GEMM contract: naive i-j-k loops, one
// std::fma per k step. C = op(A) * op(B) with A stored [M,K] ([K,M] when
// trans_a), B stored [K,N] ([N,K] when trans_b), C stored [M,N]. Slow; used
// by tests to pin the optimized kernels bit-for-bit.
void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool trans_a, bool trans_b);

// -- Shape manipulation ----------------------------------------------------------

// 2-D transpose.
Tensor Transpose(const Tensor& a);
// Swaps the last two dimensions of a rank >= 2 tensor.
Tensor TransposeLast2(const Tensor& a);
// Swaps the first two dimensions of a rank >= 2 tensor: [A, B, rest...] ->
// [B, A, rest...]. This is the batch-major <-> time-major relayout of the
// recurrence engine ([B, T, C] <-> [T, B, C]); a pure permutation copy, so
// every element value is preserved bit-for-bit.
Tensor Transpose01(const Tensor& a);
// Reverses the order of entries along `axis` (a pure permutation copy).
Tensor ReverseAxis(const Tensor& a, int64_t axis);
// Stacks N same-shaped tensors into [N, shape...]. Unlike Concat it adds a
// new leading axis, which keeps the result time-major when the parts are
// per-step states.
Tensor StackRows(const std::vector<Tensor>& parts);
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
// Slice of length `len` starting at `start` along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len);

// -- Fused recurrent gate kernels -------------------------------------------------
//
// One pass over the gate pre-activations instead of ~10 elementwise kernel
// dispatches per timestep. Per element these run exactly the float
// expressions the composed kernels (Slice + Add + Sigmoid/Tanh + Mul + Sub)
// would, in the same order, so the fused path is bitwise identical to the
// op-by-op path for all inputs and thread counts.

// GRU step. xw = x_t*W_ih + b (packed [B, 3H], gate order r|z|n), hu =
// h_{t-1}*W_hh ([B, 3H]), h = h_{t-1} ([B, H]). Returns h_t. When the
// capture pointers are non-null the gate activations r, z, n are written
// out (retained by autograd for the backward pass); pass nullptr in no-grad
// mode to skip storing them.
Tensor GruGates(const Tensor& xw, const Tensor& hu, const Tensor& h,
                Tensor* r_out, Tensor* z_out, Tensor* n_out);

// LSTM step. xw = x_t*W_ih ([B, 4H], gate order i|f|g|o), hu = h_{t-1}*W_hh
// ([B, 4H]), bias [4H], c = c_{t-1} ([B, H]). Returns the packed next state
// [2, B, H] with h_t in row block 0 and c_t in row block 1 (time-major
// packing keeps both exposable as zero-copy ViewRows). Optional captures:
// gate activations i, f, g, o and tanh(c_t).
Tensor LstmGates(const Tensor& xw, const Tensor& hu, const Tensor& bias,
                 const Tensor& c, Tensor* i_out, Tensor* f_out, Tensor* g_out,
                 Tensor* o_out, Tensor* tc_out);

// -- Feature-interaction tile (paper Eqs. 5-6) -------------------------------------
//
// The whole feature-level interaction chain of core::FeatureInteraction,
// computed one (b, t) tile at a time with every intermediate in per-thread
// scratch:
//   u = W ⊙ e;  s = u eᵀ + b_i, then + (-1e9) on the diagonal;
//   α = row softmax(s);  c = e ⊙ (α e);  f = relu([e ; c]) p.
// Shapes: e [..., C, E], w [C, E], b [C], p [2E, D] -> f [..., C*D].
// Every float equals the one the composed op chain (Mul, TransposeLast2,
// MatMul, Add, Add, Softmax, MatMul, Mul, Concat, Relu, MatMul) produces:
// each product is a strict-k std::fma chain as in GemmReference, the bias
// and diagonal adds stay two separate adds, and every row is
// simd::SoftmaxRow's, bitwise up to a NaN's sign bit (the Softmax op's
// rows body, with the adds fused in: simd::BiasedSoftmaxRows). The
// products keep 4-row x 48-lane blocks of those chains in registers
// (AVX-512F; a portable loop otherwise), which only decides which chains
// run together. `alpha_out`, when non-null, receives
// α as [..., C, C].
Tensor FeatureInteractionTile(const Tensor& e, const Tensor& w,
                              const Tensor& b, const Tensor& p,
                              Tensor* alpha_out);

// Gradients of FeatureInteractionTile for g = dL/df ([..., C*D]), in two
// phases. A parallel per-tile pass recomputes α (cheaper than keeping it on
// the tape: see DESIGN.md) and writes de (only when `want_de`), summing the
// five uses of e in the composed tape's order; its relu masks multiply by
// float(r > 0), branch-free, as the composed Mul by GreaterThanScalar. It
// also fills three transient slabs: du ⊙ e [N, C, E], dscores [N, C, C] and
// relu([e ; c]) [N, C, 2E]. ReduceToShape and MatMul(..., true, false) then
// reduce the slabs into dw, db and dp, so each parameter gradient keeps the
// composed chain's summation order.
struct FeatureInteractionTileGrads {
  Tensor de;  // [..., C, E]; undefined unless want_de
  Tensor dw;  // [C, E]
  Tensor db;  // [C]
  Tensor dp;  // [2E, D]
};
FeatureInteractionTileGrads FeatureInteractionTileBackward(
    const Tensor& e, const Tensor& w, const Tensor& b, const Tensor& p,
    const Tensor& g, bool want_de);

// -- Bi-directional embedding (paper Eq. 2) ----------------------------------------
//
// The whole embedding of core::BiDirectionalEmbedding in one pass, for
// x [B, T, C] (a constant: no dx) and [C, E] tables:
//   bi:    wa = (x + -a) / (b - a), wb = (x * -1 + b) / (b - a),
//          e = wa V_a + wb V_b;              (fm: e = x V, V passed as va)
//   star:  s = [|x| <= 1e-6];  e = e (1 - s) + s;
//   V_m:   n = never [B, 1, C, 1];  e = e (1 - n) + n V_m.
// Every float equals the one the composed broadcast chain (AddScalar,
// MulScalar, Mul, Add, EqualScalar, Sub) produces, operand order included;
// the division is the chain's multiply by 1 / (b - a). vb is undefined for
// the FM variants, vm and never when V_m is off. Returns [B, T, C, E].
struct EmbeddingSpec {
  bool bi = true;     // interpolate V_a and V_b (false: FM, e = x V)
  bool star = false;  // x == 0 maps to the all-ones vector
  float lower = -3.0f;
  float upper = 3.0f;
};
Tensor BiDirectionalEmbedding(const Tensor& x, const Tensor& va,
                              const Tensor& vb, const Tensor& vm,
                              const Tensor& never, const EmbeddingSpec& spec);

// Gradients of BiDirectionalEmbedding for g = dL/de ([B, T, C, E]), each in
// the composed tape's summation order: dV_a, dV_b (and the FM dV) sum the
// per-element products over b from b = 0's value, then over t; dV_m sums g
// over t per row, multiplies by never, then sums over b. Only the requested
// gradients are formed.
struct BiDirectionalEmbeddingGrads {
  Tensor dva;  // [C, E]; dV for the FM variants
  Tensor dvb;  // [C, E]
  Tensor dvm;  // [C, E]
};
BiDirectionalEmbeddingGrads BiDirectionalEmbeddingBackward(
    const Tensor& x, const Tensor& never, const Tensor& g,
    const EmbeddingSpec& spec, bool want_va, bool want_vb, bool want_vm);

// -- Reductions --------------------------------------------------------------------

float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Max(const Tensor& a, int64_t axis, bool keepdims = false);

// Numerically stable softmax along the last axis. Every row is
// simd::SoftmaxRow's under the 8-lane-blocked reduction contract of
// simd_math.h, bitwise up to the sign bit of a NaN output in a row that
// holds NaNs of both signs (the rows kernels' documented exception). Rows
// are split across threads in whole four-row blocks, so the result, NaN
// signs included, is the same for every thread count. Other axes: move
// the axis last first (e.g. TransposeLast2).
Tensor Softmax(const Tensor& a);

// -- Comparisons for tests -------------------------------------------------------------

// True iff shapes match and |a-b| <= atol + rtol*|b| element-wise.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// Largest absolute element-wise difference (shapes must match).
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace elda

#endif  // ELDA_TENSOR_TENSOR_OPS_H_
