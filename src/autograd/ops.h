// Differentiable operators over ag::Variable.
//
// Each function computes its value eagerly with the kernels in
// tensor/tensor_ops.h and records a backward closure on the tape. Binary
// element-wise ops broadcast like NumPy; the adjoint reduces gradients back
// to each operand's shape.

#ifndef ELDA_AUTOGRAD_OPS_H_
#define ELDA_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace elda {
namespace ag {

// Wraps a tensor as a non-differentiable constant leaf.
Variable Constant(Tensor value);
Variable ConstantScalar(float value);

// -- Element-wise binary (broadcasting) ---------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// Scalar conveniences.
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// -- Element-wise unary ---------------------------------------------------------
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);  // input clamped at 1e-12
Variable Square(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable Abs(const Variable& a);  // subgradient 0 at the kink
// Clamps into [lo, hi]; gradient is 1 strictly inside the interval, 0 out.
Variable Clip(const Variable& a, float lo, float hi);
// Element-wise a^p for positive inputs (clamped at 1e-12 like Log).
Variable Pow(const Variable& a, float p);

// -- Fused element-wise chains ----------------------------------------------
//
// Each runs its whole chain as one kernel pass and one tape node (no
// intermediate Variables, no pooled temporaries) with a hand-derived
// backward. Forward AND backward are bitwise identical to the composed ops
// they replace (tensor/tensor_ops.h "Fused elementwise chains"), so models
// may swap them in without perturbing checkpoint/resume or the
// streamed-vs-batch equality — as long as Forward and StepForward switch
// together.

Variable AddSigmoid(const Variable& a, const Variable& b);  // sigmoid(a + b)
Variable AddTanh(const Variable& a, const Variable& b);     // tanh(a + b)
Variable ExpNegRelu(const Variable& a);                     // exp(-relu(a))

// ELDA's feature-level interaction chain (paper Eqs. 5-6) as one op and one
// tape node: e [..., C, E], w_alpha [C, E], b_alpha [C], p [2E, D] ->
// relu([e ; e ⊙ (α e)]) p as [..., C*D], where α is the diagonal-masked row
// softmax of (w_alpha ⊙ e) eᵀ + b_alpha. Forward and backward are bitwise
// equal to the composed chain (tensor/tensor_ops.h "Feature-interaction
// tile"); the backward recomputes α, so the tape keeps only the inputs.
// `alpha_out`, when non-null, receives α as [..., C, C].
Variable FeatureInteractionTile(const Variable& e, const Variable& w_alpha,
                                const Variable& b_alpha, const Variable& p,
                                Tensor* alpha_out);

// Paper Eq. 2 as one tape node (core::BiDirectionalEmbedding), bitwise
// equal to the composed broadcast chain (tensor/tensor_ops.h
// "Bi-directional embedding"). x [B, T, C] is a constant input; va holds V
// for the FM variants, vb is undefined for them, and vm/never are undefined
// without V_m. Returns [B, T, C, E].
Variable BiDirectionalEmbedding(const Tensor& x, const Variable& va,
                                const Variable& vb, const Variable& vm,
                                const Tensor& never,
                                const EmbeddingSpec& spec);

// -- Linear algebra ---------------------------------------------------------------

// Supported operand ranks follow tensor MatMul: 2-D x 2-D, 3-D x 3-D, and
// 3-D x 2-D (shared right-hand side, e.g. a weight matrix applied per step).
Variable MatMul(const Variable& a, const Variable& b);

// -- Shape ----------------------------------------------------------------------------
Variable Reshape(const Variable& a, std::vector<int64_t> shape);
Variable TransposeLast2(const Variable& a);
// Swaps the first two axes ([B, T, ...] <-> [T, B, ...]); the relayout
// between batch-major model tensors and the time-major recurrence engine.
Variable Transpose01(const Variable& a);
// Reverses entry order along `axis` (e.g. the time axis for bidirectional
// recurrences). One tape node, unlike the old T-slices-plus-Concat idiom.
Variable ReverseAxis(const Variable& a, int64_t axis);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t len);

// -- Zero-copy views ------------------------------------------------------------------
//
// The forward values of these ops alias their input's storage (no copy, no
// allocation; see Tensor::ViewRows) and their backward adds the incoming
// gradient into just the viewed block of the parent's grad buffer
// (AccumulateGradRange) — no full-size scatter tensor is built. They are
// how the recurrence engine reads per-step inputs out of a hoisted
// time-major buffer for free.

// View of rows [start, start + len) along axis 0.
Variable RowsView(const Variable& a, int64_t start, int64_t len);
// View of entry `t` along axis 0 with the leading axis dropped:
// a [T, B, H] input yields the [B, H] step tensor.
Variable StepView(const Variable& a, int64_t t);

// Rows of `a` along axis 0 picked by `index` (repeats allowed): a
// [N, rest...] input yields [index.size(), rest...]. One tape node; the
// forward copies rows and the backward adds each output row's gradient into
// its source row in index order, so the result does not depend on the
// thread count.
Variable GatherRows(const Variable& a, std::vector<int64_t> index);

// Stacks N same-shaped parts into [N, shape...] (the inverse of N StepView
// reads): one tape node whose backward hands each parent a zero-copy view
// of the stacked gradient.
Variable Stack0(const std::vector<Variable>& parts);

// Row-frozen state update for ragged sweeps: row b of the result is fresh's
// row where keep[b] != 0 and prev's row otherwise. Copy semantics — kept
// rows are bitwise the fresh computation and frozen rows bitwise the prior
// state (no mask arithmetic, which would not be bitwise-safe). The batch
// axis is dim-2, covering both [B, H] and packed [S, B, H] states; the
// backward routes each row's gradient to whichever parent it was copied
// from.
Variable FreezeRows(const Variable& fresh, const Variable& prev,
                    std::vector<uint8_t> keep);

// -- Reductions --------------------------------------------------------------------------
Variable Sum(const Variable& a, int64_t axis, bool keepdims = false);
Variable Mean(const Variable& a, int64_t axis, bool keepdims = false);
Variable SumAll(const Variable& a);   // -> scalar
Variable MeanAll(const Variable& a);  // -> scalar

// Numerically stable softmax along the last axis (elda::Softmax). To mask
// entries out (e.g. the diagonal of an interaction matrix, or future time
// steps), add a constant tensor of large negative values to the logits
// first.
Variable Softmax(const Variable& a);

// -- Regularisation ---------------------------------------------------------------------------

// Inverted dropout: scales kept activations by 1/(1-rate) in training mode,
// identity in eval mode or at rate 0.
Variable Dropout(const Variable& a, float rate, bool training, Rng* rng);

// -- Losses -------------------------------------------------------------------------------------

// Mean binary cross-entropy between logits and {0,1} targets, fused with the
// sigmoid for numerical stability:
//   mean_i [ max(z,0) - z*y + log(1+exp(-|z|)) ]
// Targets are treated as constants. Returns a scalar.
Variable BceWithLogits(const Variable& logits, const Tensor& targets);

// Masked variant for per-step losses over ragged sequences: the mean runs
// over cells with valid[i] != 0 only. Selection, not multiplication — cells
// with valid[i] == 0 are never read (they may legitimately hold the
// quiet-NaN logits a model emits below min_steps_to_score()) and receive a
// zero gradient. With every cell valid the loss and gradient are bitwise
// identical to BceWithLogits. An all-invalid mask yields loss 0 with no
// gradient. `valid` must match `logits` in size.
Variable MaskedBceWithLogits(const Variable& logits, const Tensor& targets,
                             const std::vector<uint8_t>& valid);

}  // namespace ag
}  // namespace elda

#endif  // ELDA_AUTOGRAD_OPS_H_
