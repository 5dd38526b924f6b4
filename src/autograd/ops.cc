#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.h"

namespace elda {
namespace ag {

using internal::AccumulateGrad;
using internal::Node;

Variable Constant(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable ConstantScalar(float value) { return Constant(Tensor::Scalar(value)); }

Variable Add(const Variable& a, const Variable& b) {
  return MakeOpResult(elda::Add(a.value(), b.value()), {a, b}, [](Node* n) {
    AccumulateGrad(n->parents[0].get(), n->grad);
    AccumulateGrad(n->parents[1].get(), n->grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOpResult(elda::Sub(a.value(), b.value()), {a, b}, [](Node* n) {
    AccumulateGrad(n->parents[0].get(), n->grad);
    Node* pb = n->parents[1].get();
    if (pb->requires_grad) AccumulateGrad(pb, elda::Neg(n->grad));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeOpResult(elda::Mul(va, vb), {a, b}, [va, vb](Node* n) {
    // Products for a parent that takes no gradient (a constant, a mask)
    // are skipped: AccumulateGrad would discard them.
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) AccumulateGrad(pa, elda::Mul(n->grad, vb));
    if (pb->requires_grad) AccumulateGrad(pb, elda::Mul(n->grad, va));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeOpResult(elda::Div(va, vb), {a, b}, [va, vb](Node* n) {
    // d/da = g / b;  d/db = -g * a / b^2
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) AccumulateGrad(pa, elda::Div(n->grad, vb));
    if (pb->requires_grad) {
      AccumulateGrad(pb, elda::Neg(elda::Div(elda::Mul(n->grad, va),
                                             elda::Mul(vb, vb))));
    }
  });
}

Variable AddScalar(const Variable& a, float s) {
  return MakeOpResult(elda::AddScalar(a.value(), s), {a}, [](Node* n) {
    AccumulateGrad(n->parents[0].get(), n->grad);
  });
}

Variable MulScalar(const Variable& a, float s) {
  return MakeOpResult(elda::MulScalar(a.value(), s), {a}, [s](Node* n) {
    AccumulateGrad(n->parents[0].get(), elda::MulScalar(n->grad, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  Tensor y = elda::Exp(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    AccumulateGrad(n->parents[0].get(), elda::Mul(n->grad, y));
  });
}

Variable Log(const Variable& a) {
  Tensor x = a.value();
  return MakeOpResult(elda::Log(x), {a}, [x](Node* n) {
    // Matches the clamped forward: d log(max(x, eps)) / dx ~= 1/max(x, eps).
    Tensor clamped = elda::Maximum(x, Tensor::Full(x.shape(), 1e-12f));
    AccumulateGrad(n->parents[0].get(), elda::Div(n->grad, clamped));
  });
}

Variable Square(const Variable& a) {
  Tensor x = a.value();
  return MakeOpResult(elda::Square(x), {a}, [x](Node* n) {
    AccumulateGrad(n->parents[0].get(),
                   elda::Mul(n->grad, elda::MulScalar(x, 2.0f)));
  });
}

Variable Sqrt(const Variable& a) {
  Tensor y = elda::Sqrt(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    Tensor denom = elda::Maximum(elda::MulScalar(y, 2.0f),
                                 Tensor::Full(y.shape(), 1e-12f));
    AccumulateGrad(n->parents[0].get(), elda::Div(n->grad, denom));
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = elda::Sigmoid(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    // y' = y (1 - y); the fused kernel evaluates g * (y * (1 - y)) exactly
    // as the old Ones/Sub/Mul/Mul composition did, in one pass.
    AccumulateGrad(n->parents[0].get(), elda::SigmoidGrad(n->grad, y));
  });
}

Variable Tanh(const Variable& a) {
  Tensor y = elda::Tanh(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    // y' = 1 - y^2, fused as g * (1 - y*y) — same floats as the composed
    // Ones/Square/Sub/Mul chain.
    AccumulateGrad(n->parents[0].get(), elda::TanhGrad(n->grad, y));
  });
}

Variable AddSigmoid(const Variable& a, const Variable& b) {
  Tensor y = elda::AddSigmoid(a.value(), b.value());
  return MakeOpResult(y, {a, b}, [y](Node* n) {
    // d sigmoid(a+b) is the same for both operands; AccumulateGrad reduces
    // it to each parent's shape when the forward broadcast.
    Tensor d = elda::SigmoidGrad(n->grad, y);
    AccumulateGrad(n->parents[0].get(), d);
    AccumulateGrad(n->parents[1].get(), d);
  });
}

Variable AddTanh(const Variable& a, const Variable& b) {
  Tensor y = elda::AddTanh(a.value(), b.value());
  return MakeOpResult(y, {a, b}, [y](Node* n) {
    Tensor d = elda::TanhGrad(n->grad, y);
    AccumulateGrad(n->parents[0].get(), d);
    AccumulateGrad(n->parents[1].get(), d);
  });
}

Variable ExpNegRelu(const Variable& a) {
  Tensor x = a.value();
  Tensor y = elda::ExpNegRelu(x);
  return MakeOpResult(y, {a}, [x, y](Node* n) {
    AccumulateGrad(n->parents[0].get(), elda::ExpNegReluGrad(n->grad, y, x));
  });
}

Variable FeatureInteractionTile(const Variable& e, const Variable& w_alpha,
                                const Variable& b_alpha, const Variable& p,
                                Tensor* alpha_out) {
  Tensor ev = e.value();
  Tensor wv = w_alpha.value();
  Tensor bv = b_alpha.value();
  Tensor pv = p.value();
  return MakeOpResult(
      elda::FeatureInteractionTile(ev, wv, bv, pv, alpha_out),
      {e, w_alpha, b_alpha, p}, [ev, wv, bv, pv](Node* n) {
        const bool want_de = n->parents[0]->requires_grad;
        elda::FeatureInteractionTileGrads grads =
            elda::FeatureInteractionTileBackward(ev, wv, bv, pv, n->grad,
                                                 want_de);
        if (want_de) AccumulateGrad(n->parents[0].get(), grads.de);
        AccumulateGrad(n->parents[1].get(), grads.dw);
        AccumulateGrad(n->parents[2].get(), grads.db);
        AccumulateGrad(n->parents[3].get(), grads.dp);
      });
}

Variable BiDirectionalEmbedding(const Tensor& x, const Variable& va,
                                const Variable& vb, const Variable& vm,
                                const Tensor& never,
                                const EmbeddingSpec& spec) {
  const bool has_vb = vb.defined();
  const bool has_vm = vm.defined();
  std::vector<Variable> parents{va};
  if (has_vb) parents.push_back(vb);
  if (has_vm) parents.push_back(vm);
  Tensor out = elda::BiDirectionalEmbedding(
      x, va.value(), has_vb ? vb.value() : Tensor(),
      has_vm ? vm.value() : Tensor(), never, spec);
  return MakeOpResult(
      std::move(out), std::move(parents),
      [x, never, spec, has_vb, has_vm](Node* n) {
        Node* pa = n->parents[0].get();
        Node* pb = has_vb ? n->parents[1].get() : nullptr;
        Node* pm = has_vm ? n->parents.back().get() : nullptr;
        const elda::BiDirectionalEmbeddingGrads grads =
            elda::BiDirectionalEmbeddingBackward(
                x, never, n->grad, spec, pa->requires_grad,
                pb != nullptr && pb->requires_grad,
                pm != nullptr && pm->requires_grad);
        if (grads.dva.defined()) AccumulateGrad(pa, grads.dva);
        if (grads.dvb.defined()) AccumulateGrad(pb, grads.dvb);
        if (grads.dvm.defined()) AccumulateGrad(pm, grads.dvm);
      });
}

Variable Relu(const Variable& a) {
  Tensor x = a.value();
  return MakeOpResult(elda::Relu(x), {a}, [x](Node* n) {
    AccumulateGrad(n->parents[0].get(),
                   elda::Mul(n->grad, elda::GreaterThanScalar(x, 0.0f)));
  });
}

Variable Abs(const Variable& a) {
  Tensor x = a.value();
  return MakeOpResult(elda::Abs(x), {a}, [x](Node* n) {
    Tensor sign = Tensor::Empty(x.shape());
    for (int64_t i = 0; i < x.size(); ++i) {
      sign[i] = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
    }
    AccumulateGrad(n->parents[0].get(), elda::Mul(n->grad, sign));
  });
}

Variable Clip(const Variable& a, float lo, float hi) {
  ELDA_CHECK_LT(lo, hi);
  Tensor x = a.value();
  return MakeOpResult(elda::Clip(x, lo, hi), {a}, [x, lo, hi](Node* n) {
    Tensor inside = Tensor::Empty(x.shape());
    for (int64_t i = 0; i < x.size(); ++i) {
      inside[i] = (x[i] > lo && x[i] < hi) ? 1.0f : 0.0f;
    }
    AccumulateGrad(n->parents[0].get(), elda::Mul(n->grad, inside));
  });
}

Variable Pow(const Variable& a, float p) {
  Tensor x = elda::Maximum(a.value(), Tensor::Full(a.value().shape(), 1e-12f));
  Tensor y = elda::Pow(x, p);
  return MakeOpResult(y, {a}, [x, p](Node* n) {
    // d(x^p)/dx = p x^(p-1) on the clamped input.
    Tensor d = elda::MulScalar(elda::Pow(x, p - 1.0f), p);
    AccumulateGrad(n->parents[0].get(), elda::Mul(n->grad, d));
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeOpResult(elda::MatMul(va, vb), {a, b}, [va, vb](Node* n) {
    // dA = dC * B^T ; dB = A^T * dC. The tensor MatMul handles batched and
    // shared-rhs layouts; ReduceToShape inside AccumulateGrad folds any
    // broadcast batch dimension back down.
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) {
      AccumulateGrad(pa, elda::MatMul(n->grad, vb, false, true));
    }
    if (pb->requires_grad) {
      if (va.dim() == 3 && vb.dim() == 2) {
        // [B,M,K]^T x [B,M,N] would give [B,K,N]; flatten the batch instead
        // so the shared rhs receives the summed gradient directly.
        Tensor a2 = va.Reshape({va.shape(0) * va.shape(1), va.shape(2)});
        Tensor g2 = n->grad.Reshape(
            {n->grad.shape(0) * n->grad.shape(1), n->grad.shape(2)});
        AccumulateGrad(pb, elda::MatMul(a2, g2, true, false));
      } else {
        AccumulateGrad(pb, elda::MatMul(va, n->grad, true, false));
      }
    }
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  std::vector<int64_t> old_shape = a.value().shape();
  return MakeOpResult(a.value().Reshape(std::move(shape)), {a},
                      [old_shape](Node* n) {
                        AccumulateGrad(n->parents[0].get(),
                                       n->grad.Reshape(old_shape));
                      });
}

Variable TransposeLast2(const Variable& a) {
  return MakeOpResult(elda::TransposeLast2(a.value()), {a}, [](Node* n) {
    AccumulateGrad(n->parents[0].get(), elda::TransposeLast2(n->grad));
  });
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  ELDA_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  const int64_t rank = parts[0].value().dim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  std::vector<int64_t> lens;
  lens.reserve(parts.size());
  for (const Tensor& v : values) lens.push_back(v.shape(norm_axis));
  return MakeOpResult(
      elda::Concat(values, norm_axis), parts, [norm_axis, lens](Node* n) {
        int64_t start = 0;
        for (size_t i = 0; i < n->parents.size(); ++i) {
          AccumulateGrad(n->parents[i].get(),
                         elda::Slice(n->grad, norm_axis, start, lens[i]));
          start += lens[i];
        }
      });
}

Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t len) {
  const int64_t rank = a.value().dim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  std::vector<int64_t> in_shape = a.value().shape();
  return MakeOpResult(
      elda::Slice(a.value(), norm_axis, start, len), {a},
      [norm_axis, start, len, in_shape](Node* n) {
        // Scatter the slice gradient back into a zero tensor of input shape.
        Tensor g(in_shape);
        int64_t outer = 1, inner = 1;
        for (int64_t i = 0; i < norm_axis; ++i) outer *= in_shape[i];
        for (size_t i = norm_axis + 1; i < in_shape.size(); ++i) {
          inner *= in_shape[i];
        }
        const int64_t axis_len = in_shape[norm_axis];
        const float* src = n->grad.data();
        float* dst = g.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::copy(src + o * len * inner, src + (o + 1) * len * inner,
                    dst + (o * axis_len + start) * inner);
        }
        AccumulateGrad(n->parents[0].get(), g);
      });
}

Variable Transpose01(const Variable& a) {
  return MakeOpResult(elda::Transpose01(a.value()), {a}, [](Node* n) {
    // The adjoint of a permutation is its inverse; swapping the first two
    // axes is an involution.
    AccumulateGrad(n->parents[0].get(), elda::Transpose01(n->grad));
  });
}

Variable ReverseAxis(const Variable& a, int64_t axis) {
  const int64_t rank = a.value().dim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  return MakeOpResult(elda::ReverseAxis(a.value(), norm_axis), {a},
                      [norm_axis](Node* n) {
                        AccumulateGrad(n->parents[0].get(),
                                       elda::ReverseAxis(n->grad, norm_axis));
                      });
}

Variable RowsView(const Variable& a, int64_t start, int64_t len) {
  const Tensor& v = a.value();
  ELDA_CHECK_GE(v.dim(), 1);
  const int64_t row = v.size() / std::max<int64_t>(v.shape(0), 1);
  const int64_t offset = start * row;
  return MakeOpResult(v.ViewRows(start, len), {a}, [offset](Node* n) {
    internal::AccumulateGradRange(n->parents[0].get(), n->grad, offset);
  });
}

Variable StepView(const Variable& a, int64_t t) {
  const Tensor& v = a.value();
  ELDA_CHECK_GE(v.dim(), 2);
  std::vector<int64_t> step_shape(v.shape().begin() + 1, v.shape().end());
  const int64_t row = v.size() / v.shape(0);
  const int64_t offset = t * row;
  // ViewRows keeps the leading axis as [1, rest...]; Reshape on a view is a
  // shallow shape swap (same aliasing storage), so the step stays zero-copy.
  return MakeOpResult(v.ViewRows(t, 1).Reshape(std::move(step_shape)), {a},
                      [offset](Node* n) {
                        internal::AccumulateGradRange(n->parents[0].get(),
                                                      n->grad, offset);
                      });
}

Variable GatherRows(const Variable& a, std::vector<int64_t> index) {
  const Tensor& v = a.value();
  ELDA_CHECK_GE(v.dim(), 1);
  const int64_t rows = v.shape(0);
  const int64_t row = v.size() / std::max<int64_t>(rows, 1);
  std::vector<int64_t> shape = v.shape();
  shape[0] = static_cast<int64_t>(index.size());
  Tensor out = Tensor::Empty(std::move(shape));
  for (size_t i = 0; i < index.size(); ++i) {
    ELDA_CHECK(index[i] >= 0 && index[i] < rows)
        << "row " << index[i] << " of " << rows;
    std::copy(v.data() + index[i] * row, v.data() + (index[i] + 1) * row,
              out.data() + static_cast<int64_t>(i) * row);
  }
  return MakeOpResult(
      std::move(out), {a}, [index = std::move(index), row](Node* n) {
        Node* parent = n->parents[0].get();
        if (!parent->requires_grad) return;
        if (!parent->grad.defined()) {
          parent->grad = Tensor(parent->value.shape());  // zero-filled
        }
        const float* src = n->grad.data();
        float* dst = parent->grad.data();
        for (size_t i = 0; i < index.size(); ++i) {
          const float* g = src + static_cast<int64_t>(i) * row;
          float* d = dst + index[i] * row;
          for (int64_t k = 0; k < row; ++k) d[k] += g[k];
        }
      });
}

Variable Stack0(const std::vector<Variable>& parts) {
  ELDA_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  std::vector<int64_t> part_shape = values[0].shape();
  return MakeOpResult(
      elda::StackRows(values), parts, [part_shape](Node* n) {
        // Each parent's gradient is a zero-copy view of one stacked row
        // block; AccumulateGrad's same-shape fast path adds it in place.
        for (size_t i = 0; i < n->parents.size(); ++i) {
          AccumulateGrad(
              n->parents[i].get(),
              n->grad.ViewRows(static_cast<int64_t>(i), 1).Reshape(part_shape));
        }
      });
}

Variable FreezeRows(const Variable& fresh, const Variable& prev,
                    std::vector<uint8_t> keep) {
  const Tensor& vf = fresh.value();
  const Tensor& vp = prev.value();
  ELDA_CHECK(vf.shape() == vp.shape());
  ELDA_CHECK_GE(vf.dim(), 2);
  const int64_t batch = vf.shape(vf.dim() - 2);
  const int64_t width = vf.shape(vf.dim() - 1);
  ELDA_CHECK_EQ(static_cast<int64_t>(keep.size()), batch);
  const int64_t slices = vf.size() / (batch * width);

  Tensor out = vf.Clone();
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t b = 0; b < batch; ++b) {
      if (keep[b]) continue;
      const int64_t offset = (s * batch + b) * width;
      std::copy(vp.data() + offset, vp.data() + offset + width,
                out.data() + offset);
    }
  }
  return MakeOpResult(
      out, {fresh, prev},
      [keep, slices, batch, width](Node* n) {
        // Each row's gradient belongs to exactly one parent: fresh where the
        // row was kept, prev where it was frozen. The complementary rows are
        // zero.
        Tensor g_fresh = Tensor::Zeros(n->grad.shape());
        Tensor g_prev = Tensor::Zeros(n->grad.shape());
        for (int64_t s = 0; s < slices; ++s) {
          for (int64_t b = 0; b < batch; ++b) {
            const int64_t offset = (s * batch + b) * width;
            Tensor& dst = keep[b] ? g_fresh : g_prev;
            std::copy(n->grad.data() + offset,
                      n->grad.data() + offset + width, dst.data() + offset);
          }
        }
        AccumulateGrad(n->parents[0].get(), g_fresh);
        AccumulateGrad(n->parents[1].get(), g_prev);
      });
}

Variable Sum(const Variable& a, int64_t axis, bool keepdims) {
  const int64_t rank = a.value().dim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  std::vector<int64_t> in_shape = a.value().shape();
  return MakeOpResult(
      elda::Sum(a.value(), norm_axis, keepdims), {a},
      [norm_axis, keepdims, in_shape](Node* n) {
        Tensor g = n->grad;
        if (!keepdims) {
          std::vector<int64_t> with_axis = g.shape();
          with_axis.insert(with_axis.begin() + norm_axis, 1);
          g = g.Reshape(with_axis);
        }
        // Broadcast back across the summed axis.
        AccumulateGrad(n->parents[0].get(),
                       elda::Add(g, Tensor::Zeros(in_shape)));
      });
}

Variable Mean(const Variable& a, int64_t axis, bool keepdims) {
  const int64_t rank = a.value().dim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  const float inv = 1.0f / static_cast<float>(a.value().shape(norm_axis));
  return MulScalar(Sum(a, norm_axis, keepdims), inv);
}

Variable SumAll(const Variable& a) {
  std::vector<int64_t> in_shape = a.value().shape();
  return MakeOpResult(Tensor::Scalar(elda::SumAll(a.value())), {a},
                      [in_shape](Node* n) {
                        const float g = n->grad[0];
                        AccumulateGrad(n->parents[0].get(),
                                       Tensor::Full(in_shape, g));
                      });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return MulScalar(SumAll(a), inv);
}

Variable Softmax(const Variable& a) {
  Tensor y = elda::Softmax(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    // dx = y * (g - sum(g * y)) per row, one fused rows pass.
    AccumulateGrad(n->parents[0].get(),
                   elda::SoftmaxLastAxisGrad(n->grad, y));
  });
}

Variable Dropout(const Variable& a, float rate, bool training, Rng* rng) {
  if (!training || rate <= 0.0f) return a;
  ELDA_CHECK_LT(rate, 1.0f);
  Tensor mask = Tensor::Empty(a.value().shape());
  const float scale = 1.0f / (1.0f - rate);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng->Bernoulli(rate) ? 0.0f : scale;
  }
  return Mul(a, Constant(mask));
}

Variable BceWithLogits(const Variable& logits, const Tensor& targets) {
  const Tensor& z = logits.value();
  ELDA_CHECK_EQ(z.size(), targets.size());
  const int64_t n_items = z.size();
  double loss = 0.0;
  for (int64_t i = 0; i < n_items; ++i) {
    const float zi = z[i];
    const float yi = targets[i];
    loss += std::max(zi, 0.0f) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
  }
  Tensor value = Tensor::Scalar(static_cast<float>(loss / n_items));
  Tensor zt = z;
  Tensor yt = targets;
  return MakeOpResult(value, {logits}, [zt, yt, n_items](Node* n) {
    // d/dz = (sigmoid(z) - y) / N
    Tensor g = elda::Sigmoid(zt);
    float* p = g.data();
    const float scale = n->grad[0] / static_cast<float>(n_items);
    for (int64_t i = 0; i < n_items; ++i) p[i] = (p[i] - yt[i]) * scale;
    AccumulateGrad(n->parents[0].get(), g);
  });
}

Variable MaskedBceWithLogits(const Variable& logits, const Tensor& targets,
                             const std::vector<uint8_t>& valid) {
  const Tensor& z = logits.value();
  ELDA_CHECK_EQ(z.size(), targets.size());
  ELDA_CHECK_EQ(z.size(), static_cast<int64_t>(valid.size()));
  const int64_t n_items = z.size();
  double loss = 0.0;
  int64_t n_valid = 0;
  for (int64_t i = 0; i < n_items; ++i) {
    if (!valid[i]) continue;
    const float zi = z[i];
    const float yi = targets[i];
    loss += std::max(zi, 0.0f) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
    ++n_valid;
  }
  Tensor value = Tensor::Scalar(
      n_valid == 0 ? 0.0f : static_cast<float>(loss / n_valid));
  Tensor zt = z;
  Tensor yt = targets;
  std::vector<uint8_t> keep = valid;
  return MakeOpResult(
      value, {logits}, [zt, yt, keep, n_items, n_valid](Node* n) {
        if (n_valid == 0) return;
        // d/dz = (sigmoid(z) - y) / n_valid on valid cells, exactly 0 on
        // masked ones (their sigmoid may be NaN and is discarded unread).
        Tensor s = elda::Sigmoid(zt);
        Tensor g = Tensor::Zeros(zt.shape());
        float* p = g.data();
        const float* sp = s.data();
        const float scale = n->grad[0] / static_cast<float>(n_valid);
        for (int64_t i = 0; i < n_items; ++i) {
          if (keep[i]) p[i] = (sp[i] - yt[i]) * scale;
        }
        AccumulateGrad(n->parents[0].get(), g);
      });
}

}  // namespace ag
}  // namespace elda
