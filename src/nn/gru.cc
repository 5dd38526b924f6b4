#include "nn/gru.h"

#include "nn/init.h"
#include "nn/recurrent_sweep.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace nn {

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter(
      "w_ih", XavierUniform(input_size, hidden_size,
                            {input_size, 3 * hidden_size}, rng));
  w_hh_ = RegisterParameter(
      "w_hh", XavierUniform(hidden_size, hidden_size,
                            {hidden_size, 3 * hidden_size}, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({3 * hidden_size}));
}

ag::Variable GruCell::Forward(const ag::Variable& x,
                              const ag::Variable& h) const {
  return Step(PrecomputeInput(x), h);
}

Tensor GruCell::RecurrentWeightT() const {
  return ag::GradEnabled() ? Transpose(w_hh_.value()) : Tensor();
}

ag::Variable GruCell::PrecomputeInput(const ag::Variable& x) const {
  return ag::Add(ag::MatMul(x, w_ih_), bias_);
}

ag::Variable GruCell::Step(const ag::Variable& xw, const ag::Variable& h,
                           const Tensor& w_hh_t) const {
  const int64_t hs = hidden_size_;
  const Tensor hu = elda::MatMul(h.value(), w_hh_.value());  // [B, 3H]
  const bool taped = ag::GradEnabled();
  Tensor r, z, n;
  Tensor h_new =
      elda::GruGates(xw.value(), hu, h.value(), taped ? &r : nullptr,
                     taped ? &z : nullptr, taped ? &n : nullptr);
  const Tensor h_prev = h.value();
  return ag::MakeOpResult(
      std::move(h_new), {xw, h, w_hh_},
      [hs, hu, r, z, n, h_prev,
       w_hh_t = w_hh_t.defined() ? w_hh_t : RecurrentWeightT()](
          ag::internal::Node* node) {
        // Hand-derived adjoint of the fused step. With pre-activation
        // gradients d*_pre:
        //   dn_pre = dh' * (1-z) * (1-n^2)
        //   dz_pre = dh' * (h - n) * z * (1-z)
        //   dr_pre = dn_pre * (hU_n) * r * (1-r)
        //   dxw    = [dr_pre | dz_pre | dn_pre]
        //   dhu    = [dr_pre | dz_pre | dn_pre * r]
        //   dh     = dh' * z + dhu W_hh^T
        //   dW_hh  = h^T dhu
        const int64_t bsz = node->grad.shape(0);
        Tensor dxw({bsz, 3 * hs});
        Tensor dhu({bsz, 3 * hs});
        Tensor dh({bsz, hs});
        const float* pg = node->grad.data();
        const float* pr = r.data();
        const float* pz = z.data();
        const float* pn = n.data();
        const float* ph = h_prev.data();
        const float* phu = hu.data();
        float* pdxw = dxw.data();
        float* pdhu = dhu.data();
        float* pdh = dh.data();
        for (int64_t b = 0; b < bsz; ++b) {
          const int64_t rh = b * hs;
          const int64_t rg = b * 3 * hs;
          for (int64_t k = 0; k < hs; ++k) {
            const float gv = pg[rh + k];
            const float rv = pr[rh + k];
            const float zv = pz[rh + k];
            const float nv = pn[rh + k];
            const float dn_pre = gv * (1.0f - zv) * (1.0f - nv * nv);
            const float dz_pre =
                gv * (ph[rh + k] - nv) * zv * (1.0f - zv);
            const float dr_pre =
                dn_pre * phu[rg + 2 * hs + k] * rv * (1.0f - rv);
            pdxw[rg + k] = dr_pre;
            pdxw[rg + hs + k] = dz_pre;
            pdxw[rg + 2 * hs + k] = dn_pre;
            pdhu[rg + k] = dr_pre;
            pdhu[rg + hs + k] = dz_pre;
            pdhu[rg + 2 * hs + k] = dn_pre * rv;
            pdh[rh + k] = gv * zv;
          }
        }
        ag::internal::Node* p_xw = node->parents[0].get();
        ag::internal::Node* p_h = node->parents[1].get();
        ag::internal::Node* p_whh = node->parents[2].get();
        if (p_xw->requires_grad) ag::internal::AccumulateGrad(p_xw, dxw);
        if (p_h->requires_grad) {
          const Tensor dh_hu = elda::MatMul(dhu, w_hh_t);
          float* dst = dh.data();
          const float* src = dh_hu.data();
          for (int64_t i = 0; i < dh.size(); ++i) dst[i] += src[i];
          ag::internal::AccumulateGrad(p_h, dh);
        }
        if (p_whh->requires_grad) {
          ag::internal::AccumulateGrad(
              p_whh, elda::MatMul(h_prev, dhu, true, false));
        }
      });
}

Gru::Gru(int64_t input_size, int64_t hidden_size, Rng* rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterSubmodule("cell", &cell_);
}

ag::Variable Gru::Forward(const ag::Variable& x,
                          const std::vector<int64_t>* lengths) const {
  SweepOptions options;
  options.lengths = lengths;
  return GruSweep(cell_, x, options).Stacked();
}

std::vector<ag::Variable> Gru::ForwardSteps(
    const ag::Variable& x, const std::vector<int64_t>* lengths) const {
  SweepOptions options;
  options.lengths = lengths;
  return GruSweep(cell_, x, options).steps;
}

}  // namespace nn
}  // namespace elda
