#include "nn/lstm.h"

#include <algorithm>

#include "nn/init.h"
#include "nn/recurrent_sweep.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace nn {

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter(
      "w_ih", XavierUniform(input_size, hidden_size,
                            {input_size, 4 * hidden_size}, rng));
  w_hh_ = RegisterParameter(
      "w_hh", XavierUniform(hidden_size, hidden_size,
                            {hidden_size, 4 * hidden_size}, rng));
  // Forget-gate bias of 1 keeps early gradients flowing (standard practice).
  Tensor b = Tensor::Zeros({4 * hidden_size});
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b[i] = 1.0f;
  bias_ = RegisterParameter("bias", b);
}

ag::Variable LstmCell::Pack(const State& state) const {
  return ag::Stack0({state.h, state.c});
}

LstmCell::State LstmCell::Unpack(const ag::Variable& packed) const {
  return {ag::StepView(packed, 0), ag::StepView(packed, 1)};
}

LstmCell::State LstmCell::Forward(const ag::Variable& x,
                                  const State& state) const {
  return Unpack(Step(PrecomputeInput(x), Pack(state)));
}

Tensor LstmCell::RecurrentWeightT() const {
  return ag::GradEnabled() ? Transpose(w_hh_.value()) : Tensor();
}

ag::Variable LstmCell::PrecomputeInput(const ag::Variable& x) const {
  return ag::MatMul(x, w_ih_);
}

ag::Variable LstmCell::Step(const ag::Variable& xw,
                            const ag::Variable& packed,
                            const Tensor& w_hh_t) const {
  const int64_t hs = hidden_size_;
  const Tensor& pv = packed.value();
  ELDA_CHECK_EQ(pv.dim(), 3);
  ELDA_CHECK_EQ(pv.shape(0), 2);
  const int64_t bsz = pv.shape(1);
  const Tensor h_prev = pv.ViewRows(0, 1).Reshape({bsz, hs});
  const Tensor c_prev = pv.ViewRows(1, 1).Reshape({bsz, hs});
  const Tensor hu = elda::MatMul(h_prev, w_hh_.value());  // [B, 4H]
  const bool taped = ag::GradEnabled();
  Tensor i, f, g, o, tc;
  Tensor packed_new = elda::LstmGates(
      xw.value(), hu, bias_.value(), c_prev, taped ? &i : nullptr,
      taped ? &f : nullptr, taped ? &g : nullptr, taped ? &o : nullptr,
      taped ? &tc : nullptr);
  return ag::MakeOpResult(
      std::move(packed_new), {xw, packed, w_hh_, bias_},
      [hs, bsz, i, f, g, o, tc, h_prev, c_prev,
       w_hh_t = w_hh_t.defined() ? w_hh_t : RecurrentWeightT()](
          ag::internal::Node* node) {
        // Hand-derived adjoint. Incoming grad is packed [2, B, H]:
        // gh = rows 0, gc = rows 1.
        //   do_pre = gh * tanh(c') * o * (1-o)
        //   dc     = gh * o * (1 - tanh(c')^2) + gc
        //   di_pre = dc * g * i * (1-i)
        //   df_pre = dc * c * f * (1-f)
        //   dg_pre = dc * i * (1-g^2)
        //   dpre   = [di_pre | df_pre | dg_pre | do_pre]   (= dxw = dhu)
        //   dh     = dpre W_hh^T ; dc_prev = dc * f ; db = sum_B dpre
        Tensor dpre({bsz, 4 * hs});
        Tensor dstate({2, bsz, hs});
        const float* pgh = node->grad.data();
        const float* pgc = node->grad.data() + bsz * hs;
        const float* pi = i.data();
        const float* pf = f.data();
        const float* pg = g.data();
        const float* po = o.data();
        const float* ptc = tc.data();
        const float* pc = c_prev.data();
        float* pd = dpre.data();
        float* pdc_prev = dstate.data() + bsz * hs;
        for (int64_t b = 0; b < bsz; ++b) {
          const int64_t rh = b * hs;
          const int64_t rg = b * 4 * hs;
          for (int64_t k = 0; k < hs; ++k) {
            const float ghv = pgh[rh + k];
            const float iv = pi[rh + k];
            const float fv = pf[rh + k];
            const float gv = pg[rh + k];
            const float ov = po[rh + k];
            const float tcv = ptc[rh + k];
            const float dc = ghv * ov * (1.0f - tcv * tcv) + pgc[rh + k];
            pd[rg + k] = dc * gv * iv * (1.0f - iv);
            pd[rg + hs + k] = dc * pc[rh + k] * fv * (1.0f - fv);
            pd[rg + 2 * hs + k] = dc * iv * (1.0f - gv * gv);
            pd[rg + 3 * hs + k] = ghv * tcv * ov * (1.0f - ov);
            pdc_prev[rh + k] = dc * fv;
          }
        }
        ag::internal::Node* p_xw = node->parents[0].get();
        ag::internal::Node* p_state = node->parents[1].get();
        ag::internal::Node* p_whh = node->parents[2].get();
        ag::internal::Node* p_bias = node->parents[3].get();
        if (p_xw->requires_grad) ag::internal::AccumulateGrad(p_xw, dpre);
        if (p_state->requires_grad) {
          const Tensor dh = elda::MatMul(dpre, w_hh_t);
          std::copy(dh.data(), dh.data() + bsz * hs, dstate.data());
          ag::internal::AccumulateGrad(p_state, dstate);
        }
        if (p_whh->requires_grad) {
          ag::internal::AccumulateGrad(
              p_whh, elda::MatMul(h_prev, dpre, true, false));
        }
        // ReduceToShape inside AccumulateGrad sums [B,4H] -> [4H].
        if (p_bias->requires_grad) {
          ag::internal::AccumulateGrad(p_bias, dpre);
        }
      });
}

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterSubmodule("cell", &cell_);
}

ag::Variable Lstm::Forward(const ag::Variable& x) const {
  return LstmSweep(cell_, x).Stacked();
}

}  // namespace nn
}  // namespace elda
