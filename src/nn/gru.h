// Gated Recurrent Unit (Cho et al., 2014), the temporal backbone of
// ELDA-Net's Time-level Interaction Learning Module and of several baselines.
//
// Update equations (gate order r, z, n in the packed weights):
//   r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
//   z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
//   n_t = tanh  (x_t W_n + r_t * (h_{t-1} U_n) + b_n)
//   h_t = (1 - z_t) * n_t + z_t * h_{t-1}
//
// The cell exposes the recurrence split the sweep engine
// (nn/recurrent_sweep.h) is built on: PrecomputeInput hoists the
// input-to-gates transform x W_ih + b out of the time loop (one GEMM over
// all steps instead of T small ones — bitwise identical under the strict-k
// MatMul contract, since each output row depends only on its own input
// row), and Step consumes one precomputed [B, 3H] block per timestep as a
// single fused tape node covering the recurrent GEMM and all gate math.
// Step's backward multiplies by W_hhᵀ as an NN product; a sweep makes that
// transpose once (RecurrentWeightT) and hands it to every step, so a taped
// T-step sweep copies W_hh once, not T times.

#ifndef ELDA_NN_GRU_H_
#define ELDA_NN_GRU_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace elda {
namespace nn {

class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  // x: [B, input], h: [B, hidden] -> new hidden [B, hidden].
  // Equivalent to Step(PrecomputeInput(x), h).
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& h) const;

  // Input-to-gates transform x W_ih + b for any batch of inputs
  // ([N, input] -> [N, 3*hidden], gate order r|z|n). Time-independent, so a
  // sweep computes it once for all steps ([T*B, input] rows) and feeds Step
  // zero-copy row views of the result.
  ag::Variable PrecomputeInput(const ag::Variable& x) const;

  // W_hhᵀ ([3*hidden, hidden]) while the tape records, else an undefined
  // tensor (nothing is copied for graph-free steps).
  Tensor RecurrentWeightT() const;

  // One timestep as a single fused tape node: xw = precomputed gate inputs
  // for this step ([B, 3*hidden]), h = previous hidden ([B, hidden]) ->
  // next hidden. Runs the recurrent GEMM h W_hh and all gate math in one
  // kernel pass (tensor GruGates); values are bitwise identical to the
  // op-by-op composition. The backward's dh = dhu W_hhᵀ runs against
  // `w_hh_t` (RecurrentWeightT(), which a sweep takes once), the same
  // strict-k chains as the NT product; a taped Step left without it makes
  // its own.
  ag::Variable Step(const ag::Variable& xw, const ag::Variable& h,
                    const Tensor& w_hh_t = Tensor()) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

  const ag::Variable& w_ih() const { return w_ih_; }
  const ag::Variable& w_hh() const { return w_hh_; }
  const ag::Variable& bias() const { return bias_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  ag::Variable w_ih_;  // [input, 3*hidden]
  ag::Variable w_hh_;  // [hidden, 3*hidden]
  ag::Variable bias_;  // [3*hidden]
};

// Runs a GruCell across the time axis (via nn::GruSweep).
class Gru : public Module {
 public:
  Gru(int64_t input_size, int64_t hidden_size, Rng* rng);

  // x: [B, T, input] -> all hidden states [B, T, hidden]; the initial state
  // is zero. The last step's state is Slice(result, 1, T-1, 1). `lengths`
  // (optional, [B] valid-prefix lengths) freezes each row's state past its
  // length — see SweepOptions::lengths for the bitwise contract.
  ag::Variable Forward(const ag::Variable& x,
                       const std::vector<int64_t>* lengths = nullptr) const;

  // As Forward but exposes the per-step states, which some models (RETAIN,
  // ELDA's time module) consume individually without re-slicing. With
  // `lengths`, row b of every step t >= lengths[b] carries its frozen final
  // state, so .back() rows equal solo runs at each row's true length.
  std::vector<ag::Variable> ForwardSteps(
      const ag::Variable& x,
      const std::vector<int64_t>* lengths = nullptr) const;

  const GruCell& cell() const { return cell_; }

 private:
  GruCell cell_;
};

}  // namespace nn
}  // namespace elda

#endif  // ELDA_NN_GRU_H_
