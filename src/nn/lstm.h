// Long Short-Term Memory cell and layer (Hochreiter & Schmidhuber, 1997).
// Used by the StageNet baseline, which builds its stage-aware recurrence on
// an LSTM backbone.
//
// Gate order in the packed weights: i, f, g, o.
//   i = sigmoid(x W_i + h U_i + b_i)
//   f = sigmoid(x W_f + h U_f + b_f)   (forget bias initialised to 1)
//   g = tanh  (x W_g + h U_g + b_g)
//   o = sigmoid(x W_o + h U_o + b_o)
//   c' = f * c + i * g ;  h' = o * tanh(c')
//
// Like GruCell, the cell splits into PrecomputeInput (the hoistable
// input-to-gates GEMM — here withOUT the bias, which the original
// composition adds after the recurrent GEMM as (xW + hU) + b, an order the
// fused step preserves for bitwise identity) and Step. Step carries both
// recurrent tensors as one packed state [2, B, H] (h in row block 0, c in
// row block 1) so a whole timestep is a single fused tape node; the h half
// is exposed as a zero-copy row view. As in GruCell, Step's backward runs
// dh = dpre W_hhᵀ against a transpose the caller makes once per sweep.

#ifndef ELDA_NN_LSTM_H_
#define ELDA_NN_LSTM_H_

#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace elda {
namespace nn {

class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  struct State {
    ag::Variable h;  // [B, hidden]
    ag::Variable c;  // [B, hidden]
  };

  // Packs h and c (pure copy) / views them back out (zero-copy).
  ag::Variable Pack(const State& state) const;
  State Unpack(const ag::Variable& packed) const;

  State Forward(const ag::Variable& x, const State& state) const;

  // Input-to-gates transform x W_ih, no bias ([N, input] -> [N, 4*hidden],
  // gate order i|f|g|o).
  ag::Variable PrecomputeInput(const ag::Variable& x) const;

  // W_hhᵀ ([4*hidden, hidden]) while the tape records, else an undefined
  // tensor.
  Tensor RecurrentWeightT() const;

  // One timestep as a single fused tape node: xw [B, 4*hidden], packed
  // state [2, B, hidden] -> next packed state. Covers the recurrent GEMM,
  // the bias add, and all gate math (tensor LstmGates). `w_hh_t` is
  // RecurrentWeightT(), which a sweep takes once; a taped Step left without
  // it makes its own.
  ag::Variable Step(const ag::Variable& xw, const ag::Variable& packed,
                    const Tensor& w_hh_t = Tensor()) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

  const ag::Variable& w_ih() const { return w_ih_; }
  const ag::Variable& w_hh() const { return w_hh_; }
  const ag::Variable& bias() const { return bias_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  ag::Variable w_ih_;  // [input, 4*hidden]
  ag::Variable w_hh_;  // [hidden, 4*hidden]
  ag::Variable bias_;  // [4*hidden]
};

class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng);

  // x: [B, T, input] -> all hidden states [B, T, hidden]; zero initial state.
  ag::Variable Forward(const ag::Variable& x) const;

  const LstmCell& cell() const { return cell_; }

 private:
  LstmCell cell_;
};

}  // namespace nn
}  // namespace elda

#endif  // ELDA_NN_LSTM_H_
