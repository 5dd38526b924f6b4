#include "nn/recurrent_sweep.h"

#include "mem/prof.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace nn {
namespace {

// [B, T, C] -> precomputed gate block [T*B, gH] plus the loop bounds.
// The flattened time-major layout makes step t the contiguous row range
// [t*B, (t+1)*B), which RowsView hands out without copying.
ag::Variable HoistInput(
    const ag::Variable& x, int64_t expected_input,
    const std::function<ag::Variable(const ag::Variable&)>& precompute) {
  ELDA_CHECK_EQ(x.value().dim(), 3);
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  const int64_t input = x.value().shape(2);
  ELDA_CHECK_EQ(input, expected_input);
  ag::Variable time_major =
      ag::Reshape(ag::Transpose01(x), {steps * batch, input});
  return precompute(time_major);
}

}  // namespace

ag::Variable SweepResult::Stacked() const {
  return ag::Transpose01(ag::Stack0(steps));
}

const ag::Variable& SweepResult::last() const {
  ELDA_CHECK(!steps.empty());
  return reversed ? steps.front() : steps.back();
}

SweepResult Sweep(
    int64_t num_steps, const ag::Variable& initial_state,
    const std::function<ag::Variable(int64_t, const ag::Variable&)>& step,
    const SweepOptions& options) {
  ELDA_PROF_SCOPE(options.label);
  ELDA_CHECK_GE(num_steps, 1);
  // Uniform batches (every row runs the full horizon) take the dense path:
  // no per-step keep masks, no FreezeRows nodes, bitwise the pre-ragged
  // sweep.
  const std::vector<int64_t>* lengths = options.lengths;
  if (lengths != nullptr) {
    bool uniform = true;
    for (int64_t len : *lengths) {
      ELDA_CHECK(len >= 0 && len <= num_steps);
      uniform = uniform && len == num_steps;
    }
    if (uniform) lengths = nullptr;
  }
  const int64_t batch =
      lengths == nullptr
          ? 0
          : initial_state.value().shape(initial_state.value().dim() - 2);
  if (lengths != nullptr) {
    ELDA_CHECK_EQ(static_cast<int64_t>(lengths->size()), batch);
  }
  SweepResult result;
  result.reversed = options.reversed;
  result.steps.resize(num_steps);
  ag::Variable state = initial_state;
  for (int64_t s = 0; s < num_steps; ++s) {
    const int64_t t = options.reversed ? num_steps - 1 - s : s;
    if (lengths == nullptr) {
      state = step(t, state);
    } else {
      std::vector<uint8_t> keep(batch);
      int64_t num_kept = 0;
      for (int64_t b = 0; b < batch; ++b) {
        keep[b] = t < (*lengths)[b] ? 1 : 0;
        num_kept += keep[b];
      }
      if (num_kept == batch) {
        state = step(t, state);
      } else if (num_kept > 0) {
        state = ag::FreezeRows(step(t, state), state, std::move(keep));
      }
      // num_kept == 0: every row is past its length at this step; the state
      // (and the filed step) carry forward unchanged.
    }
    result.steps[t] = state;
  }
  return result;
}

SweepResult GruSweep(const GruCell& cell, const ag::Variable& x,
                     const SweepOptions& options) {
  ELDA_PROF_SCOPE(options.label);
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  ag::Variable xw_all = HoistInput(
      x, cell.input_size(),
      [&cell](const ag::Variable& rows) { return cell.PrecomputeInput(rows); });
  ag::Variable h0 =
      ag::Constant(Tensor::Zeros({batch, cell.hidden_size()}));
  const Tensor w_hh_t = cell.RecurrentWeightT();
  SweepOptions inner = options;
  inner.label = "GruSweep/steps";
  return Sweep(
      steps, h0,
      [&cell, &xw_all, &w_hh_t, batch](int64_t t, const ag::Variable& h) {
        return cell.Step(ag::RowsView(xw_all, t * batch, batch), h, w_hh_t);
      },
      inner);
}

SweepResult LstmSweep(const LstmCell& cell, const ag::Variable& x,
                      const SweepOptions& options) {
  ELDA_PROF_SCOPE(options.label);
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  ag::Variable xw_all = HoistInput(
      x, cell.input_size(),
      [&cell](const ag::Variable& rows) { return cell.PrecomputeInput(rows); });
  ag::Variable s0 =
      ag::Constant(Tensor::Zeros({2, batch, cell.hidden_size()}));
  const Tensor w_hh_t = cell.RecurrentWeightT();
  SweepOptions inner = options;
  inner.label = "LstmSweep/steps";
  SweepResult packed = Sweep(
      steps, s0,
      [&cell, &xw_all, &w_hh_t, batch](int64_t t, const ag::Variable& s) {
        return cell.Step(ag::RowsView(xw_all, t * batch, batch), s, w_hh_t);
      },
      inner);
  SweepResult result;
  result.reversed = packed.reversed;
  result.steps.reserve(packed.steps.size());
  for (const ag::Variable& s : packed.steps) {
    result.steps.push_back(ag::StepView(s, 0));
  }
  return result;
}

}  // namespace nn
}  // namespace elda
