// The time-major recurrence engine's contract: sweeps are bitwise identical
// to the per-step op-by-op composition they replaced — for every shape,
// thread count, grad mode, and sweep direction — while allocating a
// fraction of the tape. The per-step references below are verbatim
// re-creations of the pre-sweep GruCell/Lstm forward code, built from the
// same parameters through the cells' weight accessors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "baselines/baselines.h"
#include "baselines/common.h"
#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "nn/recurrent_sweep.h"
#include "nn/serialize.h"
#include "par/par.h"
#include "tensor/simd_math.h"
#include "tensor/tensor_ops.h"
#include "train/trainer.h"

namespace elda {
namespace {

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "element " << i;
  }
}

// -- Pre-sweep reference implementations ------------------------------------
//
// These reproduce, op for op, the recurrence code the sweep engine replaced:
// per-step input slices, a per-step input GEMM, gate math composed from
// Slice/Add/Mul/Sigmoid/Tanh nodes, and Reshape+Concat output assembly.

ag::Variable RefGruStep(const nn::GruCell& cell, const ag::Variable& x,
                        const ag::Variable& h) {
  const int64_t hs = cell.hidden_size();
  ag::Variable xw = ag::Add(ag::MatMul(x, cell.w_ih()), cell.bias());
  ag::Variable hu = ag::MatMul(h, cell.w_hh());
  ag::Variable r = ag::Sigmoid(
      ag::Add(ag::Slice(xw, 1, 0, hs), ag::Slice(hu, 1, 0, hs)));
  ag::Variable z = ag::Sigmoid(
      ag::Add(ag::Slice(xw, 1, hs, hs), ag::Slice(hu, 1, hs, hs)));
  ag::Variable n = ag::Tanh(ag::Add(
      ag::Slice(xw, 1, 2 * hs, hs), ag::Mul(r, ag::Slice(hu, 1, 2 * hs, hs))));
  ag::Variable one_minus_z =
      ag::Sub(ag::Constant(Tensor::Ones(z.value().shape())), z);
  return ag::Add(ag::Mul(one_minus_z, n), ag::Mul(z, h));
}

std::vector<ag::Variable> RefGruSteps(const nn::GruCell& cell,
                                      const ag::Variable& x) {
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  const int64_t input = x.value().shape(2);
  ag::Variable h = ag::Constant(Tensor::Zeros({batch, cell.hidden_size()}));
  std::vector<ag::Variable> outputs;
  outputs.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    ag::Variable xt = ag::Reshape(ag::Slice(x, 1, t, 1), {batch, input});
    h = RefGruStep(cell, xt, h);
    outputs.push_back(h);
  }
  return outputs;
}

ag::Variable RefGruForward(const nn::GruCell& cell, const ag::Variable& x) {
  std::vector<ag::Variable> steps = RefGruSteps(cell, x);
  const int64_t batch = x.value().shape(0);
  std::vector<ag::Variable> expanded;
  expanded.reserve(steps.size());
  for (const ag::Variable& h : steps) {
    expanded.push_back(ag::Reshape(h, {batch, 1, cell.hidden_size()}));
  }
  return ag::Concat(expanded, 1);
}

ag::Variable RefLstmForward(const nn::LstmCell& cell, const ag::Variable& x) {
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  const int64_t input = x.value().shape(2);
  const int64_t hs = cell.hidden_size();
  ag::Variable h = ag::Constant(Tensor::Zeros({batch, hs}));
  ag::Variable c = ag::Constant(Tensor::Zeros({batch, hs}));
  std::vector<ag::Variable> outputs;
  outputs.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    ag::Variable xt = ag::Reshape(ag::Slice(x, 1, t, 1), {batch, input});
    ag::Variable gates = ag::Add(
        ag::Add(ag::MatMul(xt, cell.w_ih()), ag::MatMul(h, cell.w_hh())),
        cell.bias());
    ag::Variable i = ag::Sigmoid(ag::Slice(gates, 1, 0, hs));
    ag::Variable f = ag::Sigmoid(ag::Slice(gates, 1, hs, hs));
    ag::Variable g = ag::Tanh(ag::Slice(gates, 1, 2 * hs, hs));
    ag::Variable o = ag::Sigmoid(ag::Slice(gates, 1, 3 * hs, hs));
    c = ag::Add(ag::Mul(f, c), ag::Mul(i, g));
    h = ag::Mul(o, ag::Tanh(c));
    outputs.push_back(ag::Reshape(h, {batch, 1, hs}));
  }
  return ag::Concat(outputs, 1);
}

// The old ReverseTime: T length-1 slices concatenated in reverse order.
ag::Variable RefReverseTime(const ag::Variable& x) {
  const int64_t steps = x.value().shape(1);
  std::vector<ag::Variable> slices;
  slices.reserve(steps);
  for (int64_t t = steps - 1; t >= 0; --t) {
    slices.push_back(ag::Slice(x, 1, t, 1));
  }
  return ag::Concat(slices, 1);
}

struct Shape3 {
  int64_t batch, steps, input, hidden;
};

// H = 9 and H = 17 run the gate kernels' 8-lane body and their scalar tail
// in one row. The last shape is the B=64, H=64 recurrence of the perf
// workloads, whose products cross the MatMul kernels' dispatch boundary.
const Shape3 kShapes[] = {{1, 1, 1, 1},   {2, 6, 3, 4},  {3, 7, 5, 5},
                          {8, 12, 2, 6}, {3, 5, 4, 9},  {5, 4, 3, 17},
                          {64, 3, 37, 64}};

// The taped sweep's step states against the graph-free sweep's, byte for
// byte: the gate kernels' capturing and non-capturing paths.
void ExpectTapedStepsMatchGraphFree(const nn::SweepResult& taped,
                                    const nn::SweepResult& graph_free) {
  ASSERT_EQ(taped.steps.size(), graph_free.steps.size());
  for (size_t t = 0; t < taped.steps.size(); ++t) {
    const Tensor& a = taped.steps[t].value();
    const Tensor& b = graph_free.steps[t].value();
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "step " << t;
  }
}

// -- Bitwise sweep-vs-reference equivalence ----------------------------------

// Per-row lengths in [0, steps] that differ across rows (uniform when the
// batch or the horizon is 1).
std::vector<int64_t> RaggedLengths(int64_t batch, int64_t steps) {
  std::vector<int64_t> lengths(batch);
  for (int64_t b = 0; b < batch; ++b) {
    lengths[b] = steps - (b * 3) % (steps + 1);
  }
  return lengths;
}

// The sweep's step loop written out by hand: the same hoisted input block,
// then one fused cell.Step per step driven directly, with the ragged freeze
// applied per step as the engine does. Each step takes its own W_hh
// transpose, where the sweep takes one for all of them.
template <typename Cell>
std::vector<ag::Variable> RefFusedSteps(const Cell& cell,
                                        const ag::Variable& x,
                                        const std::vector<int64_t>* lengths,
                                        bool packed_state) {
  const int64_t batch = x.value().shape(0);
  const int64_t steps = x.value().shape(1);
  const int64_t input = x.value().shape(2);
  const int64_t hidden = cell.hidden_size();
  ag::Variable xw = cell.PrecomputeInput(
      ag::Reshape(ag::Transpose01(x), {steps * batch, input}));
  ag::Variable state = ag::Constant(
      packed_state ? Tensor::Zeros({2, batch, hidden})
                   : Tensor::Zeros({batch, hidden}));
  const auto step = [&cell](const ag::Variable& xw_t,
                            const ag::Variable& prev) {
    return cell.Step(xw_t, prev);
  };
  std::vector<ag::Variable> out;
  for (int64_t t = 0; t < steps; ++t) {
    std::vector<uint8_t> keep(batch, 1);
    int64_t kept = batch;
    if (lengths != nullptr) {
      for (int64_t b = 0; b < batch; ++b) {
        keep[b] = t < (*lengths)[b] ? 1 : 0;
        kept -= 1 - keep[b];
      }
    }
    if (kept == batch) {
      state = step(ag::RowsView(xw, t * batch, batch), state);
    } else if (kept > 0) {
      state = ag::FreezeRows(step(ag::RowsView(xw, t * batch, batch), state),
                             state, std::move(keep));
    }
    out.push_back(packed_state ? ag::StepView(state, 0) : state);
  }
  return out;
}

// Backpropagates sum(stacked states * weight) and returns copies of the
// gradients of w_ih, w_hh, bias and x, in that order.
std::vector<Tensor> SweepGrads(const std::vector<ag::Variable>& states,
                               const std::vector<ag::Variable>& params,
                               const ag::Variable& x, const Tensor& weight) {
  for (ag::Variable p : params) p.ZeroGrad();
  ag::Variable(x).ZeroGrad();
  ag::Variable stacked = ag::Transpose01(ag::Stack0(states));
  ag::SumAll(ag::Mul(stacked, ag::Constant(weight))).Backward();
  std::vector<Tensor> grads;
  for (const ag::Variable& p : params) grads.push_back(p.grad().Clone());
  grads.push_back(x.grad().Clone());
  return grads;
}

void ExpectGradsBitwiseEqual(const std::vector<Tensor>& got,
                             const std::vector<Tensor>& want) {
  const char* names[] = {"w_ih", "w_hh", "bias", "x"};
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(names[i]);
    ASSERT_EQ(got[i].shape(), want[i].shape());
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(float)),
              0);
  }
}

// The taped sweep's backward against RefFusedSteps' at 1/2/8 threads, dense
// and ragged: the recurrent weight's gradient, the hidden-state chain through
// W_hh and the hoisted input GEMM's gradients must all match bit for bit.
template <typename Cell, typename SweepFn>
void ExpectSweepBackwardMatchesPerStep(const Cell& cell, const Shape3& s,
                                       const SweepFn& sweep_fn,
                                       bool packed_state, uint64_t seed) {
  Rng data_rng(seed);
  ag::Variable x(
      Tensor::Normal({s.batch, s.steps, s.input}, 0.0f, 1.0f, &data_rng),
      /*requires_grad=*/true);
  const Tensor weight =
      Tensor::Normal({s.batch, s.steps, s.hidden}, 0.0f, 1.0f, &data_rng);
  const std::vector<ag::Variable> params = {cell.w_ih(), cell.w_hh(),
                                            cell.bias()};
  const std::vector<int64_t> ragged = RaggedLengths(s.batch, s.steps);
  for (const std::vector<int64_t>* lengths :
       {static_cast<const std::vector<int64_t>*>(nullptr), &ragged}) {
    SCOPED_TRACE(lengths == nullptr ? "dense" : "ragged");
    const std::vector<Tensor> want = SweepGrads(
        RefFusedSteps(cell, x, lengths, packed_state), params, x, weight);
    for (int64_t threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      par::ScopedNumThreads scoped(threads);
      nn::SweepOptions options;
      options.lengths = lengths;
      ExpectGradsBitwiseEqual(
          SweepGrads(sweep_fn(cell, x, options).steps, params, x, weight),
          want);
    }
  }
}

TEST(RecurrenceTest, GruSweepBitwiseMatchesPerStepReference) {
  for (const Shape3& s : kShapes) {
    SCOPED_TRACE(::testing::Message() << "B=" << s.batch << " T=" << s.steps
                                      << " C=" << s.input << " H=" << s.hidden);
    Rng rng(11);
    nn::GruCell cell(s.input, s.hidden, &rng);
    nn::Gru gru(s.input, s.hidden, &rng);
    Rng data_rng(12);
    ag::Variable x = ag::Constant(
        Tensor::Normal({s.batch, s.steps, s.input}, 0.0f, 1.0f, &data_rng));
    const Tensor reference = RefGruForward(cell, x).value().Clone();
    const std::vector<ag::Variable> ref_steps = RefGruSteps(cell, x);
    for (int64_t threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      par::ScopedNumThreads scoped(threads);
      // Taped sweep.
      nn::SweepResult sweep = nn::GruSweep(cell, x);
      ExpectBitwiseEqual(sweep.Stacked().value(), reference);
      ASSERT_EQ(sweep.steps.size(), ref_steps.size());
      for (size_t t = 0; t < ref_steps.size(); ++t) {
        ExpectBitwiseEqual(sweep.steps[t].value(), ref_steps[t].value());
      }
      // Graph-free sweep: same values, zero tape.
      {
        ag::NoGradScope no_grad;
        const int64_t before = ag::TapeNodesAllocated();
        const nn::SweepResult graph_free = nn::GruSweep(cell, x);
        ExpectBitwiseEqual(graph_free.Stacked().value(), reference);
        EXPECT_EQ(ag::TapeNodesAllocated(), before);
        ExpectTapedStepsMatchGraphFree(sweep, graph_free);
      }
    }
    ExpectSweepBackwardMatchesPerStep(
        cell, s,
        [](const nn::GruCell& c, const ag::Variable& xs,
           const nn::SweepOptions& o) { return nn::GruSweep(c, xs, o); },
        /*packed_state=*/false, 13);
  }
}

TEST(RecurrenceTest, LstmSweepBitwiseMatchesPerStepReference) {
  for (const Shape3& s : kShapes) {
    SCOPED_TRACE(::testing::Message() << "B=" << s.batch << " T=" << s.steps
                                      << " C=" << s.input << " H=" << s.hidden);
    Rng rng(21);
    nn::LstmCell cell(s.input, s.hidden, &rng);
    Rng data_rng(22);
    ag::Variable x = ag::Constant(
        Tensor::Normal({s.batch, s.steps, s.input}, 0.0f, 1.0f, &data_rng));
    const Tensor reference = RefLstmForward(cell, x).value().Clone();
    for (int64_t threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      par::ScopedNumThreads scoped(threads);
      const nn::SweepResult taped = nn::LstmSweep(cell, x);
      ExpectBitwiseEqual(taped.Stacked().value(), reference);
      {
        ag::NoGradScope no_grad;
        const int64_t before = ag::TapeNodesAllocated();
        const nn::SweepResult graph_free = nn::LstmSweep(cell, x);
        ExpectBitwiseEqual(graph_free.Stacked().value(), reference);
        EXPECT_EQ(ag::TapeNodesAllocated(), before);
        ExpectTapedStepsMatchGraphFree(taped, graph_free);
      }
    }
    ExpectSweepBackwardMatchesPerStep(
        cell, s,
        [](const nn::LstmCell& c, const ag::Variable& xs,
           const nn::SweepOptions& o) { return nn::LstmSweep(c, xs, o); },
        /*packed_state=*/true, 23);
  }
}

// The gate kernels' captured activations (what the step backward reads)
// and their next state against the composed ops they fuse, byte for byte,
// with and without capture, under each dispatch. H = 9, 17 and 64 run the
// 8-lane body and, but for 64, a scalar tail in one row.
TEST(RecurrenceTest, GateCapturesMatchComposedActivations) {
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (const int64_t hs : {1, 8, 9, 17, 64}) {
    for (const bool scalar : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "H=" << hs << (scalar ? " scalar" : " simd"));
      simd::ForceScalar(scalar);
      Rng rng(static_cast<uint64_t>(50 + hs));
      const int64_t batch = 3;
      const Tensor h = Tensor::Normal({batch, hs}, 0.0f, 1.0f, &rng);
      const Tensor ones = Tensor::Ones({batch, hs});
      const auto gate = [hs](const Tensor& t, int64_t q) {
        return Slice(t, 1, q * hs, hs);
      };
      {
        const Tensor xw = Tensor::Normal({batch, 3 * hs}, 0.0f, 2.0f, &rng);
        const Tensor hu = Tensor::Normal({batch, 3 * hs}, 0.0f, 2.0f, &rng);
        Tensor r, z, n;
        const Tensor h_new = GruGates(xw, hu, h, &r, &z, &n);
        const Tensor want_r = Sigmoid(Add(gate(xw, 0), gate(hu, 0)));
        const Tensor want_z = Sigmoid(Add(gate(xw, 1), gate(hu, 1)));
        const Tensor want_n = Tanh(Add(gate(xw, 2), Mul(want_r, gate(hu, 2))));
        EXPECT_TRUE(same(r, want_r)) << "r";
        EXPECT_TRUE(same(z, want_z)) << "z";
        EXPECT_TRUE(same(n, want_n)) << "n";
        const Tensor want_h =
            Add(Mul(Sub(ones, want_z), want_n), Mul(want_z, h));
        EXPECT_TRUE(same(h_new, want_h)) << "GRU h";
        EXPECT_TRUE(same(GruGates(xw, hu, h, nullptr, nullptr, nullptr),
                         want_h))
            << "GRU h without capture";
      }
      {
        const Tensor xw = Tensor::Normal({batch, 4 * hs}, 0.0f, 2.0f, &rng);
        const Tensor hu = Tensor::Normal({batch, 4 * hs}, 0.0f, 2.0f, &rng);
        const Tensor bias = Tensor::Normal({4 * hs}, 0.0f, 1.0f, &rng);
        Tensor i, f, g, o, tc;
        const Tensor packed = LstmGates(xw, hu, bias, h, &i, &f, &g, &o, &tc);
        const Tensor pre = Add(Add(xw, hu), bias);
        const Tensor want_i = Sigmoid(gate(pre, 0));
        const Tensor want_f = Sigmoid(gate(pre, 1));
        const Tensor want_g = Tanh(gate(pre, 2));
        const Tensor want_o = Sigmoid(gate(pre, 3));
        const Tensor want_c = Add(Mul(want_f, h), Mul(want_i, want_g));
        const Tensor want_tc = Tanh(want_c);
        EXPECT_TRUE(same(i, want_i)) << "i";
        EXPECT_TRUE(same(f, want_f)) << "f";
        EXPECT_TRUE(same(g, want_g)) << "g";
        EXPECT_TRUE(same(o, want_o)) << "o";
        EXPECT_TRUE(same(tc, want_tc)) << "tanh(c)";
        const Tensor want_packed =
            StackRows({Mul(want_o, want_tc), want_c});
        EXPECT_TRUE(same(packed, want_packed)) << "LSTM h, c";
        EXPECT_TRUE(same(LstmGates(xw, hu, bias, h, nullptr, nullptr, nullptr,
                                   nullptr, nullptr),
                         want_packed))
            << "LSTM h, c without capture";
      }
    }
  }
  simd::ForceScalar(false);
}

TEST(RecurrenceTest, ReversedSweepMatchesReverseTimeComposition) {
  // A reversed sweep must equal the old ReverseTime -> forward recurrence ->
  // ReverseTime sandwich, without either copy.
  Rng rng(31);
  nn::GruCell cell(3, 5, &rng);
  Rng data_rng(32);
  ag::Variable x =
      ag::Constant(Tensor::Normal({4, 9, 3}, 0.0f, 1.0f, &data_rng));
  const Tensor reference =
      RefReverseTime(RefGruForward(cell, RefReverseTime(x))).value().Clone();
  nn::SweepOptions reversed;
  reversed.reversed = true;
  nn::SweepResult sweep = nn::GruSweep(cell, x, reversed);
  ExpectBitwiseEqual(sweep.Stacked().value(), reference);
  // last() is the state computed last: chronological index 0 when reversed.
  ExpectBitwiseEqual(sweep.last().value(), sweep.steps.front().value());
  // ReverseTime itself is now one ReverseAxis node with the same values.
  ExpectBitwiseEqual(baselines::ReverseTime(x).value(),
                     RefReverseTime(x).value());
}

// -- Ragged (valid-prefix) sweeps --------------------------------------------
//
// SweepOptions::lengths freezes row b at steps t >= lengths[b]. The contract
// is bitwise: each kept prefix must equal a solo sweep of that row alone at
// its true length, frozen steps must copy the last computed state (forward)
// or hold the initial state (reversed), and uniform lengths must collapse to
// the dense fixed-T path with zero extra tape nodes.

Tensor RowPrefix(const Tensor& x, int64_t row, int64_t len) {
  const int64_t steps = x.shape(1);
  const int64_t input = x.shape(2);
  Tensor out = Tensor::Zeros({1, len, input});
  const float* src = x.data() + row * steps * input;
  std::copy(src, src + len * input, out.data());
  return out;
}

void ExpectRowBitwiseEqual(const Tensor& full, int64_t row,
                           const Tensor& solo) {
  const int64_t width = full.shape(1);
  ASSERT_EQ(solo.size(), width);
  const float* pa = full.data() + row * width;
  const float* pb = solo.data();
  for (int64_t i = 0; i < width; ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "column " << i;
  }
}

TEST(RecurrenceTest, RaggedSweepRowsBitwiseMatchSoloRuns) {
  const int64_t batch = 5, steps = 9, input = 3;
  const std::vector<int64_t> lengths = {9, 3, 7, 1, 9};
  Rng rng(101);
  nn::GruCell gru_cell(input, 6, &rng);
  nn::LstmCell lstm_cell(input, 6, &rng);
  Rng data_rng(102);
  ag::Variable x = ag::Constant(
      Tensor::Normal({batch, steps, input}, 0.0f, 1.0f, &data_rng));
  nn::SweepOptions ragged;
  ragged.lengths = &lengths;
  for (const bool use_lstm : {false, true}) {
    SCOPED_TRACE(use_lstm ? "lstm" : "gru");
    const nn::SweepResult sweep =
        use_lstm ? nn::LstmSweep(lstm_cell, x, ragged)
                 : nn::GruSweep(gru_cell, x, ragged);
    ASSERT_EQ(sweep.steps.size(), static_cast<size_t>(steps));
    for (int64_t b = 0; b < batch; ++b) {
      SCOPED_TRACE(::testing::Message() << "row " << b);
      ag::Variable solo_x =
          ag::Constant(RowPrefix(x.value(), b, lengths[b]));
      const nn::SweepResult solo = use_lstm
                                       ? nn::LstmSweep(lstm_cell, solo_x)
                                       : nn::GruSweep(gru_cell, solo_x);
      // The kept prefix runs the normal cell step: bitwise equal to the
      // solo run at every chronological step.
      for (int64_t t = 0; t < lengths[b]; ++t) {
        ExpectRowBitwiseEqual(sweep.steps[t].value(), b,
                              solo.steps[t].value());
      }
      // Frozen steps copy the state computed at the row's final valid step,
      // so the batch-final state is the solo run's final state.
      for (int64_t t = lengths[b]; t < steps; ++t) {
        ExpectRowBitwiseEqual(sweep.steps[t].value(), b,
                              solo.last().value());
      }
      ExpectRowBitwiseEqual(sweep.last().value(), b, solo.last().value());
    }
  }
}

TEST(RecurrenceTest, RaggedReversedSweepMatchesSoloReversedRuns) {
  const int64_t batch = 4, steps = 8, input = 3, hidden = 5;
  const std::vector<int64_t> lengths = {8, 2, 5, 1};
  Rng rng(111);
  nn::GruCell cell(input, hidden, &rng);
  Rng data_rng(112);
  ag::Variable x = ag::Constant(
      Tensor::Normal({batch, steps, input}, 0.0f, 1.0f, &data_rng));
  nn::SweepOptions ragged_reversed;
  ragged_reversed.reversed = true;
  ragged_reversed.lengths = &lengths;
  const nn::SweepResult sweep = nn::GruSweep(cell, x, ragged_reversed);
  const Tensor zero_state = Tensor::Zeros({1, hidden});
  for (int64_t b = 0; b < batch; ++b) {
    SCOPED_TRACE(::testing::Message() << "row " << b);
    ag::Variable solo_x = ag::Constant(RowPrefix(x.value(), b, lengths[b]));
    nn::SweepOptions solo_reversed;
    solo_reversed.reversed = true;
    const nn::SweepResult solo = nn::GruSweep(cell, solo_x, solo_reversed);
    // A reversed sweep walks t = T-1 .. 0; rows past their length hold the
    // initial state until the sweep enters their valid prefix.
    for (int64_t t = lengths[b]; t < steps; ++t) {
      ExpectRowBitwiseEqual(sweep.steps[t].value(), b, zero_state);
    }
    for (int64_t t = 0; t < lengths[b]; ++t) {
      ExpectRowBitwiseEqual(sweep.steps[t].value(), b,
                            solo.steps[t].value());
    }
    ExpectRowBitwiseEqual(sweep.last().value(), b, solo.last().value());
  }
}

TEST(RecurrenceTest, UniformLengthsTakeTheDenseFixedPathBitwise) {
  Rng rng(121);
  nn::GruCell cell(3, 6, &rng);
  Rng data_rng(122);
  ag::Variable x =
      ag::Constant(Tensor::Normal({4, 7, 3}, 0.0f, 1.0f, &data_rng));
  const std::vector<int64_t> uniform(4, 7);
  nn::SweepOptions ragged;
  ragged.lengths = &uniform;

  const Tensor dense = nn::GruSweep(cell, x).Stacked().value().Clone();
  ExpectBitwiseEqual(nn::GruSweep(cell, x, ragged).Stacked().value(), dense);

  // Uniform lengths must not cost a single extra tape node over the dense
  // sweep (the FreezeRows copies are skipped entirely).
  int64_t before = ag::TapeNodesAllocated();
  { ag::Variable keep = nn::GruSweep(cell, x).Stacked(); }
  const int64_t dense_nodes = ag::TapeNodesAllocated() - before;
  before = ag::TapeNodesAllocated();
  { ag::Variable keep = nn::GruSweep(cell, x, ragged).Stacked(); }
  const int64_t uniform_nodes = ag::TapeNodesAllocated() - before;
  EXPECT_EQ(uniform_nodes, dense_nodes);
}

TEST(RecurrenceTest, RaggedSweepGradCheck) {
  Rng rng(131);
  nn::GruCell cell(2, 3, &rng);
  Rng data_rng(132);
  ag::Variable x =
      ag::Constant(Tensor::Normal({3, 4, 2}, 0.0f, 1.0f, &data_rng));
  const std::vector<int64_t> lengths = {4, 2, 3};
  nn::SweepOptions ragged;
  ragged.lengths = &lengths;
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 24;
  EXPECT_TRUE(ag::CheckGradients(
      [&] {
        return ag::SumAll(ag::Square(nn::GruSweep(cell, x, ragged).Stacked()));
      },
      cell.Parameters(), options, &error))
      << error;
}

// -- Gradients through the fused path ----------------------------------------

TEST(RecurrenceTest, ReversedSweepGradCheck) {
  Rng rng(41);
  nn::GruCell cell(2, 3, &rng);
  Rng data_rng(42);
  ag::Variable x =
      ag::Constant(Tensor::Normal({2, 4, 2}, 0.0f, 1.0f, &data_rng));
  nn::SweepOptions reversed;
  reversed.reversed = true;
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 24;
  EXPECT_TRUE(ag::CheckGradients(
      [&] {
        return ag::SumAll(
            ag::Square(nn::GruSweep(cell, x, reversed).Stacked()));
      },
      cell.Parameters(), options, &error))
      << error;
}

TEST(RecurrenceTest, GenericSweepWithPerStepStateEditGradCheck) {
  // The GRU-D pattern: a generic sweep whose step decays the carried state
  // before the fused cell step, with the decay factors read through
  // RowsView from a hoisted time-major block.
  Rng rng(51);
  nn::GruCell cell(2, 3, &rng);
  Rng data_rng(52);
  const int64_t batch = 2, steps = 4;
  ag::Variable x = ag::Constant(
      Tensor::Normal({batch, steps, 2}, 0.0f, 1.0f, &data_rng));
  ag::Variable decay(
      Tensor::Normal({batch, steps, 3}, 0.0f, 0.5f, &data_rng),
      /*requires_grad=*/true);
  std::vector<ag::Variable> checked = cell.Parameters();
  checked.push_back(decay);
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 24;
  EXPECT_TRUE(ag::CheckGradients(
      [&] {
        ag::Variable xw = cell.PrecomputeInput(
            ag::Reshape(ag::Transpose01(x), {steps * batch, 2}));
        ag::Variable gamma = ag::Sigmoid(ag::Reshape(
            ag::Transpose01(decay), {steps * batch, 3}));
        ag::Variable h0 = ag::Constant(Tensor::Zeros({batch, 3}));
        const Tensor w_hh_t = cell.RecurrentWeightT();
        nn::SweepResult sweep = nn::Sweep(
            steps, h0,
            [&](int64_t t, const ag::Variable& h) {
              ag::Variable decayed = ag::Mul(
                  ag::RowsView(gamma, t * batch, batch), h);
              return cell.Step(ag::RowsView(xw, t * batch, batch), decayed,
                               w_hh_t);
            });
        return ag::SumAll(ag::Square(sweep.Stacked()));
      },
      checked, options, &error))
      << error;
}

TEST(RecurrenceTest, ViewAndPermutationOpsGradCheck) {
  Rng rng(61);
  ag::Variable a(Tensor::Normal({4, 3, 2}, 0.0f, 1.0f, &rng),
                 /*requires_grad=*/true);
  ag::Variable b(Tensor::Normal({2, 5}, 0.0f, 1.0f, &rng),
                 /*requires_grad=*/true);
  std::string error;
  struct Case {
    const char* name;
    std::function<ag::Variable()> f;
  };
  const Case cases[] = {
      {"Transpose01",
       [&] { return ag::SumAll(ag::Square(ag::Transpose01(a))); }},
      {"ReverseAxis",
       [&] { return ag::SumAll(ag::Square(ag::ReverseAxis(a, 1))); }},
      {"RowsView",
       // Two overlapping-free views so the range accumulation covers
       // disjoint blocks plus an untouched remainder.
       [&] {
         return ag::Add(
             ag::SumAll(ag::Square(ag::RowsView(a, 0, 2))),
             ag::SumAll(ag::Square(ag::RowsView(a, 3, 1))));
       }},
      {"StepView",
       [&] {
         return ag::Add(ag::SumAll(ag::Square(ag::StepView(a, 1))),
                        ag::SumAll(ag::Square(ag::StepView(a, 1))));
       }},
      {"Stack0", [&] {
         return ag::SumAll(
             ag::Square(ag::Stack0({b, ag::MulScalar(b, 2.0f), b})));
       }}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(ag::CheckGradients(c.f, {a, b}, {}, &error)) << error;
  }
}

// -- Whole-registry invariance ------------------------------------------------

std::vector<data::PreparedSample> RandomSamples(int64_t n, int64_t steps,
                                                int64_t features,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<data::PreparedSample> prepared;
  prepared.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    data::PreparedSample p;
    p.x = Tensor::Normal({steps, features}, 0.0f, 1.0f, &rng);
    p.mask = Tensor({steps, features});
    for (int64_t j = 0; j < p.mask.size(); ++j) {
      p.mask[j] = rng.Bernoulli(0.6) ? 1.0f : 0.0f;
    }
    p.delta = Tensor({steps, features});
    for (int64_t j = 0; j < p.delta.size(); ++j) {
      p.delta[j] = static_cast<float>(rng.Uniform() * 3.0);
    }
    p.mortality_label = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    p.los_gt7_label = p.mortality_label;
    prepared.push_back(std::move(p));
  }
  return prepared;
}

std::vector<std::string> AllRegistryNames() {
  std::vector<std::string> names = baselines::AllModelNames();
  names.push_back("ELDA-Net-Fbi*");
  names.push_back("ELDA-Net-Ffm*");
  return names;
}

TEST(RecurrenceTest, RegistryForwardBitwiseAcrossThreadsAndGradModes) {
  const int64_t features = 5;
  const auto prepared = RandomSamples(8, 6, features, 71);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 8; ++i) indices.push_back(i);
  const data::Batch batch =
      data::MakeBatch(prepared, indices, data::Task::kMortality);

  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, features, /*seed=*/7);
    const Tensor reference = model->Forward(batch, nullptr).value().Clone();
    for (int64_t threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      par::ScopedNumThreads scoped(threads);
      ExpectBitwiseEqual(model->Forward(batch, nullptr).value(), reference);
      ag::NoGradScope no_grad;
      ExpectBitwiseEqual(model->Forward(batch, nullptr).value(), reference);
    }
  }
}

TEST(RecurrenceTest, TrainingIsBitwiseIdenticalAcrossThreadCounts) {
  // Two short training runs from the same seed must produce byte-identical
  // parameters at different thread counts: backward through the fused steps
  // is as deterministic as forward.
  const auto prepared = RandomSamples(48, 6, 4, 81);
  data::SplitIndices split;
  for (int64_t i = 0; i < 40; ++i) split.train.push_back(i);
  for (int64_t i = 40; i < 44; ++i) split.val.push_back(i);
  for (int64_t i = 44; i < 48; ++i) split.test.push_back(i);
  train::TrainerConfig config;
  config.max_epochs = 2;
  config.batch_size = 16;
  config.learning_rate = 0.01f;

  std::string params_1thread;
  {
    par::ScopedNumThreads scoped(1);
    auto model = baselines::MakeModel("GRU", 4, /*seed=*/3);
    train::Trainer(config).Train(model.get(), prepared, split,
                                 data::Task::kMortality);
    params_1thread = nn::EncodeParameters(*model);
  }
  {
    par::ScopedNumThreads scoped(4);
    auto model = baselines::MakeModel("GRU", 4, /*seed=*/3);
    train::Trainer(config).Train(model.get(), prepared, split,
                                 data::Task::kMortality);
    EXPECT_EQ(nn::EncodeParameters(*model), params_1thread);
  }
}

// -- Tape budgets --------------------------------------------------------------

TEST(RecurrenceTest, SweepTapeIsAtLeastHalvedVersusPerStepComposition) {
  Rng rng(91);
  nn::GruCell gru_cell(5, 8, &rng);
  nn::LstmCell lstm_cell(5, 8, &rng);
  Rng data_rng(92);
  ag::Variable x =
      ag::Constant(Tensor::Normal({4, 12, 5}, 0.0f, 1.0f, &data_rng));

  int64_t before = ag::TapeNodesAllocated();
  { ag::Variable keep = RefGruForward(gru_cell, x); }
  const int64_t gru_reference = ag::TapeNodesAllocated() - before;

  before = ag::TapeNodesAllocated();
  { ag::Variable keep = nn::GruSweep(gru_cell, x).Stacked(); }
  const int64_t gru_sweep = ag::TapeNodesAllocated() - before;

  before = ag::TapeNodesAllocated();
  { ag::Variable keep = RefLstmForward(lstm_cell, x); }
  const int64_t lstm_reference = ag::TapeNodesAllocated() - before;

  before = ag::TapeNodesAllocated();
  { ag::Variable keep = nn::LstmSweep(lstm_cell, x).Stacked(); }
  const int64_t lstm_sweep = ag::TapeNodesAllocated() - before;

  // The acceptance bar is a 2x reduction; the fused steps actually land far
  // below half (2 nodes per GRU step against ~22).
  EXPECT_LE(gru_sweep * 2, gru_reference)
      << "sweep " << gru_sweep << " vs reference " << gru_reference;
  EXPECT_LE(lstm_sweep * 2, lstm_reference)
      << "sweep " << lstm_sweep << " vs reference " << lstm_reference;
}

TEST(RecurrenceTest, PerModelTapeBudgetsHold) {
  // Pinned ceilings on tape nodes per taped forward (B=8, T=6, C=5). These
  // are regression tripwires: a change that quietly reintroduces per-step
  // graph building blows the budget immediately. Measured values sit
  // 10-25% below each pin; the feature-module models' pins sit below what
  // the composed Eq. 5-6 chain (13 more nodes than the fused tile) costs.
  // The ELDA-Net pins are tighter: each sits below what the composed Eq. 2
  // embedding chain costs (5 more nodes for -Fbi and ELDA-Net, 7 for -Fbi*,
  // 2 for -Ffm*). -Ffm's chain was a single Mul and -T has no embedding, so
  // those two pins sit just above their measured counts.
  const struct {
    const char* name;
    int64_t budget;
  } kBudgets[] = {
      {"LR", 4},             {"FM", 17},
      {"AFM", 29},           {"SAnD", 110},
      {"GRU", 22},           {"RETAIN", 65},
      {"Dipole-l", 62},      {"Dipole-g", 64},
      {"Dipole-c", 68},      {"StageNet", 55},
      {"GRU-D", 60},         {"ConCare", 115},
      {"ELDA-Net-T", 31},    {"ELDA-Net-Fbi", 24},
      {"ELDA-Net-Ffm", 23},  {"ELDA-Net", 36},
      {"ELDA-Net-Fbi*", 24}, {"ELDA-Net-Ffm*", 22},
  };
  const int64_t features = 5;
  const auto prepared = RandomSamples(8, 6, features, 93);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 8; ++i) indices.push_back(i);
  const data::Batch batch =
      data::MakeBatch(prepared, indices, data::Task::kMortality);
  std::vector<std::string> covered;
  for (const auto& entry : kBudgets) {
    SCOPED_TRACE(entry.name);
    auto model = baselines::MakeModel(entry.name, features, /*seed=*/7);
    const int64_t before = ag::TapeNodesAllocated();
    { ag::Variable keep = model->Forward(batch, nullptr); }
    const int64_t used = ag::TapeNodesAllocated() - before;
    std::printf("[tape] %-14s %4lld nodes (budget %lld)\n", entry.name,
                static_cast<long long>(used),
                static_cast<long long>(entry.budget));
    EXPECT_LE(used, entry.budget) << "tape nodes per forward: " << used;
    EXPECT_GT(used, 0);
    covered.push_back(entry.name);
  }
  // Every registry model carries a pinned budget.
  for (const std::string& name : AllRegistryNames()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), name), covered.end())
        << "no tape budget pinned for " << name;
  }
}

}  // namespace
}  // namespace elda
