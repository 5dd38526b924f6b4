// Microbenchmarks of the substrate kernels and ELDA-Net's modules
// (google-benchmark). Includes the DESIGN.md ablation: the factored
// feature-interaction computation vs a naive O(C^2 E) pairwise loop.
//
// Besides the console table, every run writes a machine-readable
// BENCH_micro.json (override the path with --json_out=PATH) with one record
// per benchmark: op, args, threads, ns/iter, and items/s where the
// benchmark reports throughput. Run with ELDA_PROF=1 to get the op-level
// profile (per-op time, allocation, pool hit rate) appended after the
// table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/elda_net.h"
#include "core/embedding.h"
#include "core/feature_interaction.h"
#include "mem/pool.h"
#include "mem/prof.h"
#include "nn/gru.h"
#include "nn/recurrent_sweep.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Normal(std::move(shape), 0.0f, 1.0f, &rng);
}

// Every buffer acquire the pool has served, pooled or not.
int64_t PoolAcquires() {
  const mem::PoolStats stats = mem::Pool::Global().Stats();
  return stats.acquires + stats.small_acquires + stats.huge_acquires;
}

// The kernel benchmarks take the thread count as their last argument so a
// single run shows the elda::par scaling curve (1 = the serial fallback).

// Busy work for the dispatch benchmark: a dependent integer chain the
// compiler cannot fold or vectorise.
uint64_t BusyWork(int64_t iters, uint64_t x) {
  for (int64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

// BusyWork iterations per microsecond on this machine, measured once.
int64_t BusyItersPerMicro() {
  static const int64_t value = [] {
    constexpr int64_t kIters = int64_t{1} << 22;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(BusyWork(kIters, 1));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return std::max<int64_t>(1, static_cast<int64_t>(kIters / us));
  }();
  return value;
}

// Pool dispatch cost: a 4-chunk ParallelFor at 4 threads with ~arg0 us of
// work per chunk (0 = empty chunks, pure dispatch). `speedup_vs_inline`
// divides the time of the same four chunks run back to back on the caller
// by the dispatched time: above 1 means the pool pays for itself.
void BM_ParallelForDispatch(benchmark::State& state) {
  constexpr int64_t kChunks = 4;
  const int64_t iters = state.range(0) * BusyItersPerMicro();
  par::ScopedNumThreads scoped(kChunks);
  std::array<uint64_t, kChunks> sink{};
  const std::function<void(int64_t, int64_t)> chunks = [&](int64_t lo,
                                                           int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      sink[c] = BusyWork(iters, sink[c] + static_cast<uint64_t>(c));
    }
  };
  using Clock = std::chrono::steady_clock;
  constexpr int kInlineReps = 256;
  const auto inline_start = Clock::now();
  for (int rep = 0; rep < kInlineReps; ++rep) chunks(0, kChunks);
  const double inline_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - inline_start)
          .count() /
      kInlineReps;
  const auto start = Clock::now();
  for (auto _ : state) par::ParallelFor(0, kChunks, 1, chunks);
  const double dispatch_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      static_cast<double>(std::max<benchmark::IterationCount>(
          1, state.iterations()));
  benchmark::DoNotOptimize(sink);
  state.counters["inline_ns"] = inline_ns;
  state.counters["speedup_vs_inline"] = inline_ns / dispatch_ns;
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->Arg(2)->Arg(8)->UseRealTime();

void BM_MatMulSquare(benchmark::State& state) {
  const int64_t n = state.range(0);
  par::ScopedNumThreads scoped(state.range(1));
  Tensor a = RandomTensor({n, n}, 1);
  Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulSquare)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 8});

// All four transpose combinations at one packed-kernel shape: the NT/TT
// pack-time gathers and the TN packing of A have different memory access
// patterns, so they are tracked separately.
void BM_MatMulTranspose(benchmark::State& state) {
  const int64_t n = 256;
  const bool trans_a = state.range(0) != 0;
  const bool trans_b = state.range(1) != 0;
  par::ScopedNumThreads scoped(state.range(2));
  Tensor a = RandomTensor({n, n}, 20);
  Tensor b = RandomTensor({n, n}, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b, trans_a, trans_b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulTranspose)
    ->Args({0, 0, 1})
    ->Args({0, 1, 1})
    ->Args({1, 0, 1})
    ->Args({1, 1, 1});

// The feature-interaction tile backward's dp product at B=64, T=48, C=37:
// [113664, 4]ᵀ x [113664, 48], a four-row TN product over a 21.8 MB slab.
void BM_MatMulSkinnyTN(benchmark::State& state) {
  const int64_t k = 64 * 48 * 37;
  par::ScopedNumThreads scoped(state.range(0));
  Tensor a = RandomTensor({k, 4}, 22);
  Tensor b = RandomTensor({k, 48}, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b, /*trans_a=*/true));
  }
  state.SetItemsProcessed(state.iterations() * k * 4 * 48);
}
BENCHMARK(BM_MatMulSkinnyTN)->Arg(1)->Arg(4);

// MatMul at the shapes that carry most of the models' MatMul calls, on both
// sides of the packed/Product dispatch boundary. arg0 picks the shape, arg1
// is the thread count; a /4 row slower than its /1 row fails
// bench/check_regression.py.
struct SmallProduct {
  const char* label;
  std::vector<int64_t> a_shape, b_shape;
  bool trans_a, trans_b;
};
const SmallProduct kSmallProducts[] = {
    // 0: a ward step's GRU gates, B=5.
    {"ward step [5,64]x[64,192]", {5, 64}, {64, 192}, false, false},
    // 1: a per-step readout GEMV over B·T = 3072 states.
    {"readout [3072,64]x[64,1]", {3072, 64}, {64, 1}, false, false},
    // 2: Eq. 9's time-attention logits, w_beta shared across the batch.
    {"Eq. 9 logits 256x[47,64]x[64,1]", {256, 47, 64}, {64, 1}, false, false},
    // 3: Eq. 11's backward d(beta) = dg_T s^T, NT with m = 1.
    {"Eq. 11 dbeta 64x[1,64]x[47,64]^T", {64, 1, 64}, {64, 47, 64}, false,
     true},
    // 4: Eq. 9's backward ds = dlogits w_beta^T, NT with k = 1.
    {"Eq. 9 ds 64x[47,1]x[64,1]^T", {64, 47, 1}, {64, 1}, false, true},
    // 5: a training GRU step's recurrent product h W_hh, B=64, H=64.
    {"GRU step [64,64]x[64,192]", {64, 64}, {64, 192}, false, false},
    // 6: its backward dh = dhu W_hh^T as an NT product.
    {"GRU dh [64,192]x[64,192]^T", {64, 192}, {64, 192}, false, true},
    // 7: the same dh against the W_hh^T a sweep transposes once.
    {"GRU dh [64,192]x[192,64]", {64, 192}, {192, 64}, false, false},
    // 8: its backward dW_hh = h^T dhu.
    {"GRU dW [64,64]^Tx[64,192]", {64, 64}, {64, 192}, true, false},
    // 9: a B=256 scoring step's recurrent product.
    {"GRU step [256,64]x[64,192]", {256, 64}, {64, 192}, false, false},
    // 10: ELDA-Net's Eq. 8 GRU input projection for 9 streamed sessions.
    {"ELDA input [9,148]x[148,192]", {9, 148}, {148, 192}, false, false},
    // 11: the GRU's hoisted input projection over B·T = 3072 rows.
    {"GRU input [3072,37]x[37,192]", {3072, 37}, {37, 192}, false, false},
    // 12: the ELDA-Net GRU's input-projection dW over B·T = 3072 rows.
    {"ELDA dW_ih [3072,148]^Tx[3072,192]", {3072, 148}, {3072, 192}, true,
     false},
    // 13: the GRU's input-projection dW over B·T = 3072 rows: 37 rows
    // against a B past L2, packed at one thread, Product tasks at four.
    {"GRU dW_ih [3072,37]^Tx[3072,192]", {3072, 37}, {3072, 192}, true,
     false},
    // 14: the GRU input projection's dX = dgates W_ih over B·T = 3072 rows,
    // NT with n = 37: Product tasks at one thread (37 pads to 64 packed
    // columns but 48 Product lanes) and at four.
    {"GRU dX [3072,192]x[37,192]^T", {3072, 192}, {37, 192}, false, true},
};

void BM_MatMulSmall(benchmark::State& state) {
  const SmallProduct& shape = kSmallProducts[state.range(0)];
  par::ScopedNumThreads scoped(state.range(1));
  Tensor a = RandomTensor(shape.a_shape, 24);
  Tensor b = RandomTensor(shape.b_shape, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b, shape.trans_a, shape.trans_b));
  }
  state.SetLabel(shape.label);
}
BENCHMARK(BM_MatMulSmall)
    ->ArgsProduct(
        {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, {1, 4}});

void BM_MatMulBatchedSmall(benchmark::State& state) {
  // The feature-interaction workload shape: many tiny matmuls.
  par::ScopedNumThreads scoped(state.range(0));
  Tensor a = RandomTensor({3072, 37, 24}, 3);
  Tensor b = RandomTensor({3072, 24, 37}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 3072 * 37 * 24 * 37);
}
BENCHMARK(BM_MatMulBatchedSmall)->Arg(1)->Arg(2)->Arg(8);

void BM_SoftmaxLastAxis(benchmark::State& state) {
  par::ScopedNumThreads scoped(state.range(0));
  Tensor a = RandomTensor({3072, 37, 37}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a));
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_SoftmaxLastAxis)->Arg(1)->Arg(2)->Arg(8);

void BM_BroadcastMul(benchmark::State& state) {
  // The embedding-module broadcast: [B,T,C,1] * [C,E].
  Tensor a = RandomTensor({64, 48, 37, 1}, 6);
  Tensor b = RandomTensor({37, 24}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 48 * 37 * 24);
}
BENCHMARK(BM_BroadcastMul);

void BM_GruForward(benchmark::State& state) {
  Rng rng(8);
  nn::Gru gru(37, 64, &rng);
  ag::Variable x = ag::Constant(RandomTensor({64, 48, 37}, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.Forward(x));
  }
}
BENCHMARK(BM_GruForward);

// The recurrence-engine ablation: arg0 = batch size, arg1 = 1 for the
// time-major hoisted sweep (one [T*B,C] x [C,3H] input GEMM, fused gate
// kernel, zero-copy per-step views), 0 for the op-by-op per-step
// composition it replaced (T separate Slice/Reshape/GEMM/Sigmoid/... op
// chains — the pre-sweep nn::Gru::Forward). Both produce bitwise-identical
// [B,T,H] outputs (asserted in tests/recurrence_test.cc); the counter shows
// the tape-node reduction on top of the wall-clock win.
void BM_RecurrentSweep(benchmark::State& state) {
  const int64_t batch_size = state.range(0);
  const bool hoisted = state.range(1) != 0;
  const int64_t steps = 48, features = 37, hidden = 64;
  Rng rng(22);
  nn::Gru gru(features, hidden, &rng);
  const nn::GruCell& cell = gru.cell();
  ag::Variable x =
      ag::Constant(RandomTensor({batch_size, steps, features}, 23));
  int64_t tape_nodes = 0;
  for (auto _ : state) {
    const int64_t nodes_before = ag::TapeNodesAllocated();
    if (hoisted) {
      benchmark::DoNotOptimize(gru.Forward(x));
    } else {
      // Verbatim pre-sweep time loop: slice step t out of [B,T,C], build
      // the gates from individual tape ops, stack the states back up.
      ag::Variable h = ag::Constant(Tensor::Zeros({batch_size, hidden}));
      std::vector<ag::Variable> states;
      states.reserve(steps);
      for (int64_t t = 0; t < steps; ++t) {
        ag::Variable x_t =
            ag::Reshape(ag::Slice(x, 1, t, 1), {batch_size, features});
        ag::Variable xw = ag::Add(ag::MatMul(x_t, cell.w_ih()), cell.bias());
        ag::Variable hu = ag::MatMul(h, cell.w_hh());
        ag::Variable r = ag::Sigmoid(
            ag::Add(ag::Slice(xw, 1, 0, hidden), ag::Slice(hu, 1, 0, hidden)));
        ag::Variable z = ag::Sigmoid(ag::Add(ag::Slice(xw, 1, hidden, hidden),
                                             ag::Slice(hu, 1, hidden, hidden)));
        ag::Variable n = ag::Tanh(
            ag::Add(ag::Slice(xw, 1, 2 * hidden, hidden),
                    ag::Mul(r, ag::Slice(hu, 1, 2 * hidden, hidden))));
        ag::Variable one_minus_z =
            ag::Sub(ag::Constant(Tensor::Ones(z.value().shape())), z);
        h = ag::Add(ag::Mul(one_minus_z, n), ag::Mul(z, h));
        states.push_back(ag::Reshape(h, {batch_size, 1, hidden}));
      }
      benchmark::DoNotOptimize(ag::Concat(states, 1));
    }
    tape_nodes += ag::TapeNodesAllocated() - nodes_before;
  }
  state.counters["tape_nodes_per_iter"] = benchmark::Counter(
      static_cast<double>(tape_nodes) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * batch_size * steps);
}
BENCHMARK(BM_RecurrentSweep)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// The fused feature-interaction tile at ELDA-Net's embedding width (E = 24,
// d = 4, T = 48): arg0 = features C, arg1 = batch size, arg2 = mode — 0 a
// taped forward, 1 forward + backward (de included), 2 a no-grad forward.
// Counters report tape nodes and pooled buffer acquires per iteration.
void BM_FeatureInteractionFactored(benchmark::State& state) {
  const int64_t c = state.range(0);
  const int64_t batch_size = state.range(1);
  const int64_t mode = state.range(2);
  Rng rng(10);
  core::FeatureInteraction module(c, 24, 4, &rng);
  ag::Variable e(RandomTensor({batch_size, 48, c, 24}, 11),
                 /*requires_grad=*/mode == 1);
  int64_t tape_nodes = 0;
  int64_t acquires = 0;
  for (auto _ : state) {
    const int64_t nodes_before = ag::TapeNodesAllocated();
    const int64_t acquires_before = PoolAcquires();
    if (mode == 1) {
      module.ZeroGrad();
      e.ZeroGrad();
      ag::SumAll(module.Forward(e)).Backward();
    } else if (mode == 2) {
      ag::NoGradScope no_grad;
      benchmark::DoNotOptimize(module.Forward(e));
    } else {
      benchmark::DoNotOptimize(module.Forward(e));
    }
    tape_nodes += ag::TapeNodesAllocated() - nodes_before;
    acquires += PoolAcquires() - acquires_before;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tape_nodes_per_iter"] =
      benchmark::Counter(static_cast<double>(tape_nodes) / iters);
  state.counters["buffer_acquires_per_iter"] =
      benchmark::Counter(static_cast<double>(acquires) / iters);
}
BENCHMARK(BM_FeatureInteractionFactored)
    ->Args({12, 8, 0})
    ->Args({24, 8, 0})
    ->Args({37, 8, 0})
    ->Args({37, 64, 1})
    ->Args({37, 256, 2});

// The naive pairwise implementation of Eqs. 3-6 that materialises every
// r_ij, as a reference for the DESIGN.md factoring ablation (values-only,
// no autograd, which already favours the naive side).
void BM_FeatureInteractionNaive(benchmark::State& state) {
  const int64_t c = state.range(0);
  const int64_t e_dim = 24, d = 4, bt = 8 * 48;
  Tensor e = RandomTensor({bt, c, e_dim}, 12);
  Tensor w = RandomTensor({c, e_dim}, 13);
  Tensor p = RandomTensor({2 * e_dim, d}, 14);
  for (auto _ : state) {
    Tensor out({bt, c * d});
    std::vector<float> scores(c), context(e_dim), combined(2 * e_dim);
    for (int64_t s = 0; s < bt; ++s) {
      const float* es = e.data() + s * c * e_dim;
      for (int64_t i = 0; i < c; ++i) {
        float max_score = -1e30f;
        for (int64_t j = 0; j < c; ++j) {
          if (j == i) continue;
          float score = 0.0f;
          for (int64_t k = 0; k < e_dim; ++k) {
            score += w[i * e_dim + k] * es[i * e_dim + k] * es[j * e_dim + k];
          }
          scores[j] = score;
          max_score = std::max(max_score, score);
        }
        float z = 0.0f;
        for (int64_t j = 0; j < c; ++j) {
          if (j == i) continue;
          scores[j] = std::exp(scores[j] - max_score);
          z += scores[j];
        }
        std::fill(context.begin(), context.end(), 0.0f);
        for (int64_t j = 0; j < c; ++j) {
          if (j == i) continue;
          const float alpha = scores[j] / z;
          for (int64_t k = 0; k < e_dim; ++k) {
            context[k] += alpha * es[i * e_dim + k] * es[j * e_dim + k];
          }
        }
        for (int64_t k = 0; k < e_dim; ++k) {
          combined[k] = std::max(es[i * e_dim + k], 0.0f);
          combined[e_dim + k] = std::max(context[k], 0.0f);
        }
        for (int64_t dd = 0; dd < d; ++dd) {
          float f = 0.0f;
          for (int64_t k = 0; k < 2 * e_dim; ++k) {
            f += combined[k] * p[k * d + dd];
          }
          out[s * c * d + i * d + dd] = f;
        }
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FeatureInteractionNaive)->Arg(12)->Arg(24)->Arg(37);

// The fused Eq. 2 embedding (with V_m) at ELDA-Net's training shape,
// B=64, T=48, C=37, E=24: arg0 = 0 a taped forward, 1 forward + backward.
// The backward's loss sums one batch row, so a serial SumAll over all 2.7M
// outputs does not swamp the op; the op's backward still runs over the
// whole [B, T, C, E] gradient. The counter reports tape nodes per
// iteration.
void BM_BiDirectionalEmbedding(benchmark::State& state) {
  const bool backward = state.range(0) != 0;
  Rng rng(15);
  core::BiDirectionalEmbedding embedding(
      37, 24, core::EmbeddingVariant::kBiDirectional, -3, 3, true, &rng);
  ag::Variable x = ag::Constant(RandomTensor({64, 48, 37}, 16));
  Tensor mask = Tensor::Ones({64, 48, 37});
  for (int64_t c = 0; c < 37; c += 4) mask.at({c % 64, 0, c}) = 0.0f;
  for (int64_t c = 1; c < 37; c += 5) {
    for (int64_t b = 0; b < 64; ++b) {
      for (int64_t t = 0; t < 48; ++t) mask.at({b, t, c}) = 0.0f;
    }
  }
  int64_t tape_nodes = 0;
  for (auto _ : state) {
    const int64_t nodes_before = ag::TapeNodesAllocated();
    if (backward) {
      embedding.ZeroGrad();
      ag::SumAll(ag::Slice(embedding.Forward(x, mask), 0, 0, 1)).Backward();
    } else {
      benchmark::DoNotOptimize(embedding.Forward(x, mask));
    }
    tape_nodes += ag::TapeNodesAllocated() - nodes_before;
  }
  state.counters["tape_nodes_per_iter"] = benchmark::Counter(
      static_cast<double>(tape_nodes) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BiDirectionalEmbedding)->Arg(0)->Arg(1);

void BM_EldaNetForwardBackward(benchmark::State& state) {
  core::EldaNetConfig config = core::EldaNetConfig::Full();
  core::EldaNet net(config);
  Rng rng(17);
  data::Batch batch;
  batch.x = RandomTensor({64, 48, 37}, 18);
  batch.mask = Tensor::Ones({64, 48, 37});
  batch.delta = Tensor::Zeros({64, 48, 37});
  batch.y = Tensor({64});
  for (int64_t i = 0; i < 64; ++i) batch.y[i] = rng.Bernoulli(0.2);
  for (auto _ : state) {
    net.ZeroGrad();
    ag::BceWithLogits(net.Forward(batch), batch.y).Backward();
  }
}
BENCHMARK(BM_EldaNetForwardBackward);

// Forward-only inference latency, taped vs graph-free: arg0 = batch size,
// arg1 = 1 to run under ag::NoGradScope. Counters report autograd tape
// nodes and pooled buffer acquires per forward — the no-grad rows must show
// zero tape nodes and less allocation traffic at identical outputs.
void BM_EldaNetInference(benchmark::State& state) {
  const int64_t batch_size = state.range(0);
  const bool no_grad = state.range(1) != 0;
  core::EldaNetConfig config = core::EldaNetConfig::Full();
  core::EldaNet net(config);
  data::Batch batch;
  batch.x = RandomTensor({batch_size, 48, 37}, 19);
  batch.mask = Tensor::Ones({batch_size, 48, 37});
  batch.delta = Tensor::Zeros({batch_size, 48, 37});
  int64_t tape_nodes = 0;
  int64_t acquires = 0;
  for (auto _ : state) {
    const int64_t nodes_before = ag::TapeNodesAllocated();
    const int64_t acquires_before = PoolAcquires();
    if (no_grad) {
      ag::NoGradScope scope;
      benchmark::DoNotOptimize(net.Forward(batch));
    } else {
      benchmark::DoNotOptimize(net.Forward(batch));
    }
    tape_nodes += ag::TapeNodesAllocated() - nodes_before;
    acquires += PoolAcquires() - acquires_before;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tape_nodes_per_iter"] =
      benchmark::Counter(static_cast<double>(tape_nodes) / iters);
  state.counters["buffer_acquires_per_iter"] =
      benchmark::Counter(static_cast<double>(acquires) / iters);
}
BENCHMARK(BM_EldaNetInference)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// Per-step (decompensation) encodings of a B=64, T=48 batch under
// ag::NoGradScope. The mask is cohort-shaped: each row observes ~70% of
// its features at admission, first-observes ~20% at a random later step
// (a V_m flip) and never observes the rest. arg0 = 0 runs ELDA-Net's packed
// segment sweep, 1 the base-class prefix replay it is bitwise equal to.
void BM_EldaNetEncodeSteps(benchmark::State& state) {
  const int64_t B = 64, T = 48, C = 37;
  const bool replay = state.range(0) != 0;
  core::EldaNet net(core::EldaNetConfig::Full());
  Rng rng(20);
  data::Batch batch;
  batch.x = RandomTensor({B, T, C}, 21);
  batch.mask = Tensor::Zeros({B, T, C});
  batch.delta = Tensor::Zeros({B, T, C});
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t c = 0; c < C; ++c) {
      const double u = rng.Uniform();
      const int64_t first =
          u < 0.7 ? 0 : u < 0.9 ? 1 + rng.UniformInt(T - 1) : T;
      for (int64_t t = first; t < T; ++t) {
        batch.mask.at({b, t, c}) = t == first || rng.Bernoulli(0.3);
      }
    }
  }
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        replay ? net.train::SequenceModel::EncodeSteps(batch, &ctx)
               : net.EncodeSteps(batch, &ctx));
  }
}
BENCHMARK(BM_EldaNetEncodeSteps)->Arg(0)->Arg(1);

// Collects every finished run alongside the normal console output, then
// writes BENCH_micro.json. The name encodes op and args as
// "BM_Op/arg0/arg1/..."; args are re-parsed from it since the reporter only
// sees the formatted name.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Record {
    std::string name;
    std::string op;
    std::vector<int64_t> args;
    int64_t threads = 1;
    double ns_per_iter = 0.0;
    double items_per_second = -1.0;  // < 0: benchmark reports no throughput
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Record rec;
      rec.name = run.benchmark_name();
      const size_t slash = rec.name.find('/');
      rec.op = rec.name.substr(0, slash);
      if (slash != std::string::npos) {
        std::string rest = rec.name.substr(slash + 1);
        size_t pos = 0;
        while (pos < rest.size()) {
          const size_t next = rest.find('/', pos);
          const std::string tok = rest.substr(pos, next - pos);
          rec.args.push_back(std::strtoll(tok.c_str(), nullptr, 10));
          if (next == std::string::npos) break;
          pos = next + 1;
        }
      }
      rec.threads = ThreadsArg(rec.op, rec.args);
      rec.ns_per_iter = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rec.items_per_second = it->second;
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second") continue;
        rec.counters.emplace_back(counter_name,
                                  static_cast<double>(counter));
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    // Top-level keys (schema/threads/git_rev/benchmarks) are shared with
    // the table benchmark binaries' --json_out so result files aggregate
    // uniformly. The top-level `threads` is the pool default for the run;
    // per-record `threads` is the benchmark's own scaling argument.
    out << "{\n  \"schema\": \"elda-bench-micro-v2\",\n"
        << "  \"threads\": " << par::NumThreads() << ",\n"
        << "  \"git_rev\": \""
#ifdef ELDA_GIT_REV
        << ELDA_GIT_REV
#else
        << "unknown"
#endif
        << "\",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"name\": \"" << r.name << "\", \"op\": \"" << r.op
          << "\", \"args\": [";
      for (size_t j = 0; j < r.args.size(); ++j) {
        if (j) out << ", ";
        out << r.args[j];
      }
      out << "], \"threads\": " << r.threads
          << ", \"ns_per_iter\": " << r.ns_per_iter;
      if (r.items_per_second >= 0.0) {
        out << ", \"items_per_second\": " << r.items_per_second;
      }
      for (const auto& [counter_name, value] : r.counters) {
        // Aggregate rows of --benchmark_repetitions can carry NaN (e.g. the
        // cv of an all-zero counter), which JSON cannot spell.
        out << ", \"" << counter_name << "\": ";
        if (std::isfinite(value)) {
          out << value;
        } else {
          out << "null";
        }
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  // Which positional argument carries the elda::par thread count, per
  // benchmark family (1 for benches that run at the default).
  static int64_t ThreadsArg(const std::string& op,
                            const std::vector<int64_t>& args) {
    if (op == "BM_ParallelForDispatch") return 4;
    if (op == "BM_MatMulSquare" && args.size() >= 2) return args[1];
    if (op == "BM_MatMulTranspose" && args.size() >= 3) return args[2];
    if (op == "BM_MatMulSmall" && args.size() >= 2) return args[1];
    if ((op == "BM_MatMulBatchedSmall" || op == "BM_SoftmaxLastAxis" ||
         op == "BM_MatMulSkinnyTN") &&
        !args.empty()) {
      return args[0];
    }
    return 1;
  }

  std::vector<Record> records_;
};

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  // Pull out our own --json_out flag before google-benchmark sees the args.
  std::string json_path = "BENCH_micro.json";
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    constexpr const char kFlag[] = "--json_out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 2;  // a usage error, like every ArgParser binary
  }
  elda::JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (reporter.WriteJson(json_path)) {
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  elda::prof::ReportIfEnabled(std::cout);
  return 0;
}
