#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "core/elda.h"
#include "core/elda_net.h"
#include "core/embedding.h"
#include "core/feature_interaction.h"
#include "core/time_interaction.h"
#include "gtest/gtest.h"
#include "health/ckpt_io.h"
#include "optim/optimizer.h"
#include "par/par.h"
#include "synth/simulator.h"
#include "train/task_head.h"
#include "tensor/simd_math.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {
namespace {

ag::Variable RandomInput(std::vector<int64_t> shape, uint64_t seed,
                         float scale = 1.0f) {
  Rng rng(seed);
  return ag::Constant(Tensor::Normal(std::move(shape), 0.0f, scale, &rng));
}

Tensor FullMask(std::vector<int64_t> shape) { return Tensor::Ones(shape); }

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// ---- Bi-directional embedding -------------------------------------------------

TEST(EmbeddingTest, OutputShape) {
  Rng rng(1);
  BiDirectionalEmbedding embedding(5, 8, EmbeddingVariant::kBiDirectional,
                                   -3.0f, 3.0f, true, &rng);
  ag::Variable x = RandomInput({2, 4, 5}, 2);
  Tensor e = embedding.Forward(x, FullMask({2, 4, 5})).value();
  EXPECT_EQ(e.shape(), (std::vector<int64_t>{2, 4, 5, 8}));
}

TEST(EmbeddingTest, AnchorsRecoverAnchorVectors) {
  // At x' = a the embedding equals V_b... no: per Eq. 2, at x' = a the
  // (x'-a) term vanishes, so e = V_b * (b-a)/(b-a) = V_b; at x' = b, e = V_a.
  Rng rng(3);
  BiDirectionalEmbedding embedding(2, 4, EmbeddingVariant::kBiDirectional,
                                   -3.0f, 3.0f, false, &rng);
  auto params = embedding.NamedParameters();
  ASSERT_EQ(params[0].first, "v_lower");
  ASSERT_EQ(params[1].first, "v_upper");
  const Tensor va = params[0].second.value();
  const Tensor vb = params[1].second.value();
  ag::Variable x_at_a = ag::Constant(Tensor::Full({1, 1, 2}, -3.0f));
  Tensor e_a = embedding.Forward(x_at_a, FullMask({1, 1, 2})).value();
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_NEAR((e_a.at({0, 0, c, k})), (vb.at({c, k})), 1e-5f);
    }
  }
  ag::Variable x_at_b = ag::Constant(Tensor::Full({1, 1, 2}, 3.0f));
  Tensor e_b = embedding.Forward(x_at_b, FullMask({1, 1, 2})).value();
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_NEAR((e_b.at({0, 0, c, k})), (va.at({c, k})), 1e-5f);
    }
  }
}

TEST(EmbeddingTest, ZeroValueIsNotZeroVector) {
  // The core advantage over FM embedding: a standardised-normal (0) value
  // still maps to an informative, midpoint embedding.
  Rng rng(4);
  BiDirectionalEmbedding bi(3, 6, EmbeddingVariant::kBiDirectional, -3.0f,
                            3.0f, false, &rng);
  Rng rng2(4);
  BiDirectionalEmbedding fm(3, 6, EmbeddingVariant::kFmLinear, -3.0f, 3.0f,
                            false, &rng2);
  ag::Variable zero = ag::Constant(Tensor::Zeros({1, 1, 3}));
  Tensor e_bi = bi.Forward(zero, FullMask({1, 1, 3})).value();
  Tensor e_fm = fm.Forward(zero, FullMask({1, 1, 3})).value();
  float norm_bi = 0.0f, norm_fm = 0.0f;
  for (int64_t i = 0; i < e_bi.size(); ++i) norm_bi += e_bi[i] * e_bi[i];
  for (int64_t i = 0; i < e_fm.size(); ++i) norm_fm += e_fm[i] * e_fm[i];
  EXPECT_NEAR(norm_fm, 0.0f, 1e-10f);  // FM collapses zeros
  EXPECT_GT(norm_bi, 0.01f);           // bi-directional does not
}

TEST(EmbeddingTest, BiEmbeddingScaleIsBoundedInValue) {
  // FM embedding norm grows linearly in |x'|; the bi-directional norm stays
  // on the order of the anchor vectors across the [a, b] range.
  Rng rng(5);
  BiDirectionalEmbedding bi(1, 8, EmbeddingVariant::kBiDirectional, -3.0f,
                            3.0f, false, &rng);
  auto norm_at = [&](float value) {
    ag::Variable x = ag::Constant(Tensor::Full({1, 1, 1}, value));
    Tensor e = bi.Forward(x, FullMask({1, 1, 1})).value();
    float n = 0.0f;
    for (int64_t i = 0; i < e.size(); ++i) n += e[i] * e[i];
    return std::sqrt(n);
  };
  const float n0 = norm_at(0.0f);
  const float n3 = norm_at(3.0f);
  const float n6 = norm_at(6.0f);
  // Unlike the FM embedding (norm 0 at x' = 0, unbounded linear growth with
  // a zero intercept), the bi-directional embedding keeps a non-trivial
  // vector at zero and only grows linearly through the anchor interval.
  EXPECT_GT(n0, 0.05f);
  EXPECT_LT(n6 / std::max(n3, 1e-3f), 3.0f);
}

TEST(EmbeddingTest, ContinuityInValue) {
  // Close values map to close embeddings (consecutive-embedding property).
  Rng rng(6);
  BiDirectionalEmbedding bi(2, 4, EmbeddingVariant::kBiDirectional, -3.0f,
                            3.0f, false, &rng);
  ag::Variable x1 = ag::Constant(Tensor::Full({1, 1, 2}, 1.0f));
  ag::Variable x2 = ag::Constant(Tensor::Full({1, 1, 2}, 1.01f));
  Tensor e1 = bi.Forward(x1, FullMask({1, 1, 2})).value();
  Tensor e2 = bi.Forward(x2, FullMask({1, 1, 2})).value();
  EXPECT_LT(MaxAbsDiff(e1, e2), 0.05f);
}

TEST(EmbeddingTest, StarVariantMapsZeroToOnes) {
  Rng rng(7);
  BiDirectionalEmbedding fm_star(2, 3, EmbeddingVariant::kFmLinearStar, -3.0f,
                                 3.0f, false, &rng);
  Tensor xv({1, 1, 2});
  xv.at({0, 0, 0}) = 0.0f;
  xv.at({0, 0, 1}) = 2.0f;
  Tensor e = fm_star.Forward(ag::Constant(xv), FullMask({1, 1, 2})).value();
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_FLOAT_EQ((e.at({0, 0, 0, k})), 1.0f);   // zero -> ones
    EXPECT_NE((e.at({0, 0, 1, k})), 1.0f);         // non-zero -> linear
  }
}

TEST(EmbeddingTest, StarVariantBreaksContinuity) {
  // The paper attributes ELDA-Net-F_bi*'s degradation to this discontinuity.
  Rng rng(8);
  BiDirectionalEmbedding bi_star(1, 4, EmbeddingVariant::kBiDirectionalStar,
                                 -3.0f, 3.0f, false, &rng);
  Tensor at_zero = bi_star
                       .Forward(ag::Constant(Tensor::Zeros({1, 1, 1})),
                                FullMask({1, 1, 1}))
                       .value();
  Tensor near_zero = bi_star
                         .Forward(ag::Constant(Tensor::Full({1, 1, 1}, 0.05f)),
                                  FullMask({1, 1, 1}))
                         .value();
  EXPECT_GT(MaxAbsDiff(at_zero, near_zero), 0.2f);
}

TEST(EmbeddingTest, NeverObservedFeatureUsesMissingVector) {
  Rng rng(9);
  BiDirectionalEmbedding embedding(2, 3, EmbeddingVariant::kBiDirectional,
                                   -3.0f, 3.0f, true, &rng);
  Tensor vm;
  for (const auto& [name, var] : embedding.NamedParameters()) {
    if (name == "v_missing") vm = var.value();
  }
  ASSERT_TRUE(vm.defined());
  // Feature 0 observed at t=1; feature 1 never observed.
  Tensor mask({1, 2, 2});
  mask.at({0, 1, 0}) = 1.0f;
  Tensor e = embedding.Forward(RandomInput({1, 2, 2}, 10), mask).value();
  for (int64_t t = 0; t < 2; ++t) {
    for (int64_t k = 0; k < 3; ++k) {
      EXPECT_FLOAT_EQ((e.at({0, t, 1, k})), (vm.at({1, k})));
    }
  }
  // Feature 0 does NOT use the missing vector.
  bool differs = false;
  for (int64_t k = 0; k < 3; ++k) {
    if (std::fabs(e.at({0, 0, 0, k}) - vm.at({0, k})) > 1e-4f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(EmbeddingTest, GradCheckBiVariant) {
  Rng rng(11);
  BiDirectionalEmbedding embedding(3, 4, EmbeddingVariant::kBiDirectional,
                                   -3.0f, 3.0f, true, &rng);
  ag::Variable x = RandomInput({2, 3, 3}, 12);
  Tensor mask = Tensor::Ones({2, 3, 3});
  mask.at({0, 0, 1}) = 0.0f;  // partially observed
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(embedding.Forward(x, mask))); },
      embedding.Parameters(), {}, &error))
      << error;
}

// The composed Eq. 2 op chain that ag::BiDirectionalEmbedding replaced,
// kept verbatim (with the tables passed in) as the fused op's bitwise
// oracle.
ag::Variable ComposedBiDirectionalEmbedding(const Tensor& xv,
                                            const ag::Variable& va,
                                            const ag::Variable& vb,
                                            const ag::Variable& vm,
                                            const Tensor& never,
                                            const EmbeddingSpec& spec) {
  const int64_t batch = xv.shape(0);
  const int64_t steps = xv.shape(1);
  const int64_t num_features = xv.shape(2);
  ag::Variable x4 =
      ag::Reshape(ag::Constant(xv), {batch, steps, num_features, 1});
  ag::Variable e;
  if (spec.bi) {
    const float inv_range = 1.0f / (spec.upper - spec.lower);
    ag::Variable wa = ag::MulScalar(ag::AddScalar(x4, -spec.lower), inv_range);
    ag::Variable wb = ag::MulScalar(
        ag::AddScalar(ag::MulScalar(x4, -1.0f), spec.upper), inv_range);
    e = ag::Add(ag::Mul(wa, va), ag::Mul(wb, vb));
  } else {
    e = ag::Mul(x4, va);
  }
  if (spec.star) {
    Tensor zero_sel =
        EqualScalar(xv, 0.0f, 1e-6f).Reshape({batch, steps, num_features, 1});
    ag::Variable keep =
        ag::Constant(Sub(Tensor::Ones(zero_sel.shape()), zero_sel));
    e = ag::Add(ag::Mul(e, keep), ag::Constant(zero_sel));
  }
  if (vm.defined()) {
    ag::Variable never_v = ag::Constant(never);
    ag::Variable keep_v =
        ag::Constant(Sub(Tensor::Ones(never.shape()), never));
    e = ag::Add(ag::Mul(e, keep_v), ag::Mul(never_v, vm));
  }
  return e;
}

using EmbeddingFn = ag::Variable (*)(const Tensor&, const ag::Variable&,
                                     const ag::Variable&, const ag::Variable&,
                                     const Tensor&, const EmbeddingSpec&);

struct EmbeddingRun {
  Tensor e, dva, dvb, dvm;
};

// One forward of `fn` on fresh table leaves (vb / vm undefined when
// absent), then a backward of sum(e ⊙ cotangent).
EmbeddingRun RunEmbedding(EmbeddingFn fn, const Tensor& x, const Tensor& va,
                          const Tensor& vb, const Tensor& vm,
                          const Tensor& never, const EmbeddingSpec& spec,
                          const Tensor& cotangent) {
  ag::Variable a(va, true);
  ag::Variable b = vb.defined() ? ag::Variable(vb, true) : ag::Variable();
  ag::Variable m = vm.defined() ? ag::Variable(vm, true) : ag::Variable();
  EmbeddingRun run;
  ag::Variable e = fn(x, a, b, m, never, spec);
  run.e = e.value();
  ag::SumAll(ag::Mul(e, ag::Constant(cotangent))).Backward();
  run.dva = a.grad();
  if (b.defined()) run.dvb = b.grad();
  if (m.defined()) run.dvm = m.grad();
  return run;
}

// Standardised values with the cases the chain distinguishes: exact and
// near zeros (the star selector and its tolerance), −0, values outside the
// anchors [a, b].
Tensor EmbeddingInput(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::Normal(std::move(shape), 0.0f, 2.0f, &rng);
  const float specials[] = {0.0f, -0.0f, 5e-7f, -2e-6f, -3.0f, 3.0f, 7.5f};
  for (int64_t i = 0; i < x.size(); i += 5) {
    x[i] = specials[(i / 5) % (sizeof(specials) / sizeof(float))];
  }
  return x;
}

TEST(EmbeddingTest, FusedMatchesComposedChainBitwise) {
  constexpr int64_t kE = 24;
  // [B, T, C]: a small window, a training-shaped batch, and the packed
  // sweep's [tiles, 1, C] chunks.
  const std::vector<int64_t> shapes[] = {{2, 3, 5}, {64, 48, 37}, {300, 1, 37}};
  const EmbeddingVariant variants[] = {
      EmbeddingVariant::kBiDirectional, EmbeddingVariant::kBiDirectionalStar,
      EmbeddingVariant::kFmLinear, EmbeddingVariant::kFmLinearStar};
  for (const std::vector<int64_t>& shape : shapes) {
    const int64_t B = shape[0], C = shape[2];
    const Tensor x = EmbeddingInput(shape, 70 + static_cast<uint64_t>(B));
    // A ragged never: each row leaves a different feature subset unseen.
    Rng never_rng(71);
    Tensor never({B, 1, C, 1});
    for (int64_t i = 0; i < never.size(); ++i) {
      never[i] = never_rng.Bernoulli(0.3) ? 1.0f : 0.0f;
    }
    Rng rng(72);
    const Tensor cotangent =
        Tensor::Normal({shape[0], shape[1], C, kE}, 0.0f, 1.0f, &rng);
    const Tensor va = Tensor::Uniform({C, kE}, -0.7f, 0.7f, &rng);
    const Tensor vb = Tensor::Uniform({C, kE}, -0.7f, 0.7f, &rng);
    const Tensor vm = Tensor::Uniform({C, kE}, -0.7f, 0.7f, &rng);
    for (const EmbeddingVariant variant : variants) {
      EmbeddingSpec spec;
      spec.bi = variant == EmbeddingVariant::kBiDirectional ||
                variant == EmbeddingVariant::kBiDirectionalStar;
      spec.star = variant == EmbeddingVariant::kBiDirectionalStar ||
                  variant == EmbeddingVariant::kFmLinearStar;
      for (const bool with_vm : {true, false}) {
        const Tensor b = spec.bi ? vb : Tensor();
        const Tensor m = with_vm ? vm : Tensor();
        const Tensor n = with_vm ? never : Tensor();
        for (const bool scalar : {false, true}) {
          simd::ForceScalar(scalar);
          const EmbeddingRun want =
              RunEmbedding(ComposedBiDirectionalEmbedding, x, va, b, m, n,
                           spec, cotangent);
          for (const int64_t threads : {1, 2, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << EmbeddingVariantName(variant) << " vm=" << with_vm
                         << " B=" << B << " T=" << shape[1] << " C=" << C
                         << " threads=" << threads
                         << (scalar ? " scalar" : " simd"));
            par::ScopedNumThreads scoped(threads);
            const EmbeddingRun got = RunEmbedding(
                ag::BiDirectionalEmbedding, x, va, b, m, n, spec, cotangent);
            EXPECT_TRUE(SameBits(got.e, want.e)) << "output";
            EXPECT_TRUE(SameBits(got.dva, want.dva)) << "dV_a / dV";
            EXPECT_EQ(got.dvb.defined(), spec.bi);
            if (spec.bi) {
              EXPECT_TRUE(SameBits(got.dvb, want.dvb)) << "dV_b";
            }
            EXPECT_EQ(got.dvm.defined(), with_vm);
            if (with_vm) {
              EXPECT_TRUE(SameBits(got.dvm, want.dvm)) << "dV_m";
            }
          }
        }
        simd::ForceScalar(false);
      }
    }
  }
}

TEST(EmbeddingTest, FusedOpOnEmptyBatchGivesZeroGradients) {
  Rng rng(75);
  ag::Variable va(Tensor::Uniform({5, 4}, -0.7f, 0.7f, &rng), true);
  ag::Variable vb(Tensor::Uniform({5, 4}, -0.7f, 0.7f, &rng), true);
  ag::Variable vm(Tensor::Uniform({5, 4}, -0.7f, 0.7f, &rng), true);
  for (const std::vector<int64_t>& shape :
       {std::vector<int64_t>{0, 3, 5}, std::vector<int64_t>{2, 0, 5}}) {
    va.ZeroGrad();
    vb.ZeroGrad();
    vm.ZeroGrad();
    const ag::Variable e = ag::BiDirectionalEmbedding(
        Tensor(shape), va, vb, vm, Tensor({shape[0], 1, 5, 1}), {});
    EXPECT_EQ(e.value().shape(),
              (std::vector<int64_t>{shape[0], shape[1], 5, 4}));
    ag::SumAll(e).Backward();
    for (const ag::Variable* v : {&va, &vb, &vm}) {
      EXPECT_EQ(MaxAbsDiff(v->grad(), Tensor({5, 4})), 0.0f);
    }
  }
}

TEST(EmbeddingTest, FusedOpGradCheckAllVariants) {
  const Tensor x = EmbeddingInput({2, 3, 3}, 73);
  Tensor never({2, 1, 3, 1});
  never.at({0, 0, 1, 0}) = 1.0f;
  never.at({1, 0, 2, 0}) = 1.0f;
  for (const bool bi : {true, false}) {
    for (const bool star : {false, true}) {
      for (const bool with_vm : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "bi=" << bi << " star=" << star
                                          << " vm=" << with_vm);
        Rng rng(74);
        ag::Variable va(Tensor::Uniform({3, 4}, -0.7f, 0.7f, &rng), true);
        ag::Variable vb =
            bi ? ag::Variable(Tensor::Uniform({3, 4}, -0.7f, 0.7f, &rng), true)
               : ag::Variable();
        ag::Variable vm =
            with_vm
                ? ag::Variable(Tensor::Uniform({3, 4}, -0.7f, 0.7f, &rng), true)
                : ag::Variable();
        EmbeddingSpec spec;
        spec.bi = bi;
        spec.star = star;
        std::vector<ag::Variable> params{va};
        if (bi) params.push_back(vb);
        if (with_vm) params.push_back(vm);
        std::string error;
        EXPECT_TRUE(ag::CheckGradients(
            [&] {
              return ag::SumAll(ag::Square(ag::BiDirectionalEmbedding(
                  x, va, vb, vm, with_vm ? never : Tensor(), spec)));
            },
            params, {}, &error))
            << error;
      }
    }
  }
}

TEST(EmbeddingTest, ParameterCountsPerVariant) {
  Rng rng(13);
  BiDirectionalEmbedding bi(37, 24, EmbeddingVariant::kBiDirectional, -3, 3,
                            true, &rng);
  EXPECT_EQ(bi.NumParameters(), 3 * 37 * 24);  // V_a, V_b, V_m
  BiDirectionalEmbedding fm(37, 24, EmbeddingVariant::kFmLinear, -3, 3, false,
                            &rng);
  EXPECT_EQ(fm.NumParameters(), 37 * 24);
}

// ---- Feature-level interaction -------------------------------------------------

// Naive O(C^2 E) reference implementing Eqs. 3-6 literally, used to verify
// the factored implementation.
Tensor NaiveFeatureInteraction(const Tensor& e, const Tensor& w_alpha,
                               const Tensor& b_alpha, const Tensor& p,
                               Tensor* alpha_out) {
  const int64_t B = e.shape(0), T = e.shape(1), C = e.shape(2),
                E = e.shape(3);
  const int64_t D = p.shape(1);
  Tensor out({B, T, C * D});
  *alpha_out = Tensor({B, T, C, C});
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t t = 0; t < T; ++t) {
      for (int64_t i = 0; i < C; ++i) {
        // Scores over j != i.
        std::vector<double> scores(C, 0.0);
        double max_score = -1e30;
        for (int64_t j = 0; j < C; ++j) {
          if (j == i) continue;
          double s = b_alpha[i];
          for (int64_t k = 0; k < E; ++k) {
            s += w_alpha.at({i, k}) * e.at({b, t, i, k}) * e.at({b, t, j, k});
          }
          scores[j] = s;
          max_score = std::max(max_score, s);
        }
        double z = 0.0;
        for (int64_t j = 0; j < C; ++j) {
          if (j == i) continue;
          z += std::exp(scores[j] - max_score);
        }
        std::vector<double> alpha(C, 0.0);
        for (int64_t j = 0; j < C; ++j) {
          if (j == i) continue;
          alpha[j] = std::exp(scores[j] - max_score) / z;
          alpha_out->at({b, t, i, j}) = static_cast<float>(alpha[j]);
        }
        // c_i = sum_j alpha_ij (e_i ⊙ e_j); f_i = p^T relu([e_i ; c_i]).
        std::vector<double> c(E, 0.0);
        for (int64_t j = 0; j < C; ++j) {
          if (j == i) continue;
          for (int64_t k = 0; k < E; ++k) {
            c[k] += alpha[j] * e.at({b, t, i, k}) * e.at({b, t, j, k});
          }
        }
        for (int64_t d = 0; d < D; ++d) {
          double f = 0.0;
          for (int64_t k = 0; k < E; ++k) {
            const double ek = std::max<double>(e.at({b, t, i, k}), 0.0);
            f += ek * p.at({k, d});
          }
          for (int64_t k = 0; k < E; ++k) {
            const double ck = std::max(c[k], 0.0);
            f += ck * p.at({E + k, d});
          }
          out.at({b, t, i * D + d}) = static_cast<float>(f);
        }
      }
    }
  }
  return out;
}

TEST(FeatureInteractionTest, FactoredMatchesNaiveReference) {
  Rng rng(14);
  FeatureInteraction module(5, 6, 3, &rng);
  auto named = module.NamedParameters();
  Tensor w_alpha, b_alpha, p;
  for (const auto& [name, var] : named) {
    if (name == "w_alpha") w_alpha = var.value();
    if (name == "b_alpha") b_alpha = var.value();
    if (name == "p") p = var.value();
  }
  Rng data_rng(15);
  Tensor e = Tensor::Normal({2, 3, 5, 6}, 0.0f, 0.7f, &data_rng);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  ag::Variable out = module.Forward(ag::Constant(e), &ctx);
  Tensor alpha_ref;
  Tensor out_ref = NaiveFeatureInteraction(e, w_alpha, b_alpha, p, &alpha_ref);
  EXPECT_TRUE(AllClose(out.value(), out_ref, 1e-4f, 1e-3f));
  // Attention matches too (diagonal is zero in both).
  EXPECT_TRUE(
      AllClose(sink.Get("feature_attention"), alpha_ref, 1e-5f, 1e-4f));
}

// The composed Eq. 5-6 op chain that ag::FeatureInteractionTile replaced,
// kept verbatim as the tile's bitwise oracle.
ag::Variable ComposedFeatureInteraction(const ag::Variable& e,
                                        const ag::Variable& w_alpha,
                                        const ag::Variable& b_alpha,
                                        const ag::Variable& p,
                                        Tensor* alpha_out) {
  const Tensor& ev = e.value();
  const int64_t batch = ev.shape(0), steps = ev.shape(1), C = ev.shape(2),
                E = ev.shape(3);
  const int64_t D = p.value().shape(1);
  Tensor diag_mask({C, C});
  for (int64_t i = 0; i < C; ++i) diag_mask.at({i, i}) = -1e9f;
  ag::Variable e3 = ag::Reshape(e, {batch * steps, C, E});
  ag::Variable u = ag::Mul(e3, w_alpha);
  ag::Variable scores = ag::MatMul(u, ag::TransposeLast2(e3));
  scores = ag::Add(scores, ag::Reshape(b_alpha, {C, 1}));
  scores = ag::Add(scores, ag::Constant(diag_mask));
  ag::Variable alpha = ag::Softmax(scores);
  *alpha_out = alpha.value().Reshape({batch, steps, C, C});
  ag::Variable weighted = ag::MatMul(alpha, e3);
  ag::Variable context = ag::Mul(e3, weighted);
  ag::Variable combined = ag::Concat({e3, context}, /*axis=*/-1);
  ag::Variable f = ag::MatMul(ag::Relu(combined), p);
  return ag::Reshape(f, {batch, steps, C * D});
}

using FeatureInteractionFn = ag::Variable (*)(const ag::Variable&,
                                              const ag::Variable&,
                                              const ag::Variable&,
                                              const ag::Variable&, Tensor*);

struct FeatureInteractionRun {
  Tensor f, alpha, de, dw, db, dp;
};

// One forward of `fn` on fresh leaves, then a backward of sum(f ⊙ cotangent).
FeatureInteractionRun RunFeatureInteraction(FeatureInteractionFn fn,
                                            const Tensor& e, const Tensor& w,
                                            const Tensor& b, const Tensor& p,
                                            const Tensor& cotangent) {
  ag::Variable ev(e, true), wv(w, true), bv(b, true), pv(p, true);
  FeatureInteractionRun run;
  ag::Variable f = fn(ev, wv, bv, pv, &run.alpha);
  run.f = f.value();
  ag::SumAll(ag::Mul(f, ag::Constant(cotangent))).Backward();
  run.de = ev.grad();
  run.dw = wv.grad();
  run.db = bv.grad();
  run.dp = pv.grad();
  return run;
}

TEST(FeatureInteractionTest, TileMatchesComposedChainBitwise) {
  struct Dims {
    int64_t c, e, d;
  };
  // Every C in {1, 3, 4, 5, 8, 9, 16, 17, 37} against every E in
  // {1, 7, 8, 24, 40}, with d cycling through 1..5: the softmax's 4-row
  // groups and their 1-3 row rest, full and partial 8x8 blocks of the eᵀ
  // transpose, each product kernel row block (4 rows, then a 1-3 row rest)
  // and column tail (C padded to 8 lanes, E and 2E wide) all run. B x T = 1
  // and 7 tiles, plus 3072 at ELDA-Net's own shape; e is also scaled by 30,
  // so exp underflows to exact zeros and the -1e9 diagonal meets large
  // scores.
  std::vector<Dims> dims;
  int64_t cycle = 0;
  for (const int64_t c : {1, 3, 4, 5, 8, 9, 16, 17, 37}) {
    for (const int64_t e : {1, 7, 8, 24, 40}) {
      dims.push_back({c, e, 1 + cycle++ % 5});
    }
  }
  for (const Dims& dim : dims) {
    std::vector<std::vector<int64_t>> grids = {{1, 1}, {1, 7}};
    if (dim.c == 37 && dim.e == 24) grids.push_back({64, 48});
    Rng rng(40);
    FeatureInteraction module(dim.c, dim.e, dim.d, &rng);
    Tensor w, p;
    for (const auto& [name, var] : module.NamedParameters()) {
      if (name == "w_alpha") w = var.value();
      if (name == "p") p = var.value();
    }
    // A non-zero bias so the bias add is exercised (the module inits zeros).
    const Tensor b = Tensor::Normal({dim.c}, 0.0f, 0.5f, &rng);
    for (const std::vector<int64_t>& grid : grids) {
      for (const float scale : {1.0f, 30.0f}) {
        if (scale != 1.0f && grid[0] > 1) continue;
        Rng data_rng(41 + static_cast<uint64_t>(grid[1]));
        const Tensor e =
            MulScalar(Tensor::Normal({grid[0], grid[1], dim.c, dim.e}, 0.0f,
                                     0.7f, &data_rng),
                      scale);
        const Tensor cotangent = Tensor::Normal(
            {grid[0], grid[1], dim.c * dim.d}, 0.0f, 1.0f, &data_rng);
        // The oracle runs at SIMD off: the tile and ag::Softmax share one
        // vector rows body, so the scalar reference is the independent
        // check of it.
        simd::ForceScalar(true);
        const FeatureInteractionRun want = RunFeatureInteraction(
            ComposedFeatureInteraction, e, w, b, p, cotangent);
        for (const bool scalar : {false, true}) {
          simd::ForceScalar(scalar);
          for (const int64_t threads : {1, 2, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << "C=" << dim.c << " E=" << dim.e << " d=" << dim.d
                         << " tiles=" << grid[0] * grid[1] << " scale="
                         << scale << " threads=" << threads
                         << (scalar ? " scalar" : " simd"));
            par::ScopedNumThreads scoped(threads);
            const FeatureInteractionRun got = RunFeatureInteraction(
                ag::FeatureInteractionTile, e, w, b, p, cotangent);
            EXPECT_TRUE(SameBits(got.f, want.f)) << "output";
            EXPECT_TRUE(SameBits(got.alpha, want.alpha)) << "alpha";
            EXPECT_TRUE(SameBits(got.de, want.de)) << "de";
            EXPECT_TRUE(SameBits(got.dw, want.dw)) << "dW_alpha";
            EXPECT_TRUE(SameBits(got.db, want.db)) << "db_alpha";
            EXPECT_TRUE(SameBits(got.dp, want.dp)) << "dp";
            // The graph-free forward with no α capture (scoring and
            // per-step decompensation).
            EXPECT_TRUE(SameBits(FeatureInteractionTile(e, w, b, p, nullptr),
                                 want.f))
                << "graph-free output";
          }
        }
        simd::ForceScalar(false);
      }
    }
  }
}

TEST(FeatureInteractionTest, AttentionRowsSumToOneOffDiagonal) {
  Rng rng(16);
  FeatureInteraction module(7, 4, 2, &rng);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  module.Forward(RandomInput({3, 5, 7, 4}, 17), &ctx);
  const Tensor alpha = sink.Get("feature_attention");
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t t = 0; t < 5; ++t) {
      for (int64_t i = 0; i < 7; ++i) {
        EXPECT_NEAR((alpha.at({b, t, i, i})), 0.0f, 1e-6f);
        float row = 0.0f;
        for (int64_t j = 0; j < 7; ++j) row += alpha.at({b, t, i, j});
        EXPECT_NEAR(row, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(FeatureInteractionTest, AttentionIsAsymmetric) {
  // alpha_ij (processing i) need not equal alpha_ji (processing j) — the
  // paper highlights this (pH attends to Lactate more than vice versa).
  Rng rng(18);
  FeatureInteraction module(4, 5, 2, &rng);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  module.Forward(RandomInput({1, 1, 4, 5}, 19), &ctx);
  const Tensor alpha = sink.Get("feature_attention");
  float max_gap = 0.0f;
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      max_gap = std::max(max_gap, std::fabs(alpha.at({0, 0, i, j}) -
                                            alpha.at({0, 0, j, i})));
    }
  }
  EXPECT_GT(max_gap, 1e-3f);
}

TEST(FeatureInteractionTest, OutputShapeUsesCompressionFactor) {
  Rng rng(20);
  FeatureInteraction module(6, 8, 4, &rng);
  ag::Variable out = module.Forward(RandomInput({2, 3, 6, 8}, 21));
  EXPECT_EQ(out.value().shape(), (std::vector<int64_t>{2, 3, 24}));
  EXPECT_EQ(module.output_dim(), 24);
}

TEST(FeatureInteractionTest, GradCheck) {
  Rng rng(22);
  FeatureInteraction module(4, 3, 2, &rng);
  ag::Variable e = RandomInput({2, 2, 4, 3}, 23, 0.7f);
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 16;
  EXPECT_TRUE(ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(module.Forward(e))); },
      module.Parameters(), options, &error))
      << error;
}

// ---- Time-level interaction ----------------------------------------------------

TEST(TimeInteractionTest, OutputShapeAndAttention) {
  Rng rng(24);
  TimeInteraction module(6, 5, &rng);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  ag::Variable out = module.Forward(RandomInput({3, 8, 6}, 25), &ctx);
  EXPECT_EQ(out.value().shape(), (std::vector<int64_t>{3, 10}));
  const Tensor beta = sink.Get("time_attention");
  EXPECT_EQ(beta.shape(), (std::vector<int64_t>{3, 7}));
  for (int64_t b = 0; b < 3; ++b) {
    float row = 0.0f;
    for (int64_t t = 0; t < 7; ++t) {
      EXPECT_GE((beta.at({b, t})), 0.0f);
      row += beta.at({b, t});
    }
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(TimeInteractionTest, DeterministicAndConsistentAcrossCalls) {
  Rng rng(26);
  TimeInteraction module(4, 3, &rng);
  ag::Variable x = RandomInput({2, 6, 4}, 27);
  nn::CaptureSink sink1, sink2;
  nn::ForwardContext ctx1, ctx2;
  ctx1.capture = &sink1;
  ctx2.capture = &sink2;
  Tensor out1 = module.Forward(x, &ctx1).value();
  Tensor beta1 = sink1.Get("time_attention").Clone();
  Tensor out2 = module.Forward(x, &ctx2).value();
  EXPECT_TRUE(AllClose(out1, out2));
  EXPECT_TRUE(AllClose(beta1, sink2.Get("time_attention")));
}

TEST(TimeInteractionTest, UniformHiddenStatesGiveUniformAttention) {
  // If every earlier step's interaction with the last step is identical,
  // the softmax must spread weight uniformly.
  Rng rng(260);
  TimeInteraction module(4, 3, &rng);
  // Constant input over time leads to h_t converging, but not exactly equal;
  // instead feed a 2-step sequence where T-1 = 1 so there is one weight.
  ag::Variable x = RandomInput({2, 2, 4}, 261);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  module.Forward(x, &ctx);
  const Tensor beta = sink.Get("time_attention");
  ASSERT_EQ(beta.shape(), (std::vector<int64_t>{2, 1}));
  EXPECT_NEAR((beta.at({0, 0})), 1.0f, 1e-6f);
}

TEST(TimeInteractionTest, GradCheck) {
  Rng rng(28);
  TimeInteraction module(3, 4, &rng);
  ag::Variable x = RandomInput({2, 4, 3}, 29);
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 16;
  EXPECT_TRUE(ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(module.Forward(x))); },
      module.Parameters(), options, &error))
      << error;
}

// ---- ELDA-Net ---------------------------------------------------------------------

data::Batch TinyBatch(int64_t batch, int64_t steps, int64_t features,
                      uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.x = Tensor::Normal({batch, steps, features}, 0.0f, 1.0f, &rng);
  b.mask = Tensor({batch, steps, features});
  for (int64_t i = 0; i < b.mask.size(); ++i) {
    b.mask[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  b.delta = Tensor::Zeros({batch, steps, features});
  b.y = Tensor({batch});
  for (int64_t i = 0; i < batch; ++i) {
    b.y[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return b;
}

EldaNetConfig SmallConfig() {
  EldaNetConfig config;
  config.num_features = 6;
  config.embed_dim = 5;
  config.compression = 2;
  config.hidden_dim = 7;
  return config;
}

TEST(EldaNetTest, ForwardShapesForAllVariants) {
  const EldaNetConfig variants[] = {
      EldaNetConfig::Full(),       EldaNetConfig::VariantT(),
      EldaNetConfig::VariantFBi(), EldaNetConfig::VariantFBiStar(),
      EldaNetConfig::VariantFFm(), EldaNetConfig::VariantFFmStar(),
  };
  data::Batch batch = TinyBatch(3, 5, 6, 31);
  for (const EldaNetConfig& base : variants) {
    EldaNetConfig config = base;
    config.num_features = 6;
    config.embed_dim = 5;
    config.compression = 2;
    config.hidden_dim = 7;
    EldaNet net(config);
    Tensor logits = net.Forward(batch).value();
    EXPECT_EQ(logits.shape(), (std::vector<int64_t>{3}))
        << config.display_name;
    for (int64_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(logits[i]));
  }
}

TEST(EldaNetTest, VariantNamesMatchPaper) {
  EXPECT_EQ(EldaNetConfig::Full().display_name, "ELDA-Net");
  EXPECT_EQ(EldaNetConfig::VariantT().display_name, "ELDA-Net-T");
  EXPECT_EQ(EldaNetConfig::VariantFBi().display_name, "ELDA-Net-Fbi");
  EXPECT_EQ(EldaNetConfig::VariantFFmStar().display_name, "ELDA-Net-Ffm*");
}

TEST(EldaNetTest, FullModelExposesBothAttentions) {
  EldaNetConfig config = SmallConfig();
  EldaNet net(config);
  data::Batch batch = TinyBatch(2, 4, 6, 32);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  net.Forward(batch, &ctx);
  EXPECT_EQ(sink.Get("feature_attention").shape(),
            (std::vector<int64_t>{2, 4, 6, 6}));
  EXPECT_EQ(sink.Get("time_attention").shape(), (std::vector<int64_t>{2, 3}));
}

TEST(EldaNetTest, VariantTCapturesNoFeatureAttention) {
  EldaNetConfig config = SmallConfig();
  config.use_feature_module = false;
  EldaNet net(config);
  data::Batch batch = TinyBatch(2, 4, 6, 320);
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  net.Forward(batch, &ctx);
  EXPECT_FALSE(sink.Contains("feature_attention"));
  EXPECT_TRUE(sink.Contains("time_attention"));
}

TEST(EldaNetTest, GradCheckFullModelSmall) {
  EldaNetConfig config;
  config.num_features = 3;
  config.embed_dim = 3;
  config.compression = 2;
  config.hidden_dim = 3;
  EldaNet net(config);
  data::Batch batch = TinyBatch(2, 3, 3, 33);
  std::string error;
  ag::GradCheckOptions options;
  options.max_elements_per_param = 8;
  EXPECT_TRUE(ag::CheckGradients(
      [&] { return ag::BceWithLogits(net.Forward(batch), batch.y); },
      net.Parameters(), options, &error))
      << error;
}

TEST(EldaNetTest, ParameterCountNearPaperScale) {
  // Paper Table III reports 53k for ELDA-Net at the experiment
  // hyper-parameters; the architectural count lands in the same bracket.
  EldaNet net(EldaNetConfig::Full());
  EXPECT_GT(net.NumParameters(), 40000);
  EXPECT_LT(net.NumParameters(), 70000);
}

TEST(EldaNetTest, VariantTIsSmallerThanFull) {
  EldaNet full(EldaNetConfig::Full());
  EldaNet t_only(EldaNetConfig::VariantT());
  EXPECT_LT(t_only.NumParameters(), full.NumParameters() / 2);
}

TEST(EldaNetTest, LearnsInteractionSignal) {
  // A task a linear-in-marginals model cannot solve: the label is the XOR-ish
  // product structure y = 1[x0 * x1 > 0] at the final step. The full model
  // with explicit interactions should fit it quickly.
  EldaNetConfig config;
  config.num_features = 2;
  config.embed_dim = 6;
  config.compression = 3;
  config.hidden_dim = 8;
  EldaNet net(config);

  Rng rng(35);
  auto make_batch = [&](int64_t n) {
    data::Batch b;
    b.x = Tensor::Normal({n, 3, 2}, 0.0f, 1.0f, &rng);
    b.mask = Tensor::Ones({n, 3, 2});
    b.delta = Tensor::Zeros({n, 3, 2});
    b.y = Tensor({n});
    for (int64_t i = 0; i < n; ++i) {
      const float prod = b.x.at({i, 2, 0}) * b.x.at({i, 2, 1});
      b.y[i] = prod > 0.0f ? 1.0f : 0.0f;
    }
    return b;
  };

  optim::Adam adam(net.Parameters(), 0.01f);
  for (int step = 0; step < 150; ++step) {
    data::Batch batch = make_batch(64);
    adam.ZeroGrad();
    ag::BceWithLogits(net.Forward(batch), batch.y).Backward();
    adam.Step();
  }
  // Evaluate accuracy on fresh data.
  data::Batch test = make_batch(256);
  Tensor probs = Sigmoid(net.Forward(test).value());
  int64_t correct = 0;
  for (int64_t i = 0; i < 256; ++i) {
    correct += (probs[i] >= 0.5f) == (test.y[i] == 1.0f);
  }
  EXPECT_GT(correct, 200);  // well above the 50% chance level
}

// ---- Per-step encodings (packed segment sweep vs prefix replay) ------------------

const EldaNetConfig kAllVariants[] = {
    EldaNetConfig::Full(),           EldaNetConfig::VariantT(),
    EldaNetConfig::VariantFBi(),     EldaNetConfig::VariantFBiStar(),
    EldaNetConfig::VariantFFm(),     EldaNetConfig::VariantFFmStar(),
};

EldaNetConfig Shrink(EldaNetConfig config, int64_t features, int64_t hidden) {
  config.num_features = features;
  config.embed_dim = 5;
  config.compression = 2;
  config.hidden_dim = hidden;
  return config;
}

// A batch whose rows exercise every segment shape of V_m: row patterns
// cycle through (0) every feature observed at step 0 — no flip, (1) first
// observations at steps 1, 2 and T-1 (a flip at t0, t0+1 and T-1 for the
// time-interaction variants) with the last feature never observed, (2) a
// sparse random mask (many flips) and (3) one feature first observed at a
// random step. Ragged batches zero x and mask past each row's length, as
// data::MakeBatch pads. Zero values exercise the star variants' routing.
data::Batch FlipBatch(int64_t batch, int64_t steps, int64_t features,
                      bool ragged, uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.x = Tensor::Normal({batch, steps, features}, 0.0f, 1.0f, &rng);
  b.mask = Tensor::Zeros({batch, steps, features});
  b.delta = Tensor::Zeros({batch, steps, features});
  b.y = Tensor::Zeros({batch});
  b.lengths.assign(static_cast<size_t>(batch), steps);
  for (int64_t r = 0; r < batch; ++r) {
    std::vector<int64_t> first(static_cast<size_t>(features), 0);
    switch (r % 4) {
      case 0:
        break;
      case 1:
        first[0] = std::min<int64_t>(1, steps - 1);
        first[1] = std::min<int64_t>(2, steps - 1);
        first[2] = steps - 1;
        first[features - 1] = steps;  // never observed
        break;
      case 2:
        for (int64_t c = 0; c < features; ++c) {
          first[c] = static_cast<int64_t>(rng.UniformInt(steps + 1));
        }
        break;
      default:
        first[r % features] = static_cast<int64_t>(rng.UniformInt(steps));
        break;
    }
    for (int64_t t = 0; t < steps; ++t) {
      for (int64_t c = 0; c < features; ++c) {
        const bool observed =
            t == first[c] || (t > first[c] && rng.Bernoulli(0.3));
        b.mask.at({r, t, c}) = observed ? 1.0f : 0.0f;
        if (rng.Bernoulli(0.1)) b.x.at({r, t, c}) = 0.0f;
      }
    }
    if (ragged && r % 2 == 1 && steps > 1) {
      const int64_t len = 1 + static_cast<int64_t>(rng.UniformInt(steps - 1));
      b.lengths[static_cast<size_t>(r)] = len;
      for (int64_t t = len; t < steps; ++t) {
        for (int64_t c = 0; c < features; ++c) {
          b.x.at({r, t, c}) = 0.0f;
          b.mask.at({r, t, c}) = 0.0f;
        }
      }
    }
  }
  return b;
}

// Bitwise equality with NaN == NaN (warm-up steps are quiet NaN).
bool SameBitsOrNan(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(EldaNetTest, EncodeStepsMatchesPrefixReplayBitwise) {
  const int64_t features = 6;
  // {B, T}. B=64, T=48 packs ~6k tiles for the V_m variants, so their
  // embedding + feature interaction runs in more than one chunk.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {1, 2}, {1, 48}, {7, 1}, {7, 2}, {7, 48}, {64, 48}};
  for (const EldaNetConfig& variant : kAllVariants) {
    const EldaNet net(Shrink(variant, features, 7));
    for (const auto& [batch_size, steps] : shapes) {
      for (const bool ragged : {false, true}) {
        const data::Batch batch =
            FlipBatch(batch_size, steps, features, ragged,
                      100 + static_cast<uint64_t>(batch_size * steps));
        for (const bool scalar : {false, true}) {
          simd::ForceScalar(scalar);
          nn::ForwardContext ctx;
          const Tensor want =
              net.train::SequenceModel::EncodeSteps(batch, &ctx).value();
          for (const int64_t threads : {1, 2, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << variant.display_name << " B=" << batch_size
                         << " T=" << steps << (ragged ? " ragged" : "")
                         << " threads=" << threads
                         << (scalar ? " scalar" : " simd"));
            par::ScopedNumThreads scoped(threads);
            const Tensor got = net.EncodeSteps(batch, &ctx).value();
            EXPECT_TRUE(SameBitsOrNan(got, want));
          }
        }
        simd::ForceScalar(false);
      }
    }
  }
}

TEST(EldaNetTest, EncodeWithStepsLeavesTerminalCaptures) {
  for (const EldaNetConfig& variant : kAllVariants) {
    SCOPED_TRACE(variant.display_name);
    const EldaNet net(Shrink(variant, 6, 7));
    const data::Batch batch = FlipBatch(5, 9, 6, /*ragged=*/true, 7);
    nn::CaptureSink terminal_sink, encode_sink;
    nn::ForwardContext terminal_ctx, encode_ctx;
    terminal_ctx.capture = &terminal_sink;
    encode_ctx.capture = &encode_sink;
    net.EncodeTerminal(batch, &terminal_ctx);
    net.Encode(batch, &encode_ctx, /*want_steps=*/true);
    ASSERT_EQ(encode_sink.entries().size(), terminal_sink.entries().size());
    for (const char* name : {"feature_attention", "time_attention"}) {
      ASSERT_EQ(encode_sink.Contains(name), terminal_sink.Contains(name))
          << name;
      if (!terminal_sink.Contains(name)) continue;
      EXPECT_TRUE(
          SameBits(encode_sink.Get(name), terminal_sink.Get(name)))
          << name;
    }
  }
}

// Per-step decompensation loss through the model's own Readout: the
// DecompensationHead over Encode(..., want_steps=true).
ag::Variable DecompensationLoss(const train::SequenceModel& model,
                                const data::Batch& batch) {
  const train::DecompensationHead head;
  nn::ForwardContext ctx;
  const train::Encoding enc = model.Encode(batch, &ctx, /*want_steps=*/true);
  return head.Loss(model, head.Logits(model, enc, &ctx), batch);
}

data::Batch DecompensationBatch(int64_t batch, int64_t steps,
                                int64_t features, uint64_t seed) {
  data::Batch b = FlipBatch(batch, steps, features, /*ragged=*/false, seed);
  Rng rng(seed + 1);
  b.y_decomp = Tensor({batch, steps});
  for (int64_t i = 0; i < b.y_decomp.size(); ++i) {
    b.y_decomp[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  b.y_pheno = Tensor::Zeros({batch, data::kNumPhenotypes});
  return b;
}

std::vector<Tensor> ParameterGrads(const EldaNet& net,
                                   const ag::Variable& loss) {
  for (ag::Variable p : net.Parameters()) p.ZeroGrad();
  loss.Backward();
  std::vector<Tensor> grads;
  for (const ag::Variable& p : net.Parameters()) {
    grads.push_back(p.has_grad() ? p.grad().Clone()
                                 : Tensor::Zeros(p.value().shape()));
  }
  return grads;
}

TEST(EldaNetTest, DecompensationLossThroughFlipsPassesGradcheck) {
  for (const EldaNetConfig& variant :
       {EldaNetConfig::Full(), EldaNetConfig::VariantFBi()}) {
    SCOPED_TRACE(variant.display_name);
    EldaNetConfig config = Shrink(variant, 3, 3);
    config.embed_dim = 3;
    const EldaNet net(config);
    // B = 4 covers all four row patterns; T = 5 gives rows 1-3 flips.
    const data::Batch batch = DecompensationBatch(4, 5, 3, 61);
    std::string error;
    ag::GradCheckOptions options;
    options.max_elements_per_param = 8;
    EXPECT_TRUE(ag::CheckGradients(
        [&] { return DecompensationLoss(net, batch); }, net.Parameters(),
        options, &error))
        << error;
  }
}

// B=64, T=48 so the V_m variants' packed tiles span several chunks.
TEST(EldaNetTest, DecompensationGradientsThreadInvariantAndNearReplay) {
  for (const EldaNetConfig& variant : kAllVariants) {
    SCOPED_TRACE(variant.display_name);
    const EldaNet net(Shrink(variant, 6, 7));
    const data::Batch batch = DecompensationBatch(64, 48, 6, 62);
    std::vector<Tensor> want;
    for (const int64_t threads : {1, 2, 4}) {
      par::ScopedNumThreads scoped(threads);
      const std::vector<Tensor> got =
          ParameterGrads(net, DecompensationLoss(net, batch));
      if (want.empty()) {
        want = got;
        continue;
      }
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i], want[i]))
            << "parameter " << i << " at " << threads << " threads";
      }
    }
    // The prefix-replay oracle accumulates the same terms in another order.
    struct Replay : train::SequenceModel {
      explicit Replay(const EldaNet& net)
          : train::SequenceModel(net.num_features()), net(net) {}
      ag::Variable EncodeTerminal(const data::Batch& b,
                                  nn::ForwardContext* ctx) const override {
        return net.EncodeTerminal(b, ctx);
      }
      ag::Variable Readout(const ag::Variable& rep,
                           nn::ForwardContext* ctx) const override {
        return net.Readout(rep, ctx);
      }
      int64_t encoding_dim() const override { return net.encoding_dim(); }
      int64_t min_steps_to_score() const override {
        return net.min_steps_to_score();
      }
      std::string name() const override { return "replay"; }
      const EldaNet& net;
    };
    const Replay replay(net);
    const std::vector<Tensor> oracle =
        ParameterGrads(net, DecompensationLoss(replay, batch));
    ASSERT_EQ(oracle.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      for (int64_t k = 0; k < want[i].size(); ++k) {
        ASSERT_NEAR(want[i][k], oracle[i][k], 1e-5f)
            << "parameter " << i << " element " << k;
      }
    }
  }
}

// ---- ELDA framework ------------------------------------------------------------------

EldaConfig TinyEldaConfig() {
  EldaConfig config;
  config.net = EldaNetConfig::Full();
  config.net.embed_dim = 6;
  config.net.compression = 2;
  config.net.hidden_dim = 12;
  config.trainer.max_epochs = 2;
  config.trainer.batch_size = 32;
  return config;
}

TEST(EldaFrameworkTest, FitPredictInterpretRoundTrip) {
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = 160;
  data::EmrDataset cohort = synth::GenerateCohort(cohort_config);

  Elda elda(TinyEldaConfig());
  EXPECT_FALSE(elda.fitted());
  train::TrainResult result = elda.Fit(cohort, data::Task::kMortality);
  EXPECT_TRUE(elda.fitted());
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_GT(result.test.auc_roc, 0.0);
  EXPECT_LT(result.test.bce, 5.0);

  // Prediction on new admissions.
  synth::CohortConfig new_config = cohort_config;
  new_config.num_admissions = 10;
  new_config.seed = 777;
  data::EmrDataset incoming = synth::GenerateCohort(new_config);
  std::vector<data::EmrSample> new_samples(incoming.samples().begin(),
                                           incoming.samples().end());
  std::vector<float> risks = elda.PredictRisk(new_samples);
  ASSERT_EQ(risks.size(), 10u);
  for (float r : risks) {
    EXPECT_GE(r, 0.0f);
    EXPECT_LE(r, 1.0f);
  }
  std::vector<bool> alerts = elda.TriggerAlerts(new_samples);
  ASSERT_EQ(alerts.size(), 10u);

  // Interpretation of the showcase DLA patient.
  Elda::Interpretation interp =
      elda.Interpret(synth::MakeDlaShowcasePatient());
  EXPECT_EQ(interp.feature_attention.shape(),
            (std::vector<int64_t>{48, 37, 37}));
  EXPECT_EQ(interp.time_attention.shape(), (std::vector<int64_t>{47}));
  float beta_sum = 0.0f;
  for (int64_t i = 0; i < 47; ++i) beta_sum += interp.time_attention[i];
  EXPECT_NEAR(beta_sum, 1.0f, 1e-4f);
}

TEST(EldaFrameworkTest, SaveLoadRestoresDeployment) {
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = 120;
  data::EmrDataset cohort = synth::GenerateCohort(cohort_config);

  EldaConfig config = TinyEldaConfig();
  config.trainer.max_epochs = 1;
  Elda trained(config);
  trained.Fit(cohort, data::Task::kMortality);
  const std::string path = testing::TempDir() + "/elda_deploy.eldaw";
  std::string error;
  ASSERT_TRUE(trained.Save(path, &error)) << error;

  // A fresh framework (same architecture config) restores the deployment
  // without ever seeing the training data.
  Elda restored(config);
  ASSERT_TRUE(restored.Load(path, &error)) << error;
  EXPECT_TRUE(restored.fitted());

  synth::CohortConfig new_config = cohort_config;
  new_config.num_admissions = 6;
  new_config.seed = 909;
  data::EmrDataset incoming = synth::GenerateCohort(new_config);
  std::vector<data::EmrSample> patients(incoming.samples().begin(),
                                        incoming.samples().end());
  std::vector<float> a = trained.PredictRisk(patients);
  std::vector<float> b = restored.PredictRisk(patients);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6f);

  // Interpretations survive the round trip too.
  data::EmrSample showcase = synth::MakeDlaShowcasePatient();
  Elda::Interpretation ia = trained.Interpret(showcase);
  Elda::Interpretation ib = restored.Interpret(showcase);
  EXPECT_TRUE(AllClose(ia.feature_attention, ib.feature_attention));
  EXPECT_TRUE(AllClose(ia.time_attention, ib.time_attention));
}

// Byte offset of feature c's entry in a deployment payload: past the
// header (u8 task, i64 num_steps, u8 clean_negative, u32 features) and the
// entries before it (u32 name_len, name, f32 mean, f32 stddev).
size_t FeatureEntryOffset(const std::string& payload, int64_t c) {
  size_t at = 14;
  for (int64_t i = 0; i < c; ++i) {
    uint32_t length = 0;
    std::memcpy(&length, payload.data() + at, sizeof(length));
    at += sizeof(length) + length + 2 * sizeof(float);
  }
  return at;
}

TEST(EldaFrameworkTest, LoadRejectsCorruptDeployment) {
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = 60;
  EldaConfig config = TinyEldaConfig();
  config.trainer.max_epochs = 1;
  Elda trained(config);
  trained.Fit(synth::GenerateCohort(cohort_config), data::Task::kMortality);
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/elda_valid.eldaw";
  std::string error;
  ASSERT_TRUE(trained.Save(path, &error)) << error;
  std::vector<health::Section> sections;
  ASSERT_TRUE(health::ReadSectionedFile(path, &sections, &error)) << error;
  const std::string payload =
      health::FindSection(sections, "deployment")->payload;

  // Each corruption of the deployment section, written with valid CRCs.
  std::vector<std::pair<std::string, std::string>> cases;  // {what, path}
  const auto add_case = [&](const std::string& what, std::string edited) {
    std::vector<health::Section> copy = sections;
    for (health::Section& section : copy) {
      if (section.name == "deployment") section.payload = edited;
    }
    const std::string file = dir + "/elda_corrupt" +
                             std::to_string(cases.size()) + ".eldaw";
    ASSERT_TRUE(health::WriteSectionedFile(file, copy, &error)) << error;
    cases.emplace_back(what, file);
  };
  const auto put = [](std::string* bytes, size_t at, auto value) {
    std::memcpy(bytes->data() + at, &value, sizeof(value));
  };
  uint32_t name0 = 0;
  std::memcpy(&name0, payload.data() + 14, sizeof(name0));
  const size_t mean0 = 14 + sizeof(uint32_t) + name0;
  {
    std::string d = payload;
    put(&d, mean0 + sizeof(float), 0.0f);
    add_case("zero stddev", d);
    put(&d, mean0 + sizeof(float), -1.0f);
    add_case("negative stddev", d);
  }
  {
    std::string d = payload;
    put(&d, mean0, std::numeric_limits<float>::quiet_NaN());
    add_case("NaN mean", d);
  }
  {
    std::string d = payload;
    put(&d, 10, uint32_t{0xFFFFFFFFu});
    add_case("huge feature count", d);
  }
  {
    // Consistently framed, but fewer features than the network takes.
    std::string d = payload.substr(0, FeatureEntryOffset(payload, 3));
    put(&d, 10, uint32_t{3});
    add_case("three features", d);
  }
  {
    std::string d = payload;
    d[0] = 7;
    add_case("unknown task", d);
  }
  {
    std::string d = payload;
    put(&d, 14, uint32_t{1u << 30});
    add_case("oversized name", d);
  }
  add_case("trailing byte", payload + "x");
  // The file itself cut short, and a flipped payload byte (bad CRC).
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto add_file = [&](const std::string& what,
                            const std::string& content) {
    const std::string file = dir + "/elda_corrupt" +
                             std::to_string(cases.size()) + ".eldaw";
    std::ofstream(file, std::ios::binary | std::ios::trunc) << content;
    cases.emplace_back(what, file);
  };
  add_file("truncated file", bytes.substr(0, bytes.size() / 2));
  std::string flipped = bytes;
  flipped[flipped.size() - 10] ^= 0x5A;  // inside the deployment payload
  add_file("bad CRC", flipped);

  for (const auto& [what, file] : cases) {
    SCOPED_TRACE(what);
    Elda fresh(config);
    error.clear();
    EXPECT_FALSE(fresh.Load(file, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fresh.fitted());
  }
  // A failed Load leaves a fitted framework as it was.
  synth::CohortConfig new_config = cohort_config;
  new_config.num_admissions = 4;
  new_config.seed = 909;
  const data::EmrDataset incoming = synth::GenerateCohort(new_config);
  const std::vector<data::EmrSample> patients(incoming.samples().begin(),
                                              incoming.samples().end());
  const std::vector<float> before = trained.PredictRisk(patients);
  EXPECT_FALSE(trained.Load(cases.front().second, &error));
  EXPECT_EQ(trained.PredictRisk(patients), before);
  Elda restored(config);
  ASSERT_TRUE(restored.Load(path, &error)) << error;
  EXPECT_EQ(restored.PredictRisk(patients), before);
}

TEST(EldaFrameworkTest, SaveBeforeFitFails) {
  Elda elda(TinyEldaConfig());
  std::string error;
  EXPECT_FALSE(elda.Save(testing::TempDir() + "/nofit.eldaw", &error));
  EXPECT_NE(error.find("unfitted"), std::string::npos);
}

TEST(EldaFrameworkDeathTest, PredictBeforeFitAborts) {
  Elda elda(TinyEldaConfig());
  EXPECT_DEATH(elda.PredictRisk({synth::MakeDlaShowcasePatient()}),
               "call Fit");
}

}  // namespace
}  // namespace core
}  // namespace elda
