// Feature-level Interaction Learning Module (paper Section IV-B,
// Eqs. 3-6).
//
// For every time step, the module models the explicit pairwise interaction
// between features i and j as r_ij = e_i ⊙ e_j, scores each interaction with
// an attention network (per-feature parameters W_i, b_i), aggregates the
// interactions of feature i over all j != i into a context c_i, and
// compresses [e_i ; c_i] into a d-dimensional representation f_i.
//
// Implementation note (DESIGN.md "Fused feature-interaction tile"):
// materialising r for all pairs would need a [B,T,C,C,E] tensor (~400 MB
// at paper hyper-parameters). We use the exact algebraic refactoring
//     alpha'_ij = W_i . (e_i ⊙ e_j) + b_i = (W_i ⊙ e_i) . e_j
//     c_i       = sum_j alpha_ij (e_i ⊙ e_j) = e_i ⊙ sum_j alpha_ij e_j
// and run it as one autograd op, ag::FeatureInteractionTile. Each (b, t)
// tile computes its [C,C] scores, the diagonal-masked softmax, the context
// and f in per-thread scratch. The backward keeps only e and the parameters
// on the tape: a per-tile pass recomputes alpha and writes de plus three
// slabs, which the existing reduction kernels fold into the parameter
// gradients. Every float matches the composed op chain this replaced
// (strict-k fma products, the same softmax row kernels, the composed order
// of every add); tests/core_test.cc keeps that chain as the memcmp oracle
// and also checks the naive pairwise reference.

#ifndef ELDA_CORE_FEATURE_INTERACTION_H_
#define ELDA_CORE_FEATURE_INTERACTION_H_

#include "autograd/ops.h"
#include "nn/forward_context.h"
#include "nn/module.h"
#include "util/rng.h"

namespace elda {
namespace core {

class FeatureInteraction : public nn::Module {
 public:
  // `compression` is the paper's compression factor d (4 in experiments).
  FeatureInteraction(int64_t num_features, int64_t embed_dim,
                     int64_t compression, Rng* rng);

  // e: [B, T, C, E] feature embeddings.
  // Returns the per-step patient representation x~ = [f_1; ...; f_C] of
  // shape [B, T, C*d].
  //
  // When `ctx` carries a capture sink, the attention weights alpha are
  // stored under "feature_attention" as [B, T, C, C]; row i holds the
  // weights used when processing feature i (the diagonal is masked to
  // zero). This is the feature-level interpretation surface of Figs. 9-10.
  // Stateless per call, so concurrent Forwards need no locking.
  ag::Variable Forward(const ag::Variable& e,
                       const nn::ForwardContext* ctx = nullptr) const;

  int64_t output_dim() const { return num_features_ * compression_; }

 private:
  int64_t num_features_;
  int64_t embed_dim_;
  int64_t compression_;
  ag::Variable w_alpha_;  // [C, E]  per-feature attention weight W_i
  ag::Variable b_alpha_;  // [C]     per-feature attention bias b_i
  ag::Variable p_;        // [2E, d] shared compression map (Eq. 6)
};

}  // namespace core
}  // namespace elda

#endif  // ELDA_CORE_FEATURE_INTERACTION_H_
