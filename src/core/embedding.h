// Bi-directional Embedding Module (paper Section IV-B, Eq. 2) and the
// FM-style embedding variants used in the ablation study.
//
// For a standardised feature value x' in [a, b] (anchors a=-3, b=3 in the
// paper), the bi-directional embedding interpolates between two learned
// per-feature anchor vectors:
//
//   e_i = ( V_a[i] * (x'_i - a) + V_b[i] * (b - x'_i) ) / (b - a)
//
// Unlike the FM linear embedding e_i = V[i] * x'_i, this keeps the embedding
// scale independent of |x'| — a standardised zero (a normal lab value) still
// maps to an informative vector, and opposite values do not collapse to
// mirrored vectors.
//
// Features that are never observed during a patient's stay (the paper's
// third category of missingness) are replaced by a learned missing-feature
// vector V_m.
//
// Ablation variants (paper Fig. 7):
//   kBiDirectional     ELDA-Net / ELDA-Net-F_bi embedding.
//   kBiDirectionalStar e = all-ones when x' == 0 (breaks continuity; -F_bi*).
//   kFmLinear          e = V[i] * x'_i                    (-F_fm).
//   kFmLinearStar      as kFmLinear but all-ones at x'==0 (-F_fm*).
//
// Every variant runs as one fused autograd op, ag::BiDirectionalEmbedding:
// one tape node and no [B, T, C, E] temporaries, bitwise equal to the
// composed broadcast chain it replaced (kept in tests/core_test.cc as the
// oracle). The input x is a constant: the op forms no dx.

#ifndef ELDA_CORE_EMBEDDING_H_
#define ELDA_CORE_EMBEDDING_H_

#include <string>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace elda {
namespace core {

enum class EmbeddingVariant {
  kBiDirectional,
  kBiDirectionalStar,
  kFmLinear,
  kFmLinearStar,
};

std::string EmbeddingVariantName(EmbeddingVariant variant);

class BiDirectionalEmbedding : public nn::Module {
 public:
  // `lower`/`upper` are the anchors a and b. `use_missing_embedding`
  // enables V_m for never-observed features (on for the bi-directional
  // variants, off for the pure-FM ablation, matching the paper's modules).
  BiDirectionalEmbedding(int64_t num_features, int64_t embed_dim,
                         EmbeddingVariant variant, float lower, float upper,
                         bool use_missing_embedding, Rng* rng);

  // x: [B, T, C] standardised values (a constant, no gradient); mask:
  // [B, T, C] observation mask. Returns embeddings [B, T, C, E].
  ag::Variable Forward(const ag::Variable& x, const Tensor& mask) const;

  // Like Forward, but with the never-observed indicator supplied by the
  // caller: `never` is [B, 1, C, 1], 1 where the feature has not been
  // observed anywhere in the window (may be undefined when the module does
  // not use V_m). The streaming path maintains this indicator per session
  // instead of rescanning a window's mask; Forward computes it from `mask`
  // and delegates here, so both paths run the same op (bitwise).
  ag::Variable ForwardWithNever(const ag::Variable& x,
                                const Tensor& never) const;

  bool use_missing_embedding() const { return use_missing_embedding_; }

  int64_t embed_dim() const { return embed_dim_; }
  int64_t num_features() const { return num_features_; }
  EmbeddingVariant variant() const { return variant_; }

 private:
  int64_t num_features_;
  int64_t embed_dim_;
  EmbeddingVariant variant_;
  float lower_;
  float upper_;
  bool use_missing_embedding_;
  ag::Variable v_lower_;    // [C, E] anchor at x' = a (bi variants)
  ag::Variable v_upper_;    // [C, E] anchor at x' = b (bi variants)
  ag::Variable v_linear_;   // [C, E] FM embedding (fm variants)
  ag::Variable v_missing_;  // [C, E] never-observed-feature embedding
};

}  // namespace core
}  // namespace elda

#endif  // ELDA_CORE_EMBEDDING_H_
