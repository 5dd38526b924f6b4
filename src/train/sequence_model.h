// The common interface every predictive model in this repository implements:
// ELDA-Net, its ablation variants, and all eleven baselines.

#ifndef ELDA_TRAIN_SEQUENCE_MODEL_H_
#define ELDA_TRAIN_SEQUENCE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "data/pipeline.h"
#include "nn/forward_context.h"
#include "nn/module.h"
#include "nn/step_state.h"

namespace elda {
namespace train {

// One observation for each of B live sequences — the step-level analogue of
// data::Batch. Row b belongs to the b-th StepState passed to StepForward.
// All three slabs are [B, C] with the same prepared semantics as one
// timestep of data::Batch (standardized LOCF values, observation mask,
// steps-since-last-observation).
struct StepBatch {
  Tensor x;
  Tensor mask;
  Tensor delta;

  int64_t size() const { return x.defined() ? x.shape(0) : 0; }
};

// Encoding bundle returned by SequenceModel::Encode. `terminal` is always
// defined; `steps` only when per-step encodings were requested (and the
// model supports them).
struct Encoding {
  ag::Variable terminal;  // [B, H], H = encoding_dim()
  ag::Variable steps;     // [B, T, H]; rows below min_steps_to_score are NaN
};

class SequenceModel : public nn::Module {
 public:
  // `num_features` is the width C of every observation row the model reads
  // (batch.x's last axis, StepBatch rows).
  explicit SequenceModel(int64_t num_features) : num_features_(num_features) {}

  int64_t num_features() const { return num_features_; }

  // -- Encoder / readout decomposition --------------------------------------
  //
  // Every model is a sequence *encoder* (batch -> representation) plus a
  // binary-risk *readout* (representation rows -> pre-sigmoid logits). Task
  // heads (train/task_head.h) build on this split: the terminal mortality
  // head recomposes exactly the legacy Forward, per-step decompensation
  // applies the readout to each step's encoding, and phenotype / LOS heads
  // attach their own linear layers to the terminal encoding.

  // Terminal representation [B, encoding_dim()] — the vector the model's own
  // readout consumes. Models are free to use any of x / mask / delta.
  // Logically const and safe to call concurrently: all per-call state
  // (train/eval mode, the dropout RNG stream, captured interpretation
  // surfaces) lives in `ctx`, which the caller owns — one context per
  // thread. `ctx` is never null.
  virtual ag::Variable EncodeTerminal(const data::Batch& batch,
                                      nn::ForwardContext* ctx) const = 0;

  // Maps representation rows [N, encoding_dim()] to pre-sigmoid risk logits
  // [N]. Every implementation is row-independent (strict-k GEMM, per-row
  // softmax), so scoring rows in any batching produces identical floats.
  virtual ag::Variable Readout(const ag::Variable& rep,
                               nn::ForwardContext* ctx) const = 0;

  // Width of the representation rows EncodeTerminal/EncodeSteps produce.
  virtual int64_t encoding_dim() const = 0;

  // Per-step representations [B, T, H]: entry (b, t) is EncodeTerminal over
  // the prefix [0, t] of row b, so Readout over it is the model's rolling
  // risk — the decompensation workload. Steps below min_steps_to_score()
  // hold quiet-NaN rows. The base implementation replays each prefix through
  // EncodeTerminal (correct for every model, O(T) forwards, O(T^2) steps)
  // and is the oracle overrides are tested against bitwise. GRU and GRU-D
  // override it with one causal sweep, ELDA-Net with a packed sweep per
  // never-observed segment (its V_m embedding is not causal). Only valid
  // when has_step_encoding() is true.
  virtual ag::Variable EncodeSteps(const data::Batch& batch,
                                   nn::ForwardContext* ctx) const;

  // False for models with no natural per-step state (LR / FM / AFM collapse
  // time before encoding); they expose a terminal-only encoding and
  // EncodeSteps CHECK-fails.
  virtual bool has_step_encoding() const { return true; }

  // Bundles the terminal (and optionally per-step) encodings.
  Encoding Encode(const data::Batch& batch, nn::ForwardContext* ctx,
                  bool want_steps = false) const {
    Encoding enc;
    enc.terminal = EncodeTerminal(batch, ctx);
    if (want_steps) enc.steps = EncodeSteps(batch, ctx);
    return enc;
  }

  // Pre-sigmoid risk logits [B] for a batch: the legacy monolithic-classifier
  // entry point, now the fixed composition Readout(EncodeTerminal(.)). Each
  // model's split preserves its pre-decomposition op sequence exactly, so
  // this is bitwise-identical to the former virtual Forward.
  ag::Variable Forward(const data::Batch& batch, nn::ForwardContext* ctx) const {
    return Readout(EncodeTerminal(batch, ctx), ctx);
  }

  // Convenience overload: inference-mode forward (dropout off, nothing
  // captured). Note this fixes the mode regardless of Module::training();
  // training runs must pass an explicit context.
  ag::Variable Forward(const data::Batch& batch) const {
    nn::ForwardContext ctx;
    return Forward(batch, &ctx);
  }

  // Display name used in benchmark tables ("GRU-D", "ELDA-Net", ...).
  virtual std::string name() const = 0;

  // -- Step-level inference (the serving path; see DESIGN.md) ---------------
  //
  // A streaming client admits one StepState per live sequence and calls
  // StepForward once per new observation instead of replaying the whole
  // window through Forward. Models with a causal recurrence override these
  // with resident-state implementations doing O(1) work per observation;
  // the base-class default keeps a bounded rolling window of raw
  // observations and replays it, which is correct for every model but O(T)
  // per step.

  // Allocates the resident state for one sequence. `window_capacity` bounds
  // any history the state retains (raw-observation windows for replay
  // models, hidden-state histories for attention scoring); purely
  // incremental states ignore it. Once a stay outruns the capacity the
  // oldest steps are evicted and scores follow the retained suffix window.
  //
  // Every concrete state implements nn::StepState::Save/Load, so a state
  // serialized mid-stream and loaded into a fresh MakeStepState allocation
  // (same model, same window_capacity) continues scoring bitwise-identically
  // — the contract the serving layer's session checkpoint/restore builds on.
  virtual std::unique_ptr<nn::StepState> MakeStepState(
      int64_t window_capacity) const;

  // Advances each of the B sequences by one observation (row b of `obs`
  // belongs to states[b], which must come from this model's MakeStepState)
  // and returns pre-sigmoid risk logits [B]. Because every kernel on the
  // inference path computes output rows independently (strict-k GEMM,
  // elementwise gate math, per-row softmax), row b is bitwise identical to
  // Forward() over the window states[b] has seen, regardless of how
  // sequences are batched together. Sequences with fewer than
  // min_steps_to_score() observations get a quiet-NaN logit but still
  // advance. Inference-only: call under ag::NoGradScope; the returned
  // variable is detached (no tape).
  virtual ag::Variable StepForward(const StepBatch& obs,
                                   const std::vector<nn::StepState*>& states,
                                   nn::ForwardContext* ctx) const;

  // True when StepForward advances resident recurrent state in O(1) per
  // observation; false when it replays the bounded rolling window (the
  // base-class default).
  virtual bool has_incremental_step() const { return false; }

  // Fewest observations before the model can score a window at all (e.g.
  // StageNet's conv kernel, attention modules needing two steps).
  virtual int64_t min_steps_to_score() const { return 1; }

 private:
  int64_t num_features_;
};

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_SEQUENCE_MODEL_H_
