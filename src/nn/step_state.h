// Resident per-sequence state for step-level (streaming) inference.
//
// A StepState is the opaque memory one live sequence carries between
// observations: recurrent hidden vectors for models with an O(1) step,
// bounded rolling windows of raw observations for models that can only
// score a whole window. Each model allocates its own concrete state via
// train::SequenceModel::MakeStepState() and advances it in StepForward();
// callers (the serve session table, tests, benches) treat it as a black
// box with a step counter.
//
// Every concrete state also knows how to serialize itself: Save writes
// through the shared util::ByteWriter and Load reads through the
// bounds-checked util::ByteReader (util/byte_codec.h), with the tensor and
// window helpers below for the shapes states carry. That is what makes the
// serving layer's session checkpoint/restore possible: a state written by
// Save and read back by Load into a fresh MakeStepState allocation carries
// bitwise the same tensors, rings, and counters, so post-restore
// StepForward calls score exactly as the uninterrupted stream would have.
// Load trusts nothing in the payload: every count and width is checked
// against the allocation MakeStepState made before a byte is copied.

#ifndef ELDA_NN_STEP_STATE_H_
#define ELDA_NN_STEP_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/byte_codec.h"

namespace elda {
namespace nn {

// Bounded chronological ring buffer of fixed-width float rows — the storage
// behind every windowed StepState (raw-observation windows for replay
// models, hidden-state histories for attention scoring). Appending beyond
// `capacity` evicts the oldest row, so resident memory is O(capacity) no
// matter how long the stay runs. The row width is fixed at construction;
// the ring's storage is allocated by the first Append.
class RollingWindow {
 public:
  RollingWindow(int64_t capacity, int64_t width);

  // Copies `width` floats, which must equal width(). Evicts the oldest row
  // when full.
  void Append(const float* row, int64_t width);

  int64_t size() const { return size_; }
  int64_t capacity() const { return capacity_; }
  int64_t width() const { return width_; }

  // Row i in chronological order (0 = oldest retained).
  const float* row(int64_t i) const;

  // Copies all retained rows, oldest first, into dst (size()*width()
  // floats) — the layout of one [T, width] slab of a batch tensor.
  void CopyInto(float* dst) const;

  // The retained window as a fresh [size, width] tensor.
  Tensor Materialize() const;

  void Clear();

 private:
  friend void PutWindow(util::ByteWriter* writer, const RollingWindow& window);

  int64_t capacity_;
  int64_t width_;
  int64_t start_ = 0;  // ring index of the oldest row
  int64_t size_ = 0;
  std::vector<float> data_;  // capacity * width floats after the first Append
};

// State payload helpers over the shared byte codec. Floats are copied
// bit for bit, so a Save/Load round trip cannot perturb any score.
//
// Tensor data: element count (int64), then the raw floats. Shapes are
// implied by the model's MakeStepState allocation, so only the flat data
// travels; GetTensorData fails unless the stored count equals
// tensor->size().
void PutTensorData(util::ByteWriter* writer, const Tensor& tensor);
bool GetTensorData(util::ByteReader* reader, Tensor* tensor);

// Window: width (int64; 0 for a window that never held a row), retained
// row count (int64), then the rows in chronological order. The ring's
// rotation is not persisted — a restored window holds the same rows from
// slot 0, which behaves identically. GetWindow rejects a width other than
// window->width() (0 is accepted for an empty window) and a row count
// above the capacity or the bytes remaining, before anything is copied.
void PutWindow(util::ByteWriter* writer, const RollingWindow& window);
bool GetWindow(util::ByteReader* reader, RollingWindow* window);

// Base class for model-specific streaming state. Polymorphic so model
// implementations can downcast to their own concrete type (checked).
struct StepState {
  virtual ~StepState();

  // Serializes everything the state carries. Concrete states must override
  // both Save and Load together and call the base implementation first
  // (it persists `steps_seen`).
  virtual void Save(util::ByteWriter* writer) const;

  // Restores from a Save payload into a state freshly allocated by the
  // same model's MakeStepState with the same window capacity. Returns
  // false on truncated or mismatched input, leaving the state unusable —
  // callers must discard it (the serve layer quarantines the session).
  virtual bool Load(util::ByteReader* reader);

  // Observations consumed so far, maintained by StepForward.
  int64_t steps_seen = 0;
};

}  // namespace nn
}  // namespace elda

#endif  // ELDA_NN_STEP_STATE_H_
