#include "nn/step_state.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace elda {
namespace nn {

StepState::~StepState() = default;

void StepState::Save(util::ByteWriter* writer) const {
  writer->Put(steps_seen);
}

bool StepState::Load(util::ByteReader* reader) {
  return reader->Get(&steps_seen);
}

RollingWindow::RollingWindow(int64_t capacity, int64_t width)
    : capacity_(capacity), width_(width) {
  ELDA_CHECK_GE(capacity, 1);
  ELDA_CHECK_GE(width, 1);
}

void RollingWindow::Append(const float* row, int64_t width) {
  ELDA_CHECK_EQ(width, width_);
  if (data_.empty()) data_.resize(static_cast<size_t>(capacity_ * width_));
  const int64_t slot =
      size_ < capacity_ ? (start_ + size_) % capacity_ : start_;
  std::memcpy(data_.data() + slot * width_, row,
              static_cast<size_t>(width_) * sizeof(float));
  if (size_ < capacity_) {
    ++size_;
  } else {
    start_ = (start_ + 1) % capacity_;  // evicted the oldest row
  }
}

const float* RollingWindow::row(int64_t i) const {
  ELDA_CHECK_GE(i, 0);
  ELDA_CHECK_LT(i, size_);
  return data_.data() + ((start_ + i) % capacity_) * width_;
}

void RollingWindow::CopyInto(float* dst) const {
  for (int64_t i = 0; i < size_; ++i) {
    std::memcpy(dst + i * width_, row(i),
                static_cast<size_t>(width_) * sizeof(float));
  }
}

Tensor RollingWindow::Materialize() const {
  Tensor out = Tensor::Empty({size_, width_});
  if (size_ > 0) CopyInto(out.data());
  return out;
}

void RollingWindow::Clear() {
  start_ = 0;
  size_ = 0;
}

void PutTensorData(util::ByteWriter* writer, const Tensor& tensor) {
  writer->Put<int64_t>(tensor.size());
  writer->PutArray(tensor.data(), static_cast<size_t>(tensor.size()));
}

bool GetTensorData(util::ByteReader* reader, Tensor* tensor) {
  int64_t count = 0;
  if (!reader->Get(&count)) return false;
  if (count != tensor->size()) return reader->Poison();
  return reader->GetArray(tensor->data(), static_cast<size_t>(count));
}

void PutWindow(util::ByteWriter* writer, const RollingWindow& window) {
  writer->Put<int64_t>(window.data_.empty() ? 0 : window.width());
  writer->Put<int64_t>(window.size());
  for (int64_t i = 0; i < window.size(); ++i) {
    writer->PutArray(window.row(i), static_cast<size_t>(window.width()));
  }
}

bool GetWindow(util::ByteReader* reader, RollingWindow* window) {
  int64_t width = 0;
  int64_t size = 0;
  if (!reader->Get(&width) || !reader->Get(&size)) return false;
  if ((width != window->width() && !(width == 0 && size == 0)) || size < 0 ||
      size > window->capacity()) {
    return reader->Poison();
  }
  window->Clear();
  if (size == 0) return true;
  const size_t row_bytes = static_cast<size_t>(width) * sizeof(float);
  const char* rows = reader->Take(static_cast<size_t>(size), row_bytes);
  if (rows == nullptr) return false;
  std::vector<float> row(static_cast<size_t>(width));
  for (int64_t i = 0; i < size; ++i) {
    std::memcpy(row.data(), rows + i * row_bytes, row_bytes);
    window->Append(row.data(), width);
  }
  return true;
}

}  // namespace nn
}  // namespace elda
