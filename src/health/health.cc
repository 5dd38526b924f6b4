#include "health/health.h"

#include <cmath>
#include <cstdlib>

#include "util/byte_codec.h"
#include "util/logging.h"

namespace elda {
namespace health {

const char* TrainStatusName(TrainStatus status) {
  switch (status) {
    case TrainStatus::kOk: return "ok";
    case TrainStatus::kRecovered: return "recovered";
    case TrainStatus::kAborted: return "aborted";
    case TrainStatus::kEmptyTrainSplit: return "empty-train-split";
    case TrainStatus::kCheckpointError: return "checkpoint-error";
  }
  return "unknown";
}

const char* StepVerdictName(StepVerdict verdict) {
  switch (verdict) {
    case StepVerdict::kHealthy: return "healthy";
    case StepVerdict::kNonFinite: return "non-finite";
    case StepVerdict::kLossExplosion: return "loss-explosion";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {
  ELDA_CHECK_GT(config_.loss_window, 0);
}

StepVerdict HealthMonitor::Check(double loss, double grad_norm) const {
  if (!std::isfinite(loss) || !std::isfinite(grad_norm)) {
    return StepVerdict::kNonFinite;
  }
  if (config_.loss_explosion_factor > 0.0 && observed_ > 0) {
    const double mean =
        window_sum_ / static_cast<double>(window_.size());
    if (loss > config_.loss_explosion_factor * mean) {
      return StepVerdict::kLossExplosion;
    }
  }
  return StepVerdict::kHealthy;
}

void HealthMonitor::Observe(double loss) {
  if (static_cast<int64_t>(window_.size()) < config_.loss_window) {
    window_.push_back(loss);
  } else {
    const size_t slot =
        static_cast<size_t>(observed_ % config_.loss_window);
    window_sum_ -= window_[slot];
    window_[slot] = loss;
  }
  window_sum_ += loss;
  ++observed_;
}

void HealthMonitor::Reset() {
  window_.clear();
  window_sum_ = 0.0;
  observed_ = 0;
}

bool FaultPlan::Any() const {
  return poison_grad_at_step >= 0 || fail_write_at >= 0 ||
         truncate_write_at >= 0 || flip_byte_write_at >= 0 ||
         drop_snapshot_at >= 0 || poison_state_at >= 0 ||
         slow_worker_index >= 0;
}

namespace {

bool ParseIndex(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *value = std::atoll(text.c_str());
  return true;
}

}  // namespace

bool FaultPlan::Parse(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  *plan = FaultPlan();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(",;", pos);
    if (end == std::string::npos) end = spec.size();
    const std::string term = spec.substr(pos, end - pos);
    pos = end + 1;
    if (term.empty()) continue;
    const size_t at = term.find('@');
    if (at == std::string::npos) {
      return util::Fail(error,
                        "fault term '" + term + "' is missing '@index'");
    }
    const std::string name = term.substr(0, at);
    std::string index_text = term.substr(at + 1);
    int64_t offset = -1;
    const size_t colon = index_text.find(':');
    if (colon != std::string::npos) {
      if ((name != "flip_byte" && name != "slow_worker") ||
          !ParseIndex(index_text.substr(colon + 1), &offset)) {
        return util::Fail(error, "bad fault term '" + term + "'");
      }
      index_text = index_text.substr(0, colon);
    }
    int64_t index = -1;
    if (!ParseIndex(index_text, &index)) {
      return util::Fail(error, "bad index in fault term '" + term + "'");
    }
    if (name == "poison_grad") {
      plan->poison_grad_at_step = index;
    } else if (name == "fail_write") {
      plan->fail_write_at = index;
    } else if (name == "truncate_write") {
      plan->truncate_write_at = index;
    } else if (name == "flip_byte") {
      plan->flip_byte_write_at = index;
      if (offset >= 0) plan->flip_byte_offset = offset;
    } else if (name == "drop_snapshot") {
      plan->drop_snapshot_at = index;
    } else if (name == "poison_state") {
      plan->poison_state_at = index;
    } else if (name == "slow_worker") {
      plan->slow_worker_index = index;
      if (offset >= 0) plan->slow_worker_delay_us = offset;
    } else {
      return util::Fail(error, "unknown fault '" + name + "'");
    }
  }
  return true;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  armed_ = true;
  poison_fired_ = false;
  poison_state_fired_ = false;
  write_count_ = 0;
  snapshot_count_ = 0;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = FaultPlan();
  armed_ = false;
  poison_fired_ = false;
  poison_state_fired_ = false;
  write_count_ = 0;
  snapshot_count_ = 0;
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

bool FaultInjector::ConsumePoisonGrad(int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || poison_fired_ || plan_.poison_grad_at_step < 0 ||
      step != plan_.poison_grad_at_step) {
    return false;
  }
  poison_fired_ = true;
  return true;
}

WriteFault FaultInjector::NextWriteFault(int64_t* flip_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t write = write_count_++;
  if (!armed_) return WriteFault::kNone;
  if (write == plan_.fail_write_at) return WriteFault::kFail;
  if (write == plan_.truncate_write_at) return WriteFault::kTruncate;
  if (write == plan_.flip_byte_write_at) {
    if (flip_offset != nullptr) *flip_offset = plan_.flip_byte_offset;
    return WriteFault::kFlipByte;
  }
  return WriteFault::kNone;
}

int64_t FaultInjector::writes_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_count_;
}

bool FaultInjector::ConsumeDropSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t snapshot = snapshot_count_++;
  return armed_ && snapshot == plan_.drop_snapshot_at;
}

bool FaultInjector::ConsumePoisonState(int64_t record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || poison_state_fired_ || plan_.poison_state_at < 0 ||
      record != plan_.poison_state_at) {
    return false;
  }
  poison_state_fired_ = true;
  return true;
}

int64_t FaultInjector::SlowWorkerDelayUs(int64_t worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || plan_.slow_worker_index < 0 ||
      worker != plan_.slow_worker_index) {
    return 0;
  }
  return plan_.slow_worker_delay_us;
}

int64_t FaultInjector::snapshots_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_count_;
}

FaultInjector* GlobalFaultInjector() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    if (const char* spec = std::getenv("ELDA_FAULT_PLAN");
        spec != nullptr && spec[0] != '\0') {
      FaultPlan plan;
      std::string error;
      ELDA_CHECK(FaultPlan::Parse(spec, &plan, &error))
          << "ELDA_FAULT_PLAN:" << error;
      inj->Arm(plan);
    }
    return inj;
  }();
  return injector;
}

}  // namespace health
}  // namespace elda
