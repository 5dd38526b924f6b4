// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into one of the
// repository's layers (data, train, core, autograd, optim, health, serve,
// model). Spans nest by call order on the recording thread; each records its
// name, start, end, parent span and the request it belongs to. Nothing is
// written while the benchmark runs: spans stay in a preallocated vector and
// are aggregated (and optionally dumped as Chrome trace events) at the end.
//
// A layer's self time is its span's duration minus the part its child spans
// cover. Children of one span run on the same thread and never overlap, so
// the covered part is the sum of the children's durations.
//
// Tracing is off unless SetEnabled(true); a disabled Span costs one branch.
// Spans are recorded from one thread only (the benchmark's driving thread).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal, stable for the run
  int32_t parent = -1;         // index of the enclosing span, -1 at top
  int64_t request = -1;        // request id shared by one request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Aggregate of every span with one name path ("a/b/c").
struct SpanStat {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int32_t Open(const char* name, int64_t request);
  void Close(int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }
  void Clear();

  // Aggregates by name path, e.g. "fit.step/train.encode".
  std::map<std::string, SpanStat> Aggregate() const;

  // Chrome trace-event JSON ("X" events); at most `max_spans` spans.
  bool WriteChromeTrace(const std::string& path, int64_t max_spans) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  Tracer();

  static constexpr int64_t kMaxSpans = int64_t{1} << 22;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  int32_t current_ = -1;  // innermost open span
  int64_t dropped_ = 0;
};

// RAII span; records nothing while tracing is off.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Open(name, request)
                                       : -2) {}
  ~Span() {
    if (index_ != -2) Tracer::Get().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

// Renders the nested per-layer table: one row per name path with count,
// total and self time, plus an explicit "(unattributed)" row under every
// parent holding the parent's self time.
std::string FormatLayerTable(const std::map<std::string, SpanStat>& stats);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
