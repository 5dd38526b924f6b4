#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

int32_t Tracer::Open(const char* name, int64_t request) {
  if (static_cast<int64_t>(spans_.size()) >= kMaxSpans) {
    ++dropped_;
    return -2;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, current_, request, NowNs(), 0});
  current_ = index;
  return index;
}

void Tracer::Close(int32_t index) {
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  current_ = span.parent;
}

void Tracer::Clear() {
  spans_.clear();
  current_ = -1;
  dropped_ = 0;
}

std::map<std::string, SpanStat> Tracer::Aggregate() const {
  const size_t n = spans_.size();
  std::vector<int64_t> child_ns(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  // Path ids: (parent path id, name) -> id, so each distinct path string is
  // built once however many spans share it.
  std::map<std::pair<int32_t, const char*>, int32_t> path_ids;
  std::vector<std::string> paths;
  std::vector<int32_t> span_path(n, -1);
  std::map<std::string, SpanStat> stats;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    const int32_t parent_path =
        s.parent >= 0 ? span_path[static_cast<size_t>(s.parent)] : -1;
    auto [it, inserted] = path_ids.try_emplace(
        {parent_path, s.name}, static_cast<int32_t>(paths.size()));
    if (inserted) {
      paths.push_back(parent_path >= 0
                          ? paths[static_cast<size_t>(parent_path)] + "/" +
                                s.name
                          : std::string(s.name));
    }
    span_path[i] = it->second;
    SpanStat& stat = stats[paths[static_cast<size_t>(it->second)]];
    const int64_t dur = s.end_ns - s.start_ns;
    ++stat.count;
    stat.total_ms += static_cast<double>(dur) * 1e-6;
    stat.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
  }
  return stats;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              int64_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t n =
      std::min<int64_t>(max_spans, static_cast<int64_t>(spans_.size()));
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  char line[256];
  for (int64_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[static_cast<size_t>(i)];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%d,\"request\":%lld}}\n",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(i), s.parent,
                  static_cast<long long>(s.request));
    out << line;
  }
  out << "],\"otherData\":{\"spans\":" << spans_.size()
      << ",\"written\":" << n << ",\"dropped\":" << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

std::string FormatLayerTable(const std::map<std::string, SpanStat>& stats) {
  // Depth-first order: sort on the path with '/' mapped below every other
  // character, so each parent directly precedes its own children; the
  // unattributed row is emitted after a parent's last child.
  std::vector<std::pair<std::string, const std::string*>> order;
  for (const auto& entry : stats) {
    std::string key = entry.first;
    std::replace(key.begin(), key.end(), '/', '\x01');
    order.emplace_back(std::move(key), &entry.first);
  }
  std::sort(order.begin(), order.end());

  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-58s %10s %12s %12s\n", "span",
                "count", "total ms", "self ms");
  out << line;
  auto is_child = [](const std::string& path, const std::string& parent) {
    return path.size() > parent.size() && path[parent.size()] == '/' &&
           path.compare(0, parent.size(), parent) == 0;
  };
  std::vector<std::pair<std::string, double>> open;  // parents awaiting rows
  auto close_until = [&](const std::string& next) {
    while (!open.empty() && !is_child(next, open.back().first)) {
      const std::string& parent = open.back().first;
      const int depth =
          static_cast<int>(std::count(parent.begin(), parent.end(), '/')) + 1;
      std::snprintf(line, sizeof(line), "%*s%-*s %10s %12s %12.3f\n",
                    2 * depth, "", 58 - 2 * depth, "(unattributed)", "", "",
                    open.back().second);
      out << line;
      open.pop_back();
    }
  };
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& path = *order[i].second;
    const SpanStat& stat = stats.at(path);
    close_until(path);
    const int depth =
        static_cast<int>(std::count(path.begin(), path.end(), '/'));
    const std::string leaf = path.substr(path.rfind('/') + 1);
    std::snprintf(line, sizeof(line), "%*s%-*s %10lld %12.3f %12.3f\n",
                  2 * depth, "", 58 - 2 * depth, leaf.c_str(),
                  static_cast<long long>(stat.count), stat.total_ms,
                  stat.self_ms);
    out << line;
    if (i + 1 < order.size() && is_child(*order[i + 1].second, path)) {
      open.emplace_back(path, stat.self_ms);
    }
  }
  close_until("");
  return out.str();
}

}  // namespace perfbench
