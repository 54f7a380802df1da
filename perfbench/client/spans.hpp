// In-memory span log of the traced run.
//
// The client wraps every call it makes into a layer (parse, session
// caches, kernel, evaluate, format) in a ScopedSpan. A span records its
// name, start, end, parent span and operation id; spans stay in memory
// and are written out once, when the run ends. A layer's self time is
// its span's duration minus the time its direct children cover — the
// client is single-threaded, so children never overlap each other.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the log; -1 = root
  std::int64_t op = -1;      ///< operation the span belongs to
};

/// Per-name totals over a whole log.
struct SpanTotals {
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t count = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {
    spans_.reserve(1 << 16);
  }

  void set_op(std::int64_t op) { op_ = op; }

  std::int32_t open(const char* name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, current_, op_});
    current_ = index;
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  std::map<std::string, SpanTotals> totals() const {
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      SpanTotals& total = out[spans_[i].name];
      total.inclusive_ms += static_cast<double>(duration) * 1e-6;
      total.self_ms += static_cast<double>(duration - covered[i]) * 1e-6;
      ++total.count;
    }
    return out;
  }

  /// One JSON object per line: {"name", "start_ns", "end_ns", "parent",
  /// "op"} with parent the line index of the parent span (-1 = root).
  void write_jsonl(std::ostream& out) const {
    for (const Span& span : spans_) {
      out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
          << span.start_ns << ", \"end_ns\": " << span.end_ns
          << ", \"parent\": " << span.parent << ", \"op\": " << span.op
          << "}\n";
    }
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::int64_t op_ = -1;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
