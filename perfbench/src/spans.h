// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's side of the call: name, start, end and the span that
// caused it. Spans stay in memory and are written once, at the end,
// with each span's self time — its duration minus the part of its
// interval that its children cover. Start and end are CLOCK_MONOTONIC
// seconds, a clock shared by every process on the host, so a forked
// node can time itself and the parent files the span afterwards.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds.
double mono_s();

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span now; returns its id (close it with close()).
  int open(const std::string& name, int parent = kNoParent);
  void close(int id);
  /// Files a span timed elsewhere (another thread or process).
  int add(const std::string& name, int parent, double start_s, double end_s);

  /// Writes {"spans":[...], "by_name":{...}} to `path`. Spans are listed
  /// up to `max_listed` (the per-name totals always cover all of them).
  void write_json(const std::string& path, std::size_t max_listed) const;

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    double start = 0;
    double end = -1;  ///< < start while open
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced path).
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->open(name, parent) : SpanLog::kNoParent) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
