#include "spans.h"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "metric_math.h"
#include "sweep/bench_json.h"

namespace perfbench {

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanLog::open(const std::string& name, int parent) {
  const double now = mono_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, now, now - 1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double now = mono_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int SpanLog::add(const std::string& name, int parent, double start_s,
                 double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, start_s, end_s});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write_json(const std::string& path,
                         std::size_t max_listed) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = spans_.size();
  // Self time: duration minus the union of the children's intervals,
  // clipped to the parent's (children may overlap: node lives run in
  // parallel under one cluster span).
  std::vector<std::vector<std::pair<double, double>>> kids(n);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= s.start) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }

  const double t0 = n == 0 ? 0 : spans_.front().start;
  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("spans_total").value(static_cast<std::uint64_t>(n));
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < n && i < max_listed; ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("name").value(s.name);
    w.key("start_ms").value((s.start - t0) * 1e3);
    w.key("dur_ms").value((s.end - s.start) * 1e3);
    w.key("self_ms").value(self[i] * 1e3);
    w.end_object();
  }
  w.end_array();
  struct Agg {
    std::vector<double> dur_ms;
    double self_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    Agg& a = by_name[s.name];
    a.dur_ms.push_back((s.end - s.start) * 1e3);
    a.self_ms += self[i] * 1e3;
  }
  w.key("by_name").begin_object();
  for (auto& [name, a] : by_name) {
    double total = 0;
    for (const double d : a.dur_ms) total += d;
    const auto q = quartiles(a.dur_ms);
    w.key(name).begin_object();
    w.key("count").value(static_cast<std::uint64_t>(a.dur_ms.size()));
    w.key("total_ms").value(total);
    w.key("self_ms").value(a.self_ms);
    w.key("q1_ms").value(q[0]);
    w.key("median_ms").value(q[1]);
    w.key("q3_ms").value(q[2]);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream(path) << w.str() << "\n";
}

}  // namespace perfbench
