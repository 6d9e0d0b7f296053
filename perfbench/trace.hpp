#pragma once

// Span recorder and sample statistics for the repository benchmark.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (graph IO, program build, fact load, engine run, gather, oracle,
// serving calls); spans inside src/ are out of scope.  A root span is one
// operation (a setup, a query repetition, a serving step); children carry
// the root's span id as parent and the same operation id.  Spans stay in
// memory and are written once, when the run ends.
//
// Only one thread records at a time: the main thread opens a root span,
// then blocks in vmpi::run while rank 0 records the children, then closes
// the root after the ranks joined (thread start and join order the
// accesses).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  int parent = -1;        // index of the parent span, -1 for an operation root
  std::uint64_t op = 0;   // operation id shared by a root and its children
  double start = 0;       // seconds since the tracer was created
  double end = 0;
  [[nodiscard]] double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span; returns its id, or -1 while tracing is off.
  int begin(const std::string& name, int parent, std::uint64_t op) {
    if (!on_) return -1;
    spans_.push_back({name, parent, op, now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }

  /// Pause recording (the untraced half of a trace run's repetitions).
  void set_on(bool on) { on_ = on; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
    }
    return self;
  }

  /// One JSON object per line: name, id, parent, op, start, duration, self.
  void write(const std::string& path) const {
    std::ofstream out(path);
    const auto self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"id\": %zu, \"parent\": %d, \"op\": %llu, "
                    "\"start_s\": %.9f, \"dur_s\": %.9f, \"self_s\": %.9f}\n",
                    s.name.c_str(), i, s.parent, static_cast<unsigned long long>(s.op),
                    s.start, s.duration(), self[i]);
      out << line;
    }
  }

 private:
  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, int parent, std::uint64_t op)
      : tracer_(&t), id_(t.begin(name, parent, op)) {}
  ~SpanScope() { tracer_->end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank q-percentile's position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Indices of the samples taken while the hypervisor stole the least CPU
/// time: the half (at least 3, or all when fewer) with the lowest steal
/// share, in sample order.
inline std::vector<std::size_t> quietest_half(const std::vector<double>& steal_share) {
  std::vector<std::size_t> idx(steal_share.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return steal_share[a] < steal_share[b]; });
  idx.resize(std::min(idx.size(), std::max<std::size_t>(3, (idx.size() + 1) / 2)));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Median duration per span name over the operations in `ops` (all
/// operations when `ops` is empty).
inline std::map<std::string, double> median_by_name(const Tracer& t,
                                                    const std::vector<std::uint64_t>& ops) {
  std::map<std::string, std::vector<double>> by;
  for (const auto& s : t.spans()) {
    if (!ops.empty() && std::find(ops.begin(), ops.end(), s.op) == ops.end()) continue;
    by[s.name].push_back(s.duration());
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : by) out[name] = median(std::move(v));
  return out;
}

/// Median over root spans named `root` (and in `ops`, when given) of the
/// share of the root's duration that no child span covers.
inline double unattributed_share(const Tracer& t, const std::string& root,
                                 const std::vector<std::uint64_t>& ops) {
  const auto self = t.self_times();
  std::vector<double> shares;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const auto& s = t.spans()[i];
    if (s.parent >= 0 || s.name != root || s.duration() <= 0) continue;
    if (!ops.empty() && std::find(ops.begin(), ops.end(), s.op) == ops.end()) continue;
    shares.push_back(self[i] / s.duration());
  }
  return median(std::move(shares));
}

}  // namespace perfbench
