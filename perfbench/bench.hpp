#pragma once

// Shared plumbing of perfbench: run context, sample statistics
// with honest percentiles, the in-memory span recorder used by traced
// runs, and the metric report (human-readable lines plus the final JSON
// result line).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Raw samples of one quantity, summarized on read.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }
  [[nodiscard]] double median() const;
  /// Nearest-rank q-quantile, or nothing when fewer than 10 samples lie
  /// above it (a percentile resting on a handful of samples is noise).
  [[nodiscard]] std::optional<double> percentile(double q) const;
  /// Samples strictly above the nearest-rank q-quantile position.
  [[nodiscard]] std::size_t beyond(double q) const;

 private:
  [[nodiscard]] std::vector<double> sorted() const;
  std::vector<double> v_;
};

/// One recorded span: a call into a layer, timed on the caller's side.
struct Span {
  std::string name;  // "<level>.<call>", e.g. "L2.apply" or "L3.solver.solve"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;   // index of the enclosing span (the replay pass), -1 = none
};

/// In-memory span recorder. Disabled recorders cost one branch per scope;
/// spans are written out once, when the benchmark ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, std::string name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index this span will occupy once closed (for children's parent link).
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& t_;
    std::string name_;
    int parent_;
    int id_ = -1;
    Clock::time_point start_;
  };

  /// Summed duration (seconds) and count of spans with this exact name.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Summed duration of every span whose name starts with `prefix`.
  [[nodiscard]] double total_prefix(const std::string& prefix) const;

  void write_json(const std::string& path) const;

 private:
  int reserve();
  void close(int id, std::string name, int parent, Clock::time_point start);

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_ (client threads record concurrently)
  std::vector<Span> spans_;
};

/// Metric sink for one run: every metric is printed as a readable line
/// (`metric <name> <value> <unit> n=<samples>`); the ones named by
/// BENCHMARK.json for the run's mode also go into the final JSON line.
class Report {
 public:
  /// Record a metric. `json` selects it for the result line.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, bool json);
  /// A percentile metric: printed with its sample count, or as omitted
  /// when fewer than 10 samples lie beyond it. Never a JSON metric.
  void percentile(const std::string& name, const Samples& s, double q, double scale,
                  const std::string& unit);
  /// Free-form report line (prefixed with "# ").
  void note(const std::string& line);

  /// A correctness check: counts one attempt, and one failure when !ok.
  void check(bool ok, const std::string& what);
  /// Operations attempted / failed by the workload (commands, solves, ...).
  void attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A determinism violation: the run is marked incorrect.
  void mismatch(const std::string& what);

  [[nodiscard]] std::string json_line() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> json_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Run-wide settings parsed from the command line.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch for generated inputs, checkpoints, traces
};

/// Peak resident set size of this process, MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Exact-as-stored decimal rendering of a double (round-trips).
[[nodiscard]] std::string fmt(double v);

}  // namespace perfbench
