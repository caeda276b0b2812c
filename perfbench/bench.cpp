#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

// ---- Samples ---------------------------------------------------------------

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

std::vector<double> Samples::sorted() const {
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  return s;
}

double Samples::median() const {
  if (v_.empty()) return 0.0;
  const std::vector<double> s = sorted();
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

namespace {
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}
}  // namespace

std::size_t Samples::beyond(double q) const {
  if (v_.empty()) return 0;
  return v_.size() - 1 - rank_index(v_.size(), q);
}

std::optional<double> Samples::percentile(double q) const {
  if (beyond(q) < 10) return std::nullopt;
  return sorted()[rank_index(v_.size(), q)];
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, std::string name, int parent)
    : t_(t), name_(std::move(name)), parent_(parent) {
  if (t_.enabled_) id_ = t_.reserve();
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (t_.enabled_) t_.close(id_, std::move(name_), parent_, start_);
}

int Tracer::reserve() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.emplace_back();
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, std::string name, int parent, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.name = std::move(name);
  s.parent = parent;
  s.start = std::chrono::duration<double>(start - t0_).count();
  s.end = std::chrono::duration<double>(end - t0_).count();
}

double Tracer::total(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end - s.start;
  return t;
}

std::size_t Tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t c = 0;
  for (const Span& s : spans_) c += s.name == name ? 1 : 0;
  return c;
}

double Tracer::total_prefix(const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name.compare(0, prefix.size(), prefix) == 0) t += s.end - s.start;
  return t;
}

void Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << fmt(s.start)
        << ",\"end\":" << fmt(s.end) << ",\"parent\":" << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---- Report ----------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples, bool json) {
  std::printf("metric %s %s %s n=%zu\n", name.c_str(), fmt(value).c_str(), unit.c_str(),
              samples);
  if (json) json_.push_back({name, value, unit});
}

void Report::percentile(const std::string& name, const Samples& s, double q,
                        double scale, const std::string& unit) {
  if (const auto p = s.percentile(q)) {
    std::printf("metric %s %s %s n=%zu beyond=%zu\n", name.c_str(), fmt(*p * scale).c_str(),
                unit.c_str(), s.size(), s.beyond(q));
  } else {
    std::printf("metric %s omitted n=%zu beyond=%zu (needs 10 beyond)\n", name.c_str(),
                s.size(), s.beyond(q));
  }
}

void Report::note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("# CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::mismatch(const std::string& what) {
  correct_ = false;
  std::printf("# DETERMINISM MISMATCH: %s\n", what.c_str());
}

std::string Report::json_line() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < json_.size(); ++i) {
    const Entry& e = json_[i];
    out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << fmt(e.value)
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---- process ---------------------------------------------------------------

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
