// Measurement plumbing shared by the benchmark's workloads: the clock,
// quantiles, the round/quantile selection rule, memory high-water marks,
// the in-memory span recorder, and the result document.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (numpy's default) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// The per-run value of a cost measured over many rounds.  Each round
/// repeats identical work from fresh state, so rounds differ only in the
/// state of the host; a low quantile across them tracks the host's quiet
/// phases instead of how much of the run a noisy neighbour overlapped
/// (README.md, "Rounds and the fast-state quantile").
inline constexpr double kFastQuantile = 0.05;
[[nodiscard]] inline double fast_state(const std::vector<double>& costs) {
  return quantile(costs, kFastQuantile);
}

/// The CPUs the process may run on, for pinning the calling thread.  On
/// the shared host this benchmark was built on, each virtual CPU slows by
/// up to ~1.8x for seconds at a time, independently of the others; timed
/// rounds therefore rotate over all CPUs, so the fast-state quantile finds
/// the rounds that ran on a quiet one (README.md).
class Cpus {
 public:
  Cpus();
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }
  /// Pins the calling thread to the k-th allowed CPU (mod size()).
  void pin(std::size_t k) const;
  /// Pins the calling thread to the allowed CPUs k, k+1, ..., k+n-1.
  void pin_range(std::size_t k, std::size_t n) const;
  /// Lets the calling thread run on every allowed CPU again.
  void unpin() const;

 private:
  std::vector<std::size_t> cpus_;
};

/// A latency population summarised the way the report states tails: the
/// median, and the highest of p99.9/p99/p95/p90/p75 that still has at least
/// ten samples beyond it.
struct Tail {
  double p50 = 0;
  double p99 = 0;
  double tail = 0;
  double tail_pct = 50;
  std::uint64_t n = 0;
};
[[nodiscard]] Tail summarize(const std::vector<double>& samples);

/// Resident-memory high-water mark of the process, relative to the moment
/// of the last reset.  The reset returns freed heap to the kernel and
/// clears the kernel's peak (/proc/self/clear_refs), so memory the
/// benchmark already holds (its generated inputs) is the baseline, not
/// part of the figure.  Without clear_refs the peak falls back to the
/// largest resident size seen by sample().
class PeakMemory {
 public:
  void reset();
  void sample();
  [[nodiscard]] double peak_mb();

 private:
  std::int64_t baseline_kb_ = 0;
  std::int64_t sampled_kb_ = 0;
  bool kernel_peak_ = false;
};

/// In-memory spans recorded around calls into the program, written out as
/// a Chrome trace-event document when the run ends.  Each span has a name,
/// start and end, the recording thread, and the span that caused it (0 for
/// none).  Thread-safe; the hot paths record per round, per tenant or per
/// phase, never per event.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Records one span and returns its id (0 when tracing is off).  A span
  /// whose end is not known yet is recorded with end == start and given
  /// its end by close().
  std::uint32_t span(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint32_t parent = 0,
                     std::uint32_t thread = 0);
  void close(std::uint32_t id, std::int64_t end_ns);
  [[nodiscard]] std::size_t size() const;
  /// Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint32_t thread;
  };
  bool on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Ordered JSON object builder for the report and result lines.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& u64(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, std::string json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_string(const std::string& text);
[[nodiscard]] std::string json_number(double value);
/// `value` as 16 hex digits (input digests).
[[nodiscard]] std::string hex(std::uint64_t value);

/// The end-to-end metrics every workload reports (BENCHMARK.json).
struct EndToEnd {
  double setup_s = 0;
  double events_per_s = 0;
  double term_p50_us = 0;
  double ingest_p50_us = 0;
  double rss_peak_mb = 0;
};

/// Everything one measurement pass of a workload produces.
struct Pass {
  EndToEnd e2e;
  /// Per-layer metrics by name (BENCHMARK.json per_layer; missing names
  /// are reported as 0, i.e. the workload does not exercise that layer).
  std::map<std::string, double> layer;
  /// Work done by one round of the workload; identical for a given seed.
  std::map<std::string, std::uint64_t> work;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the report
  Json populations;                   ///< traced tails (Tail per population)
  Json notes;                         ///< flags and workload constants

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
};

[[nodiscard]] std::string tail_json(const Tail& tail, const char* unit);

}  // namespace perfbench
