// Search-telemetry observability layer (the substrate behind the paper's
// §V per-arrival latency methodology).
//
// Three instrument kinds behind a named Registry:
//
//  * Counter   — monotonically increasing 64-bit count (relaxed atomic
//    add; lock-free).  The intended discipline is single-writer — each
//    instrument is owned by one thread, matching the matcher's
//    single-owner contract — but concurrent writers are still safe, just
//    contended.
//  * Gauge     — a settable signed value (queue depth, resident bytes).
//  * Histogram — log-bucketed value distribution: exact below 8, then
//    four sub-buckets per power of two (<= 25% relative quantile error),
//    with exact count/sum/min/max on the side.  Recording is wait-free:
//    one relaxed fetch_add plus two bounded CAS loops for the extremes.
//
// Instruments are created through the Registry (creation takes a mutex —
// cold path only; do it before other threads record) and are address-stable
// for the registry's lifetime, so hot paths hold plain pointers and pay
// one predictable branch when metrics are off.
//
// Export: to_text (human), to_json (stable, sorted keys — the format
// `ocep_inspect --metrics-format json` prints and tests consume),
// to_prometheus (text exposition format; histograms become summaries with
// quantile labels).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ocep::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time quantile summary of a histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
};

class Histogram {
 public:
  /// Values 0..7 get exact buckets; larger values land in one of four
  /// sub-buckets per power of two: 8 + 61 * 4 buckets total.
  static constexpr std::size_t kBuckets = 8 + 61 * 4;

  void record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Approximate quantile (q in [0, 1]) interpolated within the bucket
  /// holding the rank; exact for values below 8, <= 25% relative error
  /// above.  Returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Folds another histogram's samples into this one, bucket by bucket
  /// (relaxed atomic reads of `other`, so merging while writers are
  /// recording yields a consistent-enough point-in-time view).  Quantiles
  /// of the merge are exact at the bucket resolution — the same <= 25%
  /// relative error as recording directly.
  void merge_from(const Histogram& other) noexcept;

  /// Bucket arithmetic, exposed for tests.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t bucket) noexcept;
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t bucket) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

/// Named instrument directory.  Keys are `name` plus optional Prometheus
/// label pairs (`pattern="3"`); the canonical key string is
/// `name{labels}`.  Lookup-or-create is mutex-guarded and idempotent;
/// returned references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view labels = {},
                   std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {},
               std::string_view help = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {},
                       std::string_view help = {});

  /// Folds every instrument of `other` into this registry: counters and
  /// gauges add their current value, histograms merge bucket-wise.
  /// Instruments missing here are created.  Safe while writers are still
  /// recording into `other` (values are read relaxed); the two registries
  /// must be distinct objects.  The shard → admin-plane aggregation path:
  /// each reactor shard owns a private registry and the admin plane merges
  /// them into a scratch registry per scrape.
  void merge_from(const Registry& other);

  /// Value of the counter with the exact canonical key (`name{labels}`),
  /// or 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view key) const;

  /// All counters as (canonical key, value), sorted by key.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;

  /// Human-readable dump, one instrument per line, sorted by key.
  void to_text(std::ostream& out) const;
  [[nodiscard]] std::string to_text() const;

  /// Stable JSON: {"counters": {...}, "gauges": {...}, "histograms":
  /// {key: {count, sum, min, max, p50, p90, p95, p99}}}, keys sorted.
  void to_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format.  Names are prefixed `ocep_` with
  /// dots replaced by underscores; histograms export as summaries.
  void to_prometheus(std::ostream& out) const;
  [[nodiscard]] std::string to_prometheus() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind = Kind::kCounter;
    std::string name;
    std::string labels;
    std::string help;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry& find_or_create(Kind kind, std::string_view name,
                        std::string_view labels, std::string_view help);

  mutable std::mutex mutex_;
  // Deques keep instrument addresses stable as the registry grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace ocep::obs
