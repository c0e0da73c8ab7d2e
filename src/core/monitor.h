// Monitor facade: the OCEP client that connects to a POET-style event
// source (paper §V-A).
//
// A Monitor is an EventSink: hook it up as the simulator's live sink, as
// the target of replay(), or as the target of reload(), and it stores the
// incoming linearized event stream and matches any number of compiled
// patterns against it online.
//
//   StringPool pool;
//   Monitor monitor(pool);
//   monitor.add_pattern("A := ['', ping, '']; B := ['', recv_ping, ''];"
//                       "pattern := A -> B;");
//   sim.set_live_sink(&monitor);
//   sim.run();
//   monitor.matcher(0).subset().matches();  // representative subset
//
// The patterns share one history per event class (core/history_table.h):
// each arrival is appended once to every class that accepts it, then
// offered only to the patterns with a leaf that can accept its type
// (core/dispatch.h), in ascending pattern order; the others just count it
// (OcepMatcher::advance).  All of this runs on the delivery thread,
// inside on_event: one thread drives a Monitor, and when on_event returns
// every pattern has observed the event.  A daemon gets its parallelism
// from shards, one Monitor per tenant (net/shard.h).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "core/dispatch.h"
#include "core/governor.h"
#include "core/history_table.h"
#include "core/matcher.h"
#include "obs/metrics.h"
#include "poet/client.h"
#include "poet/event_store.h"

namespace ocep {

struct MonitorConfig {
  /// Collect search telemetry (src/obs/metrics.h) into a registry
  /// readable via Monitor::metrics().  Off by default: the hot paths
  /// then pay one predictable branch per event.
  bool metrics = false;
  /// Byte-accounted cap across the Monitor's leaf histories (including
  /// the keyed index), 0 = unbounded.  Past the cap the largest
  /// (history, trace) pair is spilled through the span sink, or evicted
  /// without one — counted as `history_evicted` coverage loss by every
  /// pattern reading the history — until the figure is back under half
  /// the cap (docs/GOVERNANCE.md).
  std::size_t history_bytes_limit = 0;
};

class Monitor final : public EventSink {
 public:
  /// `storage` selects the timestamp backend of the internal store
  /// (kSparse bounds memory on wide, long computations).
  explicit Monitor(StringPool& pool,
                   ClockStorage storage = ClockStorage::kDense)
      : Monitor(pool, MonitorConfig{}, storage) {}

  Monitor(StringPool& pool, const MonitorConfig& config,
          ClockStorage storage = ClockStorage::kDense);

  /// Compiles and registers a pattern.  Returns its index.  Patterns must
  /// be added before the first event arrives (enforced: aborts once
  /// events_seen() > 0).
  std::size_t add_pattern(std::string_view source, MatcherConfig config = {},
                          MatchCallback on_match = nullptr);

  void on_traces(const std::vector<Symbol>& names) override;
  void on_event(const Event& event, const VectorClock& clock) override;

  [[nodiscard]] const EventStore& store() const noexcept { return store_; }
  [[nodiscard]] StringPool& pool() const noexcept { return *pool_; }
  [[nodiscard]] const MonitorConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] std::size_t pattern_count() const noexcept {
    return matchers_.size();
  }
  [[nodiscard]] OcepMatcher& matcher(std::size_t i) {
    OCEP_ASSERT(i < matchers_.size());
    return *matchers_[i];
  }
  [[nodiscard]] const OcepMatcher& matcher(std::size_t i) const {
    OCEP_ASSERT(i < matchers_.size());
    return *matchers_[i];
  }

  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }

  /// Approximate bytes held by the shared leaf histories: what
  /// MonitorConfig::history_bytes_limit caps.
  [[nodiscard]] std::size_t history_bytes() const noexcept {
    return histories_.approx_bytes();
  }

  /// True once announce_traces() ran (or a restore supplied the table) —
  /// the earliest point checkpoint() is legal.
  [[nodiscard]] bool traces_known() const noexcept { return traces_known_; }

  /// Governance snapshot (docs/GOVERNANCE.md): per-pattern breaker state
  /// and budget/eviction counters, plus the ingestion-side stats when a
  /// source is attached.
  [[nodiscard]] HealthReport health() const;

  /// Attaches the ingestion-side counter source read into health().ingest
  /// — typically SessionClient::stats or Linearizer::ingest_stats.  The
  /// source must stay callable for the monitor's lifetime.
  void set_ingest_source(std::function<IngestStats()> source) {
    ingest_source_ = std::move(source);
  }

  /// Attaches the spill sink (core/span_sink.h) of the shared histories:
  /// a history's spans are keyed by the (pattern, leaf) that first
  /// declared its class.  Attach after add_pattern and before the first
  /// event or restore, nullptr detaches.  The sink must outlive the
  /// monitor or the next set_span_sink(nullptr).
  void set_span_sink(SpanSink* sink) { histories_.set_span_sink(sink); }

  /// Faults every spilled span back into RAM and releases it from the
  /// sink — after this no history references the sink's storage (used
  /// before tenant migration / sink teardown).
  void fault_all_spans();

  /// Enumerates every spilled span currently referenced, as (pattern,
  /// leaf, trace, seq) — the shard's rebuild path uses this to reconcile
  /// the store's span index with what a restored checkpoint actually
  /// references.
  void for_each_spilled(
      const std::function<void(std::uint32_t pattern, std::uint32_t leaf,
                               TraceId trace, std::uint64_t seq)>& fn) const {
    histories_.for_each_spilled(fn);
  }

  /// Serializes the monitor's full matching state — store contents, event
  /// watermark, the shared histories and every matcher's incremental
  /// state — as one "OCEPCKP6" frame (common/frame.h), so a torn write or
  /// flipped bit is detected on restore.  Layout in docs/ROBUSTNESS.md.
  void checkpoint(std::ostream& out);

  /// Restores a checkpoint, which must be all of `in`, into this monitor.
  /// Requires a fresh monitor (no traces announced, no events seen)
  /// constructed with the same configuration and with the same patterns
  /// added in the same order;
  /// throws SerializationError on a corrupt or mismatched checkpoint.
  /// Afterwards the monitor continues exactly where checkpoint() left
  /// off: feeding it the remaining suffix of the event stream yields the
  /// same matcher state as an uninterrupted run.
  void restore(std::istream& in);

  /// The telemetry registry (counters, latency histograms, store gauges).
  /// Requires MonitorConfig::metrics.  The store gauges are refreshed by
  /// every call, so they describe the store as of the read.
  [[nodiscard]] const obs::Registry& metrics() const {
    OCEP_ASSERT_MSG(registry_ != nullptr,
                    "enable MonitorConfig::metrics to collect telemetry");
    update_store_gauges();
    return *registry_;
  }
  /// Mutable overload, e.g. for binding external instruments
  /// (Linearizer::bind_metrics) onto the monitor's registry.
  [[nodiscard]] obs::Registry& metrics() {
    OCEP_ASSERT_MSG(registry_ != nullptr,
                    "enable MonitorConfig::metrics to collect telemetry");
    update_store_gauges();
    return *registry_;
  }

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return registry_ != nullptr;
  }

 private:
  /// Builds the MatcherTelemetry instrument set for pattern `index`.
  [[nodiscard]] MatcherTelemetry make_telemetry(std::size_t index);
  void update_store_gauges() const;
  /// Appends the event at arrival position `position` to its classes'
  /// histories, offers it to its patterns, brings every other pattern's
  /// count up to date and then holds the histories to their byte cap.
  void observe_offered(const Event& event, std::uint64_t position);
  /// Interns every pattern's leaf classes, once the traces are known
  /// (at the first arrival, checkpoint or restore).
  void bind_histories();
  /// Brings every pattern's history counters up to date after the table
  /// changed a history other than by an append.
  void sync_history_stats();

  StringPool* pool_;
  EventStore store_;
  MonitorConfig config_;
  std::function<IngestStats()> ingest_source_;
  HistoryTable histories_;
  std::vector<std::unique_ptr<OcepMatcher>> matchers_;
  /// Which patterns and classes each event type is offered to.
  DispatchIndex index_;
  bool histories_bound_ = false;
  /// histories_.generation() as of the last sync_history_stats().
  std::uint64_t synced_generation_ = 0;
  bool traces_known_ = false;
  std::uint64_t events_seen_ = 0;
  std::unique_ptr<obs::Registry> registry_;
  std::vector<obs::Histogram*> observe_ns_;
  obs::Histogram* arrival_ns_ = nullptr;
  obs::Gauge* store_events_ = nullptr;
  obs::Gauge* store_bytes_ = nullptr;
  obs::Gauge* store_traces_ = nullptr;
};

}  // namespace ocep
