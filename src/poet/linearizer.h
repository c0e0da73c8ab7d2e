// Online causal-delivery queue.
//
// The POET server may observe instrumented events from the target system in
// an order that is not a linearization of the partial order (reports from
// different processes race on the wire).  The linearizer buffers such
// events and releases them to the client exactly when every causal
// predecessor has been released — the classic vector-clock delivery
// condition: event e on trace t is deliverable when
//   delivered[t] == index(e) - 1   and
//   delivered[s] >= V_e[s]  for every s != t.
//
// Two degradations keep a lossy channel from corrupting or wedging it:
//
//   * duplicates — a re-offered (trace, index) pair (retransmission,
//     overlapping snapshot) is counted and dropped instead of corrupting
//     the delivery order.
//   * shed_to() — the caller's flush: it synthesizes placeholder events
//     for missing predecessors until at most a target number of events is
//     held.  The session calls shed_to(0) at the end of a free-run stream.
//
// Shed placeholders are real deliverable events (kind kLocal, the
// constructor's `shed_type`, clock extending the trace's last delivered
// row), so every downstream invariant — store append asserts included —
// still holds; the degradation is visible in the stats, never silent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <utility>
#include <vector>

#include "causality/vector_clock.h"
#include "model/event.h"
#include "obs/metrics.h"
#include "poet/client.h"

namespace ocep {

/// Outcome of one offer().
enum class OfferResult : std::uint8_t {
  kDelivered,  ///< delivered immediately (and possibly unblocked others)
  kBuffered,   ///< held until its predecessors arrive
  kDuplicate,  ///< already delivered or already held; dropped
};

/// Ingestion health counters, shared vocabulary between the linearizer and
/// the session layer (which adds the wire-level fields).  Snapshot-style:
/// cheap to copy, embedded in HealthReport by Monitor::health().
struct IngestStats {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t sheds = 0;  ///< placeholder events synthesized
  std::uint64_t pending = 0;
  std::uint64_t max_pending = 0;
  // Session/wire-level (filled by SessionClient, zero otherwise).
  std::uint64_t frames_corrupt = 0;
  std::uint64_t frames_gap = 0;
  std::uint64_t bytes_skipped = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t resync_failures = 0;
  std::uint64_t recoveries = 0;      ///< gaps healed (resync or shed)
  std::uint64_t recovery_ticks = 0;  ///< offers spent in degraded state
};

class StringPool;

class Linearizer {
 public:
  /// Delivered events are forwarded to `sink`, which must outlive this.
  /// Placeholders that shed_to() synthesizes carry type `shed_type`.
  Linearizer(std::size_t trace_count, EventSink& sink,
             Symbol shed_type = kEmptySymbol);

  /// Attaches delivery telemetry to `registry` (linearizer.* instruments:
  /// offered/delivered/held/duplicate/shed counters, queue_depth and
  /// delivery_lag histograms, the pending gauge).  Call before the first
  /// offer(); the registry must outlive this.
  void bind_metrics(obs::Registry& registry);

  /// Offers one event; delivers it (and any unblocked buffered events) if
  /// its causal predecessors have all been delivered, buffers it otherwise.
  /// A duplicate is counted and dropped; the result says what happened.
  OfferResult offer(const Event& event, VectorClock clock);

  /// Force-delivers buffered events by synthesizing missing predecessors
  /// until at most `target_pending` events remain held.  Transports flush
  /// with it at the end of a stream whose gaps no resync could fill.
  void shed_to(std::size_t target_pending);

  /// Number of events buffered but not yet deliverable.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_count_; }

  /// Events delivered so far (placeholders included).
  [[nodiscard]] std::size_t delivered() const noexcept {
    return delivered_total_;
  }

  /// Per-trace delivery watermark (index of the last delivered event).
  [[nodiscard]] EventIndex delivered_through(TraceId trace) const {
    return delivered_[trace];
  }

  /// Snapshot of the linearizer-owned counters (session fields are zero).
  [[nodiscard]] IngestStats ingest_stats() const;

  /// Serializes watermarks, held events, and counters.  Restore with
  /// restore() on a freshly constructed linearizer with the same trace
  /// count; held events travel as session event records
  /// (poet/event_record.h), so the pools may differ.
  void checkpoint(std::ostream& out, const StringPool& pool) const;
  void restore(std::istream& in, StringPool& pool);

 private:
  struct Held {
    Event event;
    VectorClock clock;
    std::uint64_t offered_at = 0;  ///< offer sequence number when buffered
  };

  [[nodiscard]] bool deliverable(const Event& event,
                                 const VectorClock& clock) const;
  void deliver(const Event& event, const VectorClock& clock);
  void drain();
  void synthesize_through(TraceId trace, EventIndex index);
  void fill_trace_gaps();
  bool fill_cross_trace_needs();
  void update_gauge();

  EventSink& sink_;
  Symbol shed_type_;
  std::vector<std::uint32_t> delivered_;           // per-trace high-water mark
  std::vector<std::map<EventIndex, Held>> held_;   // per-trace buffered events
  std::vector<VectorClock> last_clock_;  // last delivered row per trace
  std::size_t pending_count_ = 0;
  std::size_t delivered_total_ = 0;
  std::uint64_t offered_total_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t max_pending_ = 0;
  // Telemetry sinks (null when unbound).
  obs::Counter* offered_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* held_counter_ = nullptr;
  obs::Counter* duplicate_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;   ///< pending after each offer
  obs::Histogram* delivery_lag_ = nullptr;  ///< offers waited while buffered
  obs::Gauge* pending_gauge_ = nullptr;
};

}  // namespace ocep
