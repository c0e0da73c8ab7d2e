// Parallel multi-pattern matching pipeline.
//
// Monitor::on_event used to feed every registered matcher sequentially on
// the delivery thread, so per-event latency grew linearly with the number
// of patterns.  The matchers are independent per pattern, which makes the
// decomposition free: this module shards compiled patterns across a fixed
// pool of worker threads and keeps the delivery thread doing nothing but
// appending to the EventStore and handing off batch descriptors.
//
// Threading model
// ---------------
//  * One producer: the delivery thread (Monitor::on_event).  It appends
//    events to the shared store (publishing them, see event_store.h) and,
//    once a batch fills, pushes a {begin, end) arrival-range descriptor
//    into every worker's bounded SPSC ring.  A full ring applies
//    backpressure: the producer spins/yields (counted as a stall) until
//    the worker catches up, so memory stays bounded.
//  * N workers: each owns a disjoint subset of the matchers (round-robin
//    sharding at add_matcher time), pops batch descriptors, reads the
//    events from the store's published prefix, and runs observe() on its
//    matchers only — on the events the Monitor's dispatch index offers
//    each of them (core/dispatch.h), the same index the synchronous loop
//    walks.  Matcher state is single-owner, so no matcher locking exists
//    anywhere; the index is complete before the first dispatch and only
//    read afterwards.
//  * drain() is the barrier: after it returns, every dispatched event has
//    been counted by every matcher (and observed by those it was offered
//    to), and the release/acquire pair on each worker's processed counter
//    makes the matchers' state (subsets, stats) safe to read from the
//    caller's thread.
//
// Determinism: workers observe events in arrival order, and a worker may
// see the store *ahead* of the event it is observing.  That is harmless —
// candidates come from matcher-owned histories (observed events only) and
// causal relations between stored events are immutable, so every search
// returns exactly what the sequential run returns (tested in
// tests/test_pipeline.cc against worker_threads = 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "core/dispatch.h"
#include "core/governor.h"
#include "core/matcher.h"
#include "obs/metrics.h"
#include "poet/event_store.h"
#include "poet/linearizer.h"

namespace ocep {

/// Producer-side and worker-side counters.  Exact after drain().
struct PipelineWorkerStats {
  std::uint64_t batches = 0;         ///< batches processed
  std::uint64_t events = 0;          ///< events processed (all its patterns)
  std::uint64_t ring_full_stalls = 0;  ///< producer pushes that had to wait
  std::uint64_t restarts = 0;        ///< supervised respawns (see supervise)
  std::uint64_t heartbeat = 0;       ///< liveness ticks (batches + idle)
};

/// Per-pattern observation cost, measured on the owning worker with
/// metrics::Stopwatch at batch granularity.
struct PipelinePatternStats {
  std::size_t worker = 0;            ///< owning shard
  std::uint64_t events_observed = 0;
  double observe_us_total = 0.0;     ///< summed batch observe time
  double observe_us_max = 0.0;       ///< slowest single batch
  bool quarantined = false;          ///< shut down by worker supervision
};

struct PipelineStats {
  std::uint64_t events_dispatched = 0;
  std::vector<PipelineWorkerStats> workers;
  std::vector<PipelinePatternStats> patterns;
  /// Ingestion-side counters (linearizer + wire session), populated when
  /// the monitor has an ingest source attached (Monitor::set_ingest_source).
  IngestStats ingest{};
};

class MatchPipeline {
 public:
  /// Spawns `workers` threads immediately (they idle on empty rings).
  /// `ring_batches` bounds each worker's queue of batch descriptors.
  /// `index` decides which events each matcher is offered; it must list
  /// every matcher before the first dispatch and outlive the pipeline.
  MatchPipeline(const EventStore& store, const DispatchIndex& index,
                std::size_t workers, std::size_t ring_batches);
  ~MatchPipeline();

  MatchPipeline(const MatchPipeline&) = delete;
  MatchPipeline& operator=(const MatchPipeline&) = delete;

  /// Mirrors the per-worker counters onto `registry` and records
  /// per-arrival observe latency per pattern (monitor.observe_ns) plus
  /// ring occupancy at dispatch (pipeline.ring_depth).  Must be called
  /// before the first add_matcher(); the registry must outlive the
  /// pipeline.
  void enable_metrics(obs::Registry& registry);

  /// Registers a matcher into the next shard (round-robin), as the index's
  /// next pattern.  Must happen before the first dispatch(); the matcher
  /// must outlive the pipeline.
  void add_matcher(OcepMatcher* matcher);

  /// Hands the arrival range [dispatched(), end) to every worker.  The
  /// events must already be appended (and thereby published) to the
  /// store.  Delivery thread only.
  void dispatch(std::uint64_t end);

  /// Blocks until every worker has processed everything dispatched so
  /// far.  After it returns, reading matcher state from the calling
  /// thread is race-free.  Delivery thread only.
  void drain();

  /// Checkpoint support: primes the dispatch and processed watermarks
  /// after Monitor::restore(), so the first post-restore batch starts at
  /// arrival position `events`.  Must precede the first dispatch.
  void resume_at(std::uint64_t events);

  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Snapshot of the counters.  Call after drain() for exact values.
  [[nodiscard]] PipelineStats stats() const;

  /// Fills the per-worker section of a HealthReport (batches, heartbeat,
  /// restarts, quarantined pattern count).  Call after drain().
  void fill_health(HealthReport& report) const;

 private:
  struct Batch {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  struct PatternSlot {
    OcepMatcher* matcher = nullptr;
    std::size_t pattern_index = 0;
    std::uint64_t events = 0;   // worker-thread only until drain()
    double us_total = 0.0;
    double us_max = 0.0;
    bool quarantined = false;   // worker-thread only until drain()
    obs::Histogram* observe_ns = nullptr;  ///< per-arrival latency sink
  };

  struct Worker {
    explicit Worker(std::size_t ring_batches) : ring(ring_batches) {}
    SpscRing<Batch> ring;
    std::vector<PatternSlot> patterns;
    std::atomic<std::uint64_t> processed{0};  ///< arrival watermark done
    std::atomic<std::uint64_t> batches{0};
    // Supervision (see supervise()): heartbeat ticks on every batch and
    // idle backoff; restarts counts worker-loop respawns after an escaped
    // exception.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> restarts{0};
    std::uint64_t current_batch_end = 0;  ///< worker thread only
    bool respawn_pending = false;         ///< worker thread only
    std::uint64_t stalls = 0;  ///< producer-side, producer thread only
    // Registry mirrors (null when metrics are off).
    obs::Counter* batches_counter = nullptr;
    obs::Counter* events_counter = nullptr;
    obs::Counter* stalls_counter = nullptr;
    obs::Counter* restarts_counter = nullptr;
    obs::Histogram* ring_depth = nullptr;  ///< occupancy seen at dispatch
    std::thread thread;
  };

  /// Thread entry: runs worker_loop under exception containment.  An
  /// exception that escapes a batch quarantines the offending pattern
  /// (done at the throw site), publishes the batch watermark so drain()
  /// cannot hang, counts a restart, and re-enters the loop — the process
  /// never terminates for one pattern's failure.
  void supervise(Worker& worker);
  void worker_loop(Worker& worker);
  void run_batch(Worker& worker, const Batch& batch);
  /// One matcher observe under supervision: an escaped exception or a
  /// contained callback error quarantines the slot.  Per-event (not
  /// per-batch) so the quarantine point is identical across batch sizes
  /// and worker counts.
  void observe_one(Worker& worker, PatternSlot& slot, const Event& event,
                   std::uint64_t position);
  void quarantine_slot(PatternSlot& slot, const std::string& reason);
  static void backoff(unsigned& spins);

  const EventStore& store_;
  const DispatchIndex& index_;
  obs::Registry* registry_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::uint64_t dispatched_ = 0;
  bool started_ = false;
  std::size_t next_shard_ = 0;
  std::size_t pattern_count_ = 0;
};

}  // namespace ocep
