#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/assert.h"
#include "metrics/stopwatch.h"

namespace ocep {
namespace {

/// Marker thrown at the end of a batch in which an observe escaped: it
/// unwinds run_batch (after the watermark is published) so supervise()
/// counts a restart and re-enters the worker loop with clean state.
struct WorkerRespawn {};

}  // namespace

MatchPipeline::MatchPipeline(const EventStore& store,
                             const DispatchIndex& index, std::size_t workers,
                             std::size_t ring_batches)
    : store_(store), index_(index) {
  OCEP_ASSERT_MSG(workers > 0, "a pipeline needs at least one worker");
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(ring_batches));
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    Worker& ref = *worker;
    ref.thread = std::thread([this, &ref] { supervise(ref); });
  }
}

MatchPipeline::~MatchPipeline() {
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void MatchPipeline::enable_metrics(obs::Registry& registry) {
  OCEP_ASSERT_MSG(pattern_count_ == 0,
                  "enable_metrics must precede add_matcher");
  registry_ = &registry;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = *workers_[w];
    const std::string label = "worker=\"" + std::to_string(w) + "\"";
    worker.batches_counter = &registry.counter(
        "pipeline.batches", label, "batch descriptors processed");
    worker.events_counter = &registry.counter(
        "pipeline.events", label, "events counted across owned patterns");
    worker.stalls_counter = &registry.counter(
        "pipeline.ring_stalls", label, "producer pushes that had to wait");
    worker.restarts_counter = &registry.counter(
        "pipeline.worker_restarts", label,
        "supervised worker respawns after an escaped exception");
    worker.ring_depth = &registry.histogram(
        "pipeline.ring_depth", label, "ring occupancy seen at dispatch");
  }
}

void MatchPipeline::add_matcher(OcepMatcher* matcher) {
  OCEP_ASSERT_MSG(!started_,
                  "matchers must be registered before the first dispatch");
  Worker& worker = *workers_[next_shard_];
  next_shard_ = (next_shard_ + 1) % workers_.size();
  PatternSlot slot;
  slot.matcher = matcher;
  slot.pattern_index = pattern_count_++;
  if (registry_ != nullptr) {
    slot.observe_ns = &registry_->histogram(
        "monitor.observe_ns",
        "pattern=\"" + std::to_string(slot.pattern_index) + "\"",
        "per-arrival observe latency (ns)");
  }
  worker.patterns.push_back(slot);
}

void MatchPipeline::backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    return;  // brief busy wait: the peer is typically mid-batch
  }
  if (spins < 1024) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(100));
}

void MatchPipeline::dispatch(std::uint64_t end) {
  OCEP_ASSERT(end >= dispatched_);
  if (end == dispatched_) {
    return;
  }
  started_ = true;
  const Batch batch{dispatched_, end};
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->ring_depth != nullptr) {
      worker->ring_depth->record(worker->ring.size());
    }
    if (!worker->ring.try_push(batch)) {
      // Backpressure: the ring bounds how far this worker may lag.
      ++worker->stalls;
      if (worker->stalls_counter != nullptr) {
        worker->stalls_counter->add(1);
      }
      unsigned spins = 0;
      do {
        backoff(spins);
      } while (!worker->ring.try_push(batch));
    }
  }
  dispatched_ = end;
}

void MatchPipeline::drain() {
  for (const std::unique_ptr<Worker>& worker : workers_) {
    unsigned spins = 0;
    // The acquire pairs with the worker's release after its last batch:
    // once the watermark reaches dispatched_, all matcher writes of that
    // worker happen-before our return.
    while (worker->processed.load(std::memory_order_acquire) < dispatched_) {
      backoff(spins);
    }
  }
}

void MatchPipeline::resume_at(std::uint64_t events) {
  OCEP_ASSERT_MSG(!started_ && dispatched_ == 0,
                  "resume_at must precede the first dispatch");
  dispatched_ = events;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->processed.store(events, std::memory_order_release);
  }
}

void MatchPipeline::quarantine_slot(PatternSlot& slot,
                                    const std::string& reason) {
  if (slot.quarantined) {
    return;
  }
  slot.quarantined = true;
  // The matcher's breaker goes terminal: its remaining observes degrade
  // to O(1) history appends, so the other patterns (and this worker's
  // throughput) are unaffected.
  slot.matcher->quarantine("pattern " + std::to_string(slot.pattern_index) +
                           " quarantined: " + reason);
}

void MatchPipeline::observe_one(Worker& worker, PatternSlot& slot,
                                const Event& event, std::uint64_t position) {
  const std::uint64_t errors_before = slot.matcher->stats().callback_errors;
  try {
    slot.matcher->observe(event, position);
  } catch (const std::exception& e) {
    quarantine_slot(slot, e.what());
    worker.respawn_pending = true;
    return;
  } catch (...) {
    quarantine_slot(slot, "non-standard exception escaped observe");
    worker.respawn_pending = true;
    return;
  }
  if (!slot.quarantined &&
      slot.matcher->stats().callback_errors > errors_before) {
    // The matcher contained a throwing MatchCallback.  The user sink for
    // this pattern is broken, so supervision still shuts the pattern down
    // — but the worker survives without a respawn.
    quarantine_slot(slot, slot.matcher->governor().last_error());
  }
}

void MatchPipeline::run_batch(Worker& worker, const Batch& batch) {
  OCEP_ASSERT_MSG(store_.visible_count() >= batch.end,
                  "batch dispatched before its events were published");
  worker.current_batch_end = batch.end;
  for (PatternSlot& slot : worker.patterns) {
    const auto pattern = static_cast<std::uint32_t>(slot.pattern_index);
    if (slot.observe_ns != nullptr) {
      // Metrics path: time each offered arrival individually so the
      // histogram captures per-event latency, then fold the total back
      // into the batch-granular counters the stats() snapshot reports.
      std::uint64_t batch_ns = 0;
      for (std::uint64_t pos = batch.begin; pos < batch.end; ++pos) {
        const Event& event = store_.event(store_.arrival(pos));
        if (!index_.offers(pattern, event.type)) {
          continue;
        }
        const metrics::Stopwatch watch;
        observe_one(worker, slot, event, pos);
        const std::uint64_t ns = watch.elapsed_ns();
        slot.observe_ns->record(ns);
        batch_ns += ns;
      }
      const double us = static_cast<double>(batch_ns) / 1000.0;
      slot.us_total += us;
      slot.us_max = us > slot.us_max ? us : slot.us_max;
    } else {
      const metrics::Stopwatch watch;
      for (std::uint64_t pos = batch.begin; pos < batch.end; ++pos) {
        const Event& event = store_.event(store_.arrival(pos));
        if (index_.offers(pattern, event.type)) {
          observe_one(worker, slot, event, pos);
        }
      }
      const double us = watch.elapsed_us();
      slot.us_total += us;
      slot.us_max = us > slot.us_max ? us : slot.us_max;
    }
    slot.matcher->advance(batch.end);
    slot.events += batch.end - batch.begin;
  }
  worker.batches.fetch_add(1, std::memory_order_relaxed);
  worker.heartbeat.fetch_add(1, std::memory_order_relaxed);
  if (worker.batches_counter != nullptr) {
    worker.batches_counter->add(1);
    worker.events_counter->add(
        (batch.end - batch.begin) * worker.patterns.size());
  }
  worker.processed.store(batch.end, std::memory_order_release);
  if (worker.respawn_pending) {
    // Unwind only after the watermark is published: drain() never hangs
    // on a batch whose observe escaped.
    worker.respawn_pending = false;
    throw WorkerRespawn{};
  }
}

void MatchPipeline::supervise(Worker& worker) {
  for (;;) {
    try {
      worker_loop(worker);
      return;  // clean stop
    } catch (...) {
      // An exception escaped a batch (WorkerRespawn after a throwing
      // observe, or an unexpected internal error).  The offending pattern
      // is already quarantined at the throw site; make sure the watermark
      // covers the batch so drain() cannot hang, count the restart, and
      // respawn the worker loop.
      worker.processed.store(
          std::max(worker.processed.load(std::memory_order_relaxed),
                   worker.current_batch_end),
          std::memory_order_release);
      worker.restarts.fetch_add(1, std::memory_order_relaxed);
      if (worker.restarts_counter != nullptr) {
        worker.restarts_counter->add(1);
      }
    }
  }
}

void MatchPipeline::worker_loop(Worker& worker) {
  unsigned spins = 0;
  for (;;) {
    Batch batch;
    if (worker.ring.try_pop(batch)) {
      run_batch(worker, batch);
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // The producer is gone; whatever is still queued was pushed before
      // the stop flag, so drain it and exit.
      while (worker.ring.try_pop(batch)) {
        run_batch(worker, batch);
      }
      break;
    }
    worker.heartbeat.fetch_add(1, std::memory_order_relaxed);
    backoff(spins);
  }
}

PipelineStats MatchPipeline::stats() const {
  PipelineStats out;
  out.events_dispatched = dispatched_;
  out.workers.resize(workers_.size());
  out.patterns.resize(pattern_count_);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = *workers_[w];
    PipelineWorkerStats& stats = out.workers[w];
    stats.batches = worker.batches.load(std::memory_order_relaxed);
    stats.ring_full_stalls = worker.stalls;
    stats.restarts = worker.restarts.load(std::memory_order_relaxed);
    stats.heartbeat = worker.heartbeat.load(std::memory_order_relaxed);
    for (const PatternSlot& slot : worker.patterns) {
      stats.events += slot.events;
      PipelinePatternStats& pattern = out.patterns[slot.pattern_index];
      pattern.worker = w;
      pattern.events_observed = slot.events;
      pattern.observe_us_total = slot.us_total;
      pattern.observe_us_max = slot.us_max;
      pattern.quarantined = slot.quarantined;
    }
  }
  return out;
}

void MatchPipeline::fill_health(HealthReport& report) const {
  report.workers.resize(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = *workers_[w];
    WorkerHealth& health = report.workers[w];
    health.worker = w;
    health.batches = worker.batches.load(std::memory_order_relaxed);
    health.heartbeat = worker.heartbeat.load(std::memory_order_relaxed);
    health.restarts = worker.restarts.load(std::memory_order_relaxed);
    health.quarantined_patterns = 0;
    for (const PatternSlot& slot : worker.patterns) {
      if (slot.quarantined) {
        ++health.quarantined_patterns;
      }
    }
  }
}

}  // namespace ocep
