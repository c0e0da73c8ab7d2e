#include "core/monitor.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/assert.h"
#include "common/error.h"
#include "common/frame.h"
#include "metrics/stopwatch.h"
#include "poet/dump.h"
#include "poet/varint.h"

namespace ocep {

Monitor::Monitor(StringPool& pool, const MonitorConfig& config,
                 ClockStorage storage)
    : pool_(&pool),
      store_(storage),
      config_(config),
      histories_(store_, config_.history_bytes_limit) {
  if (config_.metrics) {
    registry_ = std::make_unique<obs::Registry>();
    arrival_ns_ = &registry_->histogram(
        "monitor.arrival_ns", "",
        "per-arrival delivery-thread latency (ns)");
    store_events_ =
        &registry_->gauge("store.events", "", "events held by the store");
    store_bytes_ = &registry_->gauge("store.bytes", "",
                                     "approximate store footprint (bytes)");
    store_traces_ =
        &registry_->gauge("store.traces", "", "traces announced");
  }
}

MatcherTelemetry Monitor::make_telemetry(std::size_t index) {
  const std::string label = "pattern=\"" + std::to_string(index) + "\"";
  obs::Registry& reg = *registry_;
  MatcherTelemetry t;
  t.events = &reg.counter("matcher.events", label,
                          "arrivals counted, offered or not");
  t.leaf_hits = &reg.counter("matcher.leaf_hits", label,
                             "events appended to >= 1 history");
  t.searches =
      &reg.counter("matcher.searches", label, "anchored searches run");
  t.matches = &reg.counter("matcher.matches", label, "matches reported");
  t.nodes = &reg.counter("matcher.nodes", label,
                         "candidate instantiations tried");
  t.domain_prunes = &reg.counter("matcher.domain_prunes", label,
                                 "empty Fig-4 candidate intervals");
  t.backjumps =
      &reg.counter("matcher.backjumps", label, "conflict-directed jumps");
  t.pins_run =
      &reg.counter("matcher.pins_run", label, "coverage pins searched");
  t.pins_skipped = &reg.counter("matcher.pins_skipped", label,
                                "coverage pins skipped");
  t.searches_aborted = &reg.counter("matcher.searches_aborted", label,
                                    "searches aborted by the budget");
  t.observes_shed = &reg.counter("matcher.observes_shed", label,
                                 "searches shed by an open breaker");
  t.breaker_trips =
      &reg.counter("matcher.breaker_trips", label, "breaker trips");
  t.history_evicted = &reg.counter("matcher.history_evicted", label,
                                   "history entries evicted by the byte cap");
  t.callback_errors = &reg.counter("matcher.callback_errors", label,
                                   "contained match-callback exceptions");
  t.levels_visited = &reg.histogram("matcher.levels_visited", label,
                                    "levels per terminating event");
  t.candidates_scanned =
      &reg.histogram("matcher.candidates_scanned", label,
                     "candidates per terminating event");
  t.matches_found = &reg.histogram("matcher.matches_found", label,
                                   "matches per terminating event");
  t.backjump_distance = &reg.histogram("matcher.backjump_distance", label,
                                       "levels skipped per backjump");
  t.conflict_set_size = &reg.histogram("matcher.conflict_set_size", label,
                                       "conflict-set size per failed search");
  return t;
}

std::size_t Monitor::add_pattern(std::string_view source,
                                 MatcherConfig config,
                                 MatchCallback on_match) {
  OCEP_ASSERT_MSG(events_seen_ == 0,
                  "patterns must be registered before the first event");
  pattern::CompiledPattern compiled = pattern::compile(source, *pool_);
  const std::size_t index = matchers_.size();
  matchers_.push_back(std::unique_ptr<OcepMatcher>(
      new OcepMatcher(store_, std::move(compiled), config,
                      std::move(on_match), &histories_,
                      static_cast<std::uint32_t>(index))));
  index_.add(matchers_.back()->pattern());
  if (registry_) {
    matchers_.back()->set_telemetry(make_telemetry(index));
    observe_ns_.push_back(&registry_->histogram(
        "monitor.observe_ns", "pattern=\"" + std::to_string(index) + "\"",
        "per-arrival observe latency (ns)"));
  }
  return index;
}

void Monitor::on_traces(const std::vector<Symbol>& names) {
  OCEP_ASSERT_MSG(!traces_known_, "trace table announced twice");
  traces_known_ = true;
  store_.reserve_traces(names.size());
  for (const Symbol name : names) {
    store_.add_trace(name);
  }
}

void Monitor::on_event(const Event& event, const VectorClock& clock) {
  OCEP_ASSERT_MSG(traces_known_,
                  "on_traces must be delivered before the first event");
  if (!histories_bound_) {
    bind_histories();
  }
  store_.append(event, clock);
  ++events_seen_;
  if (registry_) {
    const metrics::Stopwatch arrival;
    observe_offered(event, events_seen_ - 1);
    arrival_ns_->record(arrival.elapsed_ns());
  } else {
    observe_offered(event, events_seen_ - 1);
  }
}

void Monitor::observe_offered(const Event& event, std::uint64_t position) {
  const DispatchIndex::Offer offer = index_.offered(event.type);
  histories_.append(event, offer.classes);
  for (const std::uint32_t i : offer.patterns) {
    if (registry_) {
      const metrics::Stopwatch watch;
      matchers_[i]->observe(event, position);
      observe_ns_[i]->record(watch.elapsed_ns());
    } else {
      matchers_[i]->observe(event, position);
    }
  }
  for (const std::unique_ptr<OcepMatcher>& matcher : matchers_) {
    matcher->advance(position + 1);
  }
  histories_.enforce_budget();
  if (histories_.generation() != synced_generation_) {
    sync_history_stats();
  }
}

void Monitor::bind_histories() {
  if (histories_bound_) {
    return;
  }
  histories_bound_ = true;
  for (const std::unique_ptr<OcepMatcher>& matcher : matchers_) {
    matcher->lazy_init();
  }
  for (std::uint32_t id = 0; id < histories_.size(); ++id) {
    index_.add_class(id, histories_.leaf_class(id));
  }
}

void Monitor::sync_history_stats() {
  synced_generation_ = histories_.generation();
  for (const std::unique_ptr<OcepMatcher>& matcher : matchers_) {
    matcher->sync_history_stats();
  }
}

void Monitor::fault_all_spans() {
  histories_.fault_all_spans();
  sync_history_stats();
}

void Monitor::update_store_gauges() const {
  store_events_->set(static_cast<std::int64_t>(store_.event_count()));
  store_bytes_->set(static_cast<std::int64_t>(store_.approx_bytes()));
  store_traces_->set(static_cast<std::int64_t>(store_.trace_count()));
}

HealthReport Monitor::health() const {
  HealthReport report;
  report.patterns.reserve(matchers_.size());
  for (std::size_t i = 0; i < matchers_.size(); ++i) {
    PatternHealth pattern = matchers_[i]->health();
    pattern.pattern = i;
    report.patterns.push_back(std::move(pattern));
  }
  if (ingest_source_) {
    report.ingest = ingest_source_();
  }
  return report;
}

namespace {

constexpr std::string_view kCheckpointMagic = "OCEPCKP6";

}  // namespace

void Monitor::checkpoint(std::ostream& out) {
  OCEP_ASSERT_MSG(traces_known_,
                  "nothing to checkpoint before traces are announced");
  bind_histories();
  std::ostringstream body;
  dump(store_, *pool_, body);
  poet::put_varint(body, events_seen_);
  poet::put_varint(body, matchers_.size());
  histories_.checkpoint(body);
  for (const std::unique_ptr<OcepMatcher>& matcher : matchers_) {
    matcher->checkpoint(body);
  }
  write_frame(out, kCheckpointMagic, body.str());
}

void Monitor::restore(std::istream& in) {
  OCEP_ASSERT_MSG(events_seen_ == 0 && !traces_known_,
                  "restore requires a fresh monitor (patterns added, no "
                  "events seen)");
  // The whole frame is read and its CRC checked before anything is
  // replayed, so a torn or bit-flipped checkpoint changes nothing.
  const std::string bytes =
      read_frame(in, kCheckpointMagic, kMaxFrameBody, "checkpoint");

  // Replay the embedded dump straight into the store, bypassing the
  // histories and matchers: their state is restored from the blobs
  // below, not recomputed.
  struct RestoreSink final : EventSink {
    explicit RestoreSink(Monitor& m) : monitor(m) {}
    void on_traces(const std::vector<Symbol>& names) override {
      OCEP_ASSERT(!monitor.traces_known_);
      monitor.traces_known_ = true;
      monitor.store_.reserve_traces(names.size());
      for (const Symbol name : names) {
        monitor.store_.add_trace(name);
      }
    }
    void on_event(const Event& event, const VectorClock& clock) override {
      monitor.store_.append(event, clock);
    }
    Monitor& monitor;
  };
  std::istringstream body(bytes);
  RestoreSink sink(*this);
  reload(body, *pool_, sink);

  events_seen_ = poet::get_varint(body);
  if (events_seen_ != store_.event_count()) {
    throw SerializationError("checkpoint event watermark disagrees with "
                             "its embedded dump");
  }
  const std::uint64_t matcher_count = poet::get_varint(body);
  if (matcher_count != matchers_.size()) {
    throw SerializationError(
        "checkpoint pattern count does not match the registered patterns");
  }
  bind_histories();
  histories_.restore(body);
  for (const std::unique_ptr<OcepMatcher>& matcher : matchers_) {
    matcher->restore(body);
  }
  synced_generation_ = histories_.generation();
}

}  // namespace ocep
