#include "poet/linearizer.h"

#include <istream>
#include <limits>
#include <ostream>

#include "common/assert.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "poet/event_record.h"
#include "poet/varint.h"

namespace ocep {

Linearizer::Linearizer(std::size_t trace_count, EventSink& sink,
                       Symbol shed_type)
    : sink_(sink),
      shed_type_(shed_type),
      delivered_(trace_count, 0),
      held_(trace_count),
      last_clock_(trace_count, VectorClock(trace_count)) {}

void Linearizer::bind_metrics(obs::Registry& registry) {
  OCEP_ASSERT_MSG(offered_total_ == 0,
                  "metrics must be bound before the first offer");
  offered_counter_ =
      &registry.counter("linearizer.offered", "", "events offered");
  delivered_counter_ =
      &registry.counter("linearizer.delivered", "", "events delivered");
  held_counter_ = &registry.counter("linearizer.held", "",
                                    "events buffered for predecessors");
  duplicate_counter_ = &registry.counter("linearizer.duplicates", "",
                                         "duplicate offers dropped");
  shed_counter_ = &registry.counter("linearizer.sheds", "",
                                    "placeholder events synthesized");
  queue_depth_ = &registry.histogram("linearizer.queue_depth", "",
                                     "events pending after each offer");
  delivery_lag_ =
      &registry.histogram("linearizer.delivery_lag", "",
                          "offers elapsed while an event sat buffered");
  pending_gauge_ =
      &registry.gauge("linearizer.pending", "", "events currently buffered");
}

OfferResult Linearizer::offer(const Event& event, VectorClock clock) {
  OCEP_ASSERT(event.id.trace < delivered_.size());
  OCEP_ASSERT(clock.size() == delivered_.size());
  ++offered_total_;
  OfferResult result;

  const bool regressed = event.id.index <= delivered_[event.id.trace];
  const bool already_held =
      !regressed && held_[event.id.trace].count(event.id.index) != 0;
  if (regressed || already_held) {
    ++duplicates_;
    if (duplicate_counter_ != nullptr) {
      duplicate_counter_->add(1);
    }
    result = OfferResult::kDuplicate;
  } else if (deliverable(event, clock)) {
    if (delivery_lag_ != nullptr) {
      delivery_lag_->record(0);  // delivered on the offer that carried it
    }
    deliver(event, clock);
    drain();
    result = OfferResult::kDelivered;
  } else {
    held_[event.id.trace].emplace(
        event.id.index, Held{event, std::move(clock), offered_total_});
    ++pending_count_;
    if (pending_count_ > max_pending_) {
      max_pending_ = pending_count_;
    }
    if (held_counter_ != nullptr) {
      held_counter_->add(1);
    }
    result = OfferResult::kBuffered;
  }

  if (offered_counter_ != nullptr) {
    offered_counter_->add(1);
    queue_depth_->record(pending_count_);
  }
  update_gauge();
  return result;
}

bool Linearizer::deliverable(const Event& event,
                             const VectorClock& clock) const {
  if (delivered_[event.id.trace] != event.id.index - 1) {
    return false;
  }
  for (std::size_t s = 0; s < delivered_.size(); ++s) {
    if (s != event.id.trace && delivered_[s] < clock[static_cast<TraceId>(s)]) {
      return false;
    }
  }
  return true;
}

void Linearizer::deliver(const Event& event, const VectorClock& clock) {
  delivered_[event.id.trace] = event.id.index;
  last_clock_[event.id.trace] = clock;
  ++delivered_total_;
  if (delivered_counter_ != nullptr) {
    delivered_counter_->add(1);
  }
  sink_.on_event(event, clock);
}

void Linearizer::drain() {
  // A delivery can unblock the head of any trace's buffer; iterate to a
  // fixpoint.  Each pass only inspects buffer heads, so the amortized cost
  // stays proportional to deliveries plus (rarely) blocked head rescans.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& buffer : held_) {
      while (!buffer.empty()) {
        const auto& [index, held] = *buffer.begin();
        if (!deliverable(held.event, held.clock)) {
          break;
        }
        // Move out before erasing; deliver after erase so reentrant state
        // stays consistent.
        Event event = held.event;
        VectorClock clock = std::move(buffer.begin()->second.clock);
        if (delivery_lag_ != nullptr) {
          delivery_lag_->record(offered_total_ - held.offered_at);
        }
        buffer.erase(buffer.begin());
        --pending_count_;
        deliver(event, clock);
        progressed = true;
      }
    }
  }
}

void Linearizer::synthesize_through(TraceId trace, EventIndex index) {
  // Placeholders extend the trace's last delivered clock row one tick at a
  // time, so every downstream invariant (store monotonicity, linearization
  // order) holds exactly as it would for a real local event.
  while (delivered_[trace] < index) {
    Event placeholder;
    placeholder.id = EventId{trace, delivered_[trace] + 1};
    placeholder.kind = EventKind::kLocal;
    placeholder.type = shed_type_;
    VectorClock clock = last_clock_[trace];
    clock.tick(trace);
    ++sheds_;
    if (shed_counter_ != nullptr) {
      shed_counter_->add(1);
    }
    deliver(placeholder, clock);
  }
}

void Linearizer::fill_trace_gaps() {
  // Phase-1 shed: give every buffered head its same-trace predecessors.
  for (TraceId t = 0; t < held_.size(); ++t) {
    if (!held_[t].empty()) {
      synthesize_through(t, held_[t].begin()->first - 1);
    }
  }
}

bool Linearizer::fill_cross_trace_needs() {
  // Force-deliver one buffered head that is causally minimal among all
  // buffered events: no other trace holds an event at or below what this
  // head's clock requires, so its missing predecessors are genuinely lost
  // (not merely late in our own buffers) and may be synthesized safely.
  for (TraceId t = 0; t < held_.size(); ++t) {
    if (held_[t].empty()) {
      continue;
    }
    const Held& head = held_[t].begin()->second;
    bool minimal = true;
    for (TraceId s = 0; s < held_.size() && minimal; ++s) {
      if (s != t && !held_[s].empty() &&
          held_[s].begin()->first <= head.clock[s]) {
        minimal = false;
      }
    }
    if (!minimal) {
      continue;
    }
    synthesize_through(t, head.event.id.index - 1);
    for (TraceId s = 0; s < held_.size(); ++s) {
      if (s != t) {
        synthesize_through(s, head.clock[s]);
      }
    }
    return true;
  }
  return false;
}

void Linearizer::shed_to(std::size_t target_pending) {
  while (pending_count_ > target_pending) {
    const std::size_t before = pending_count_;
    if (!fill_cross_trace_needs()) {
      // Corrupt clocks could make every head non-minimal; fall back to
      // same-trace gap filling so the loop still terminates.
      fill_trace_gaps();
    }
    drain();
    if (pending_count_ >= before) {
      break;  // no progress; give up rather than loop forever
    }
  }
  update_gauge();
}

void Linearizer::update_gauge() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(pending_count_));
  }
}

IngestStats Linearizer::ingest_stats() const {
  IngestStats stats;
  stats.offered = offered_total_;
  stats.delivered = delivered_total_;
  stats.duplicates = duplicates_;
  stats.sheds = sheds_;
  stats.pending = pending_count_;
  stats.max_pending = max_pending_;
  return stats;
}

// --- checkpoint -------------------------------------------------------------
//
// Layout (varints unless noted): trace count, per-trace delivered
// watermark, per-trace last delivered clock (full rows), the six
// counters, then each held event as a length-prefixed event record
// (poet/event_record.h) followed by its offer sequence number.

void Linearizer::checkpoint(std::ostream& out, const StringPool& pool) const {
  const std::size_t n = delivered_.size();
  poet::put_varint(out, n);
  for (std::size_t t = 0; t < n; ++t) {
    poet::put_varint(out, delivered_[t]);
  }
  for (std::size_t t = 0; t < n; ++t) {
    for (TraceId s = 0; s < n; ++s) {
      poet::put_varint(out, last_clock_[t][s]);
    }
  }
  poet::put_varint(out, offered_total_);
  poet::put_varint(out, delivered_total_);
  poet::put_varint(out, duplicates_);
  poet::put_varint(out, sheds_);
  poet::put_varint(out, max_pending_);
  poet::put_varint(out, pending_count_);
  for (TraceId t = 0; t < n; ++t) {
    for (const auto& [index, held] : held_[t]) {
      put_event_record(out, held.event, held.clock, pool);
      poet::put_varint(out, held.offered_at);
    }
  }
  if (!out) {
    throw SerializationError("write failure while checkpointing linearizer");
  }
}

void Linearizer::restore(std::istream& in, StringPool& pool) {
  OCEP_ASSERT_MSG(offered_total_ == 0 && pending_count_ == 0,
                  "restore requires a fresh linearizer");
  const std::uint64_t n = poet::get_varint(in);
  if (n != delivered_.size()) {
    throw SerializationError("linearizer checkpoint trace count mismatch");
  }
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t v = poet::get_varint(in);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw SerializationError("corrupt checkpoint: bad delivery watermark");
    }
    delivered_[t] = static_cast<std::uint32_t>(v);
  }
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<std::uint32_t> entries(n);
    for (std::size_t s = 0; s < n; ++s) {
      entries[s] = static_cast<std::uint32_t>(poet::get_varint(in));
    }
    last_clock_[t] = VectorClock(std::move(entries));
  }
  offered_total_ = poet::get_varint(in);
  delivered_total_ = poet::get_varint(in);
  duplicates_ = poet::get_varint(in);
  sheds_ = poet::get_varint(in);
  max_pending_ = poet::get_varint(in);
  const std::uint64_t held_count = poet::get_varint(in);
  for (std::uint64_t i = 0; i < held_count; ++i) {
    Held held;
    get_event_record(in, pool, held.event, held.clock);
    if (held.clock.size() != n) {
      throw SerializationError("corrupt checkpoint: held clock width");
    }
    held.offered_at = poet::get_varint(in);
    const TraceId t = held.event.id.trace;
    const EventIndex index = held.event.id.index;
    if (index <= delivered_[t] ||
        !held_[t].emplace(index, std::move(held)).second) {
      throw SerializationError("corrupt checkpoint: duplicate held event");
    }
    ++pending_count_;
  }
  update_gauge();
}

}  // namespace ocep
