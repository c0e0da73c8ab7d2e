#include "poet/event_store.h"

#include "common/assert.h"

namespace ocep {
namespace {

/// Value of a sparse column at 0-based event position `pos`: the last
/// change at or before pos.
template <typename ChangeVector>
std::uint32_t column_at(const ChangeVector& column,
                        std::uint32_t pos) noexcept {
  std::size_t lo = 0, hi = column.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (column[mid].pos <= pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : column[lo - 1].value;
}

}  // namespace

TraceId EventStore::add_trace(Symbol name) {
  OCEP_ASSERT_MSG(total_events_ == 0,
                  "all traces must be registered before the first event");
  traces_.emplace_back();
  traces_.back().name = name;
  return static_cast<TraceId>(traces_.size() - 1);
}

Symbol EventStore::trace_name(TraceId t) const { return trace_ref(t).name; }

void EventStore::append(const Event& event, const VectorClock& clock) {
  OCEP_ASSERT(event.id.trace < traces_.size());
  OCEP_ASSERT(clock.size() == traces_.size());
  Trace& trace = traces_[event.id.trace];
  OCEP_ASSERT_MSG(event.id.index == trace.events.size() + 1,
                  "events on a trace must be appended in order");
  OCEP_ASSERT_MSG(clock[event.id.trace] == event.id.index,
                  "own clock component must equal the event index");
#ifndef NDEBUG
  for (TraceId s = 0; s < traces_.size(); ++s) {
    // Timestamps along one trace are component-wise non-decreasing (the
    // least-successor binary search depends on this) ...
    if (!trace.events.empty()) {
      OCEP_ASSERT(clock.entries()[s] >=
                  clock_entry(EventId{event.id.trace, event.id.index - 1},
                              s));
    }
    // ... and appends across traces form a linearization: every causal
    // predecessor is already stored.
    if (s != event.id.trace) {
      OCEP_ASSERT_MSG(
          clock.entries()[s] <= traces_[s].events.size(),
          "append order must be a linearization of the partial order");
    }
  }
#endif

  const auto pos = static_cast<std::uint32_t>(trace.events.size());
  if (storage_ == ClockStorage::kDense) {
    trace.clocks.append(clock.entries());
  } else {
    if (trace.columns.empty()) {
      // First append on this trace: all traces are registered by now, so
      // the column table's final size is known.
      trace.columns.resize(traces_.size());
      trace.last_row.assign(traces_.size(), 0);
    }
    for (TraceId s = 0; s < traces_.size(); ++s) {
      const std::uint32_t value = clock[s];
      OCEP_ASSERT_MSG(value >= trace.last_row[s],
                      "clock entries never regress along a trace");
      if (s != event.id.trace && value != trace.last_row[s]) {
        trace.columns[s].push_back(Change{pos, value});
        trace.last_row[s] = value;
      }
    }
    trace.last_row[event.id.trace] = event.id.index;
  }

  trace.comm_before.push_back(trace.comm_count);
  if (is_communication(event.kind)) {
    ++trace.comm_count;
  }
  trace.events.push_back(event);
  arrival_order_.push_back(event.id);
  if (event.message != kNoMessage) {
    Partners& partners = partners_[event.message];
    if (event.kind == EventKind::kSend) {
      partners.send = event.id;
    } else if (event.kind == EventKind::kReceive) {
      partners.receive = event.id;
    }
  }
  ++total_events_;
}

EventIndex EventStore::trace_size(TraceId t) const {
  return static_cast<EventIndex>(trace_ref(t).events.size());
}

const Event& EventStore::event(EventId id) const {
  const Trace& trace = trace_ref(id.trace);
  OCEP_ASSERT(id.index >= 1 && id.index <= trace.events.size());
  return trace.events[id.index - 1];
}

std::uint32_t EventStore::comm_before(EventId id) const {
  const Trace& trace = trace_ref(id.trace);
  OCEP_ASSERT(id.index >= 1 && id.index <= trace.events.size());
  return trace.comm_before[id.index - 1];
}

std::uint32_t EventStore::clock_entry(EventId e, TraceId s) const {
  OCEP_ASSERT(s < traces_.size());
  const Trace& trace = trace_ref(e.trace);
  OCEP_ASSERT(e.index >= 1 && e.index <= trace.events.size());
  if (s == e.trace) {
    return e.index;
  }
  if (storage_ == ClockStorage::kDense) {
    return trace.clocks[(e.index - 1) * traces_.size() + s];
  }
  // e is stored on its trace, so the column table was allocated.
  return column_at(trace.columns[s], e.index - 1);
}

VectorClock EventStore::clock(EventId e) const {
  std::vector<std::uint32_t> entries(traces_.size(), 0);
  if (storage_ == ClockStorage::kDense) {
    const Trace& trace = trace_ref(e.trace);
    OCEP_ASSERT(e.index >= 1 && e.index <= trace.events.size());
    const std::size_t stride = traces_.size();
    const std::size_t row = (e.index - 1) * stride;
    for (std::size_t s = 0; s < stride; ++s) {
      entries[s] = trace.clocks[row + s];
    }
  } else {
    for (TraceId s = 0; s < traces_.size(); ++s) {
      entries[s] = clock_entry(e, s);
    }
  }
  return VectorClock(std::move(entries));
}

bool EventStore::happens_before(EventId a, EventId b) const {
  if (a == b) {
    return false;
  }
  if (a.trace == b.trace) {
    return a.index < b.index;
  }
  return clock_entry(b, a.trace) >= a.index;
}

Relation EventStore::relate(EventId a, EventId b) const {
  if (a == b) {
    return Relation::kEqual;
  }
  if (happens_before(a, b)) {
    return Relation::kBefore;
  }
  if (happens_before(b, a)) {
    return Relation::kAfter;
  }
  return Relation::kConcurrent;
}

EventIndex EventStore::greatest_predecessor(EventId e, TraceId t) const {
  OCEP_ASSERT(t < traces_.size());
  if (t == e.trace) {
    return e.index - 1;  // may be kNoEvent
  }
  // V_e[t] counts the events of t known to (i.e. happening before) e.
  return clock_entry(e, t);
}

EventIndex EventStore::least_successor(EventId e, TraceId t) const {
  const Trace& trace = trace_ref(t);
  const std::size_t size = trace.events.size();
  if (t == e.trace) {
    return e.index < size ? e.index + 1 : kInfiniteIndex;
  }
  // Find the first event x on t with V_x[e.trace] >= index(e); the column
  // V[.][e.trace] along trace t is non-decreasing.
  if (size == 0) {
    return kInfiniteIndex;
  }
  if (storage_ == ClockStorage::kDense) {
    const std::size_t stride = traces_.size();
    std::size_t lo = 0;     // candidates in [lo, hi)
    std::size_t hi = size;  // 0-based positions
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (trace.clocks[mid * stride + e.trace] >= e.index) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo == size) {
      return kInfiniteIndex;
    }
    return static_cast<EventIndex>(lo + 1);
  }
  // Sparse: the first change point whose value reaches e.index is the
  // successor (the entry is constant between changes).  size > 0
  // guarantees the column table exists.
  const ChangeColumn& column = trace.columns[e.trace];
  std::size_t lo = 0, hi = column.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (column[mid].value >= e.index) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == column.size()) {
    return kInfiniteIndex;
  }
  return static_cast<EventIndex>(column[lo].pos + 1);
}

EventId EventStore::send_of(std::uint64_t message) const {
  auto it = partners_.find(message);
  return it != partners_.end() ? it->second.send : EventId{};
}

EventId EventStore::receive_of(std::uint64_t message) const {
  auto it = partners_.find(message);
  return it != partners_.end() ? it->second.receive : EventId{};
}

std::size_t EventStore::approx_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const Trace& trace : traces_) {
    bytes += trace.events.capacity() * sizeof(Event) +
             trace.comm_before.capacity() * sizeof(std::uint32_t) +
             trace.clocks.capacity() * sizeof(std::uint32_t) +
             trace.last_row.capacity() * sizeof(std::uint32_t);
    for (const ChangeColumn& column : trace.columns) {
      bytes += column.capacity() * sizeof(Change);
    }
  }
  bytes += arrival_order_.capacity() * sizeof(EventId);
  return bytes;
}

const EventStore::Trace& EventStore::trace_ref(TraceId t) const {
  OCEP_ASSERT(t < traces_.size());
  return traces_[t];
}

}  // namespace ocep
