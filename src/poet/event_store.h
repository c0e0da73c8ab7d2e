// POET-equivalent event store (paper §V-A).
//
// The core information stored by POET is a set of events grouped by traces
// plus the partial-order relationships among them.  Two timestamp storage
// backends are provided:
//
//  * kDense — per trace a row-major matrix (one row per event, one column
//    per trace): O(1) timestamp retrieval (the "future POET plugin" the
//    paper asks for in §VI) and O(log) least-successor column searches.
//    Memory: events x traces x 4 bytes.
//  * kSparse — per (trace, source) column only the *changes* are kept
//    (an entry changes only at receive events that learned something new),
//    so memory scales with the communication volume instead of
//    events x traces.  Timestamp reads become O(log changes); the
//    non-decreasing-column property still gives least-successor searches
//    directly on the change list.
//
// Both backends answer every causal query identically (property-tested);
// pick kSparse for long runs with many traces.
//
// The store is single-threaded: the thread that appends also queries.
// Per-trace storage is a StableVector (common/stable_vector.h), so a
// trace's timestamp rows grow without copying the rows before them.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "causality/vector_clock.h"
#include "common/stable_vector.h"
#include "common/string_pool.h"
#include "model/event.h"
#include "model/ids.h"

namespace ocep {

/// Sentinel index meaning "no such event" for least_successor: there is no
/// event on the queried trace that happens after the argument.
inline constexpr EventIndex kInfiniteIndex = 0xffffffffU;

enum class ClockStorage : std::uint8_t { kDense, kSparse };

class EventStore {
 public:
  explicit EventStore(ClockStorage storage = ClockStorage::kDense)
      : storage_(storage) {}

  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;
  EventStore(EventStore&&) noexcept = default;
  EventStore& operator=(EventStore&&) noexcept = default;

  [[nodiscard]] ClockStorage storage() const noexcept { return storage_; }

  /// Registers a trace.  All traces must be added before the first event so
  /// that every stored timestamp has one entry per trace.
  TraceId add_trace(Symbol name);

  /// Sizes the trace table for `count` traces, so registering a wide
  /// computation does not relocate the per-trace storage as it grows.
  void reserve_traces(std::size_t count) { traces_.reserve(count); }

  [[nodiscard]] std::size_t trace_count() const noexcept {
    return traces_.size();
  }
  [[nodiscard]] Symbol trace_name(TraceId t) const;

  /// Appends an event with its timestamp.  `event.id.trace` must be a
  /// registered trace, `event.id.index` the next index on it, and
  /// `clock[trace]` equal to the index (Fidge/Mattern invariant).
  ///
  /// Appends across traces must form a linearization of the partial order
  /// (each event after all its causal predecessors); this is how every
  /// producer — the simulator, reload, the POET wire — naturally emits, and
  /// it lets replay() run in O(1) per event.  Checked in debug builds.
  void append(const Event& event, const VectorClock& clock);

  /// Read-only view of the order in which events were appended: a
  /// linearization of the partial order.
  class ArrivalView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EventId;
      using difference_type = std::ptrdiff_t;
      using pointer = const EventId*;
      using reference = const EventId&;

      Iterator(const StableVector<EventId>* order, std::size_t pos)
          : order_(order), pos_(pos) {}
      reference operator*() const { return (*order_)[pos_]; }
      Iterator& operator++() {
        ++pos_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator copy = *this;
        ++pos_;
        return copy;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.pos_ == b.pos_;
      }
      friend bool operator!=(const Iterator& a, const Iterator& b) {
        return a.pos_ != b.pos_;
      }

     private:
      const StableVector<EventId>* order_;
      std::size_t pos_;
    };

    ArrivalView(const StableVector<EventId>& order, std::size_t count)
        : order_(&order), count_(count) {}
    [[nodiscard]] Iterator begin() const { return Iterator(order_, 0); }
    [[nodiscard]] Iterator end() const { return Iterator(order_, count_); }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] EventId operator[](std::size_t pos) const {
      return (*order_)[pos];
    }

   private:
    const StableVector<EventId>* order_;
    std::size_t count_;
  };

  [[nodiscard]] ArrivalView arrival_order() const noexcept {
    return ArrivalView(arrival_order_, arrival_order_.size());
  }

  /// The id of the event at arrival position `pos` (0-based); `pos` must be
  /// below event_count().
  [[nodiscard]] EventId arrival(std::uint64_t pos) const {
    return arrival_order_[static_cast<std::size_t>(pos)];
  }

  [[nodiscard]] std::size_t event_count() const noexcept {
    return total_events_;
  }

  [[nodiscard]] EventIndex trace_size(TraceId t) const;

  [[nodiscard]] const Event& event(EventId id) const;

  /// Communication events (send or receive) on id's trace before id: the
  /// §VI redundancy key of leaf histories.  Two events on one trace with
  /// equal counts relate identically to every event on other traces.
  [[nodiscard]] std::uint32_t comm_before(EventId id) const;

  /// e's knowledge of trace s: V_e[s].  O(1) dense, O(log) sparse.
  [[nodiscard]] std::uint32_t clock_entry(EventId e, TraceId s) const;

  /// Materialized copy of e's timestamp.
  [[nodiscard]] VectorClock clock(EventId e) const;

  // --- Causal queries -----------------------------------------------------

  [[nodiscard]] bool happens_before(EventId a, EventId b) const;
  [[nodiscard]] Relation relate(EventId a, EventId b) const;

  /// Greatest predecessor GP(e, t): the most-recent event on trace t that
  /// happens before e; kNoEvent (0) when no event on t precedes e.
  [[nodiscard]] EventIndex greatest_predecessor(EventId e, TraceId t) const;

  /// Least successor LS(e, t): the least-recent event on trace t that
  /// happens after e; kInfiniteIndex when none exists (yet).
  [[nodiscard]] EventIndex least_successor(EventId e, TraceId t) const;

  /// Partner lookup for point-to-point messages (the pattern language's
  /// '<->' operator): the send / receive event carrying message id `m`.
  /// Returns an id with index == kNoEvent when not (yet) stored.
  [[nodiscard]] EventId send_of(std::uint64_t message) const;
  [[nodiscard]] EventId receive_of(std::uint64_t message) const;

  /// Approximate resident size, for the memory-bound experiments.
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

 private:
  /// One change point of a sparse column: from event `pos` (0-based) on,
  /// the entry is `value` (until the next change).
  struct Change {
    std::uint32_t pos = 0;
    std::uint32_t value = 0;
  };

  /// Sparse columns start tiny (16 elements): most (trace, source) pairs
  /// see few changes, and the chunk geometry doubles for the busy ones.
  using ChangeColumn = StableVector<Change, 4>;

  struct Trace {
    Symbol name = kEmptySymbol;
    /// Events and, per event, comm_before().  Both start at 64 entries,
    /// so wide computations of short traces stay small.
    StableVector<Event, 6> events;
    StableVector<std::uint32_t, 6> comm_before;
    std::uint32_t comm_count = 0;  ///< the next event's comm_before()
    /// kDense: row-major timestamps, event j (0-based) occupies
    /// [j * stride, (j + 1) * stride).  A row is appended as one block.
    StableVector<std::uint32_t> clocks;
    /// kSparse: per source trace, the change list of column V[.][source];
    /// plus the last full row for O(n) append-time delta detection.
    std::vector<ChangeColumn> columns;
    std::vector<std::uint32_t> last_row;
  };

  [[nodiscard]] const Trace& trace_ref(TraceId t) const;

  struct Partners {
    EventId send;
    EventId receive;
  };

  ClockStorage storage_ = ClockStorage::kDense;
  std::vector<Trace> traces_;
  StableVector<EventId> arrival_order_;
  std::unordered_map<std::uint64_t, Partners> partners_;
  std::size_t total_events_ = 0;
};

}  // namespace ocep
