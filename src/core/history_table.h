// The leaf histories of one Monitor, one per event class (paper §IV-A).
//
// The paper adds each arriving event to "the corresponding leaf node's
// history".  Leaves — of one pattern or of several — that accept the same
// events and store them the same way would hold equal histories, so the
// table keeps one per class and appends each arrival once per class that
// accepts it.  A class (LeafClass) is everything a history's content
// depends on besides the arrival stream: the leaf's process, type and text
// (each a literal, or any value for a wildcard or variable), the attribute
// its keyed index groups by, and whether §VI redundancy elimination
// applies.  So every reader sees exactly what a copy of its own would
// hold (DESIGN.md §4 "Shared evaluation").
//
// The table also owns every other change to a history: the byte cap,
// which evicts or spills the largest (history, trace) pair, and the span
// tier (core/span_sink.h), which faults spilled spans back when a search
// needs them.  A standalone OcepMatcher owns a table of its own pattern's
// classes; a Monitor owns one for all its patterns.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/history.h"
#include "core/span_sink.h"
#include "pattern/compiled.h"
#include "poet/event_store.h"

namespace ocep {

/// The attribute a keyed history groups its entries by: the leaf's text
/// variable, else its type variable, else none.
enum class KeyAttr : std::uint8_t { kNone, kText, kType };

[[nodiscard]] KeyAttr key_attr_of(const pattern::Leaf& leaf) noexcept;

/// What a leaf's history holds and how (see the header comment).
struct LeafClass {
  /// One attribute's filter: a literal, or any value.
  struct Filter {
    bool any = true;
    Symbol literal = kEmptySymbol;
    friend bool operator==(const Filter&, const Filter&) = default;
  };
  Filter process;
  Filter type;
  Filter text;
  KeyAttr key = KeyAttr::kNone;
  /// §VI merging; off for a leaf quantified by '-lim->'.
  bool merge = true;
  friend bool operator==(const LeafClass&, const LeafClass&) = default;

  [[nodiscard]] static LeafClass of(const pattern::Leaf& leaf, bool merge);
  [[nodiscard]] bool accepts(const Event& event,
                             const EventStore& store) const {
    return (type.any || type.literal == event.type) &&
           (text.any || text.literal == event.text) &&
           (process.any ||
            process.literal == store.trace_name(event.id.trace));
  }
  /// The keyed index's symbol for `event` (kEmptySymbol when not keyed).
  [[nodiscard]] Symbol key_of(const Event& event) const noexcept {
    return key == KeyAttr::kText
               ? event.text
               : (key == KeyAttr::kType ? event.type : kEmptySymbol);
  }
};

/// Threading contract: single-owner, like the matchers reading it.
class HistoryTable {
 public:
  /// `bytes_limit` caps approx_bytes() (0 = unbounded); see
  /// enforce_budget().  The store must outlive the table.
  explicit HistoryTable(const EventStore& store, std::size_t bytes_limit = 0)
      : store_(store), bytes_limit_(bytes_limit) {}

  /// The id of `cls`'s history, created empty over the store's traces on
  /// first use.  The first (pattern, leaf) to declare a class names its
  /// spans at the sink.
  std::uint32_t intern(const LeafClass& cls, std::uint32_t pattern,
                       std::uint32_t leaf);

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] const LeafClass& leaf_class(std::uint32_t id) const {
    return slots_[id].cls;
  }
  /// References stay valid as classes are interned.
  [[nodiscard]] LeafHistory& history(std::uint32_t id) {
    return *slots_[id].history;
  }
  [[nodiscard]] const LeafHistory& history(std::uint32_t id) const {
    return *slots_[id].history;
  }

  /// Appends the arrival `event` to the history of each class in
  /// `classes` (distinct ids) that accepts it; each reader then learns
  /// what it did from LeafHistory::outcome_of.  Events must arrive in the
  /// store's order.  Inline: it runs once per arrival.
  void append(const Event& event, std::span<const std::uint32_t> classes) {
    const bool is_comm = is_communication(event.kind);
    bool comm_known = false;
    std::uint32_t comm = 0;
    for (const std::uint32_t id : classes) {
      const Slot& slot = slots_[id];
      if (!slot.cls.accepts(event, store_)) {
        continue;
      }
      if (!comm_known) {
        comm = store_.comm_before(event.id);
        comm_known = true;
      }
      slot.history->append(event.id.trace, event.id.index, comm, is_comm,
                           slot.cls.merge, slot.cls.key_of(event));
    }
  }

  /// Approximate bytes held by every history (LeafHistory::approx_bytes).
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

  /// Past the byte cap, spills (with a sink) or evicts the oldest entries
  /// of the largest (history, trace) pair — lowest id, then lowest trace,
  /// on ties — until approx_bytes() is back under half the cap.  Call
  /// between arrivals, never inside a search.
  void enforce_budget() {
    if (bytes_limit_ != 0) {
      enforce_cap();
    }
  }

  /// Moves whenever a history changes other than by append(): an
  /// eviction, a spill, a fault or a lost span.  Readers then recompute
  /// their history counters.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  // --- span tier (core/span_sink.h) ----------------------------------

  /// Attaches the sink the byte cap spills to; null detaches (spilled
  /// metas then become unreachable, so only detach on teardown).  Attach
  /// before any events are appended or restored; the sink must outlive
  /// the table.
  void set_span_sink(SpanSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] bool spills() const noexcept { return sink_ != nullptr; }

  /// Faults the newest spilled span of (`id`, `trace`) back when it can
  /// hold an index >= `lo`; false when no spilled span there can.  Spans
  /// are older than the resident entries, so a fault grows every view of
  /// the trace below its resident part: a search faults one span at a
  /// time, only when its latest-first scan runs off the resident entries.
  bool fault_next(std::uint32_t id, TraceId trace, EventIndex lo);

  /// Faults every spilled span back into RAM and releases it at the sink
  /// (before a migration freeze, so the checkpoint is self-contained).
  void fault_all_spans();

  /// Enumerates every span currently spilled, as the sink knows it:
  /// (pattern, leaf, trace, seq).
  void for_each_spilled(
      const std::function<void(std::uint32_t pattern, std::uint32_t leaf,
                               TraceId trace, std::uint64_t seq)>& fn) const;

  // --- checkpoint -----------------------------------------------------

  /// Writes the spill sequence and, per history, its counters, resident
  /// entries and span metas.  Keys are recomputed from the store on
  /// restore, so they are not written.
  void checkpoint(std::ostream& out) const;

  /// Counterpart of checkpoint(), into a table with the same classes
  /// interned and nothing appended, over a store that already holds every
  /// checkpointed event.  Throws SerializationError when the blob is
  /// inconsistent with the classes or the store.
  void restore(std::istream& in);

 private:
  struct Slot {
    LeafClass cls;
    std::uint32_t pattern = 0;  ///< the first declaring leaf: span key
    std::uint32_t leaf = 0;
    std::unique_ptr<LeafHistory> history;  ///< stable for the readers
  };

  void enforce_cap();
  /// Offers the prefix past `keep` of (`id`, `trace`) to the sink;
  /// returns the bytes freed, 0 when the sink declined.
  std::size_t spill(std::uint32_t id, TraceId trace, std::size_t keep);
  /// Faults the newest spilled span of (`id`, `trace`) back into RAM; an
  /// unreadable span is dropped and counted as lost.  Either way the meta
  /// is consumed, so callers that loop terminate.
  void fault_newest(std::uint32_t id, TraceId trace);

  const EventStore& store_;
  std::size_t bytes_limit_ = 0;
  std::vector<Slot> slots_;
  SpanSink* sink_ = nullptr;
  /// Monotonic spill sequence, so replaying the same events repeats
  /// identical span identities.  Checkpointed.
  std::uint64_t next_span_seq_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace ocep
