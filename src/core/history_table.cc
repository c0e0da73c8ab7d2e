#include "core/history_table.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/assert.h"
#include "common/error.h"
#include "poet/varint.h"

namespace ocep {
namespace {

/// Share of the byte cap a capped table is evicted down to.
constexpr double kHistoryLowFraction = 0.5;

LeafClass::Filter filter_of(const pattern::Attr& attr) {
  if (attr.kind == pattern::Attr::Kind::kLiteral) {
    return {false, attr.literal};
  }
  return {};
}

}  // namespace

KeyAttr key_attr_of(const pattern::Leaf& leaf) noexcept {
  if (leaf.text.kind == pattern::Attr::Kind::kVariable) {
    return KeyAttr::kText;
  }
  if (leaf.type.kind == pattern::Attr::Kind::kVariable) {
    return KeyAttr::kType;
  }
  return KeyAttr::kNone;
}

LeafClass LeafClass::of(const pattern::Leaf& leaf, bool merge) {
  LeafClass cls;
  cls.process = filter_of(leaf.process);
  cls.type = filter_of(leaf.type);
  cls.text = filter_of(leaf.text);
  cls.key = key_attr_of(leaf);
  cls.merge = merge;
  return cls;
}

std::uint32_t HistoryTable::intern(const LeafClass& cls, std::uint32_t pattern,
                                   std::uint32_t leaf) {
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].cls == cls) {
      return id;
    }
  }
  auto history = std::make_unique<LeafHistory>();
  history->reset(store_.trace_count(), cls.key != KeyAttr::kNone);
  slots_.push_back(Slot{cls, pattern, leaf, std::move(history)});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::size_t HistoryTable::approx_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Slot& slot : slots_) {
    bytes += slot.history->approx_bytes();
  }
  return bytes;
}

void HistoryTable::enforce_cap() {
  std::size_t bytes = approx_bytes();
  if (bytes <= bytes_limit_) {
    return;
  }
  const auto low = static_cast<std::size_t>(
      static_cast<double>(bytes_limit_) * kHistoryLowFraction);
  while (bytes > low) {
    std::uint32_t best_id = 0;
    TraceId best_trace = 0;
    std::size_t best_size = 0;
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
      TraceId trace = 0;
      const std::size_t size = history(id).largest_trace(trace);
      if (size > best_size) {
        best_size = size;
        best_id = id;
        best_trace = trace;
      }
    }
    if (best_size <= 1) {
      break;  // nothing evictable left without emptying a pair entirely
    }
    // With a sink attached the prefix spills (recoverable); eviction is
    // the fallback when the sink declines (e.g. degraded store).
    std::size_t freed = 0;
    if (sink_ != nullptr) {
      freed = spill(best_id, best_trace, best_size / 2);
    }
    if (freed == 0) {
      freed = history(best_id).evict_front(best_trace, best_size / 2);
    }
    if (freed == 0) {
      break;
    }
    ++generation_;
    bytes -= std::min(bytes, freed);
  }
}

std::size_t HistoryTable::spill(std::uint32_t id, TraceId trace,
                                std::size_t keep) {
  const std::span<const HistoryEntry> entries = history(id).on_trace(trace);
  if (entries.size() <= keep) {
    return 0;
  }
  const std::size_t drop = entries.size() - keep;
  const Slot& slot = slots_[id];
  if (!sink_->spill(slot.pattern, slot.leaf, trace, next_span_seq_,
                    entries.first(drop))) {
    return 0;
  }
  const std::size_t freed =
      history(id).spill_front(trace, keep, next_span_seq_);
  ++next_span_seq_;
  return freed;
}

void HistoryTable::fault_newest(std::uint32_t id, TraceId trace) {
  const Slot& slot = slots_[id];
  LeafHistory& history = *slot.history;
  OCEP_ASSERT(history.has_spilled(trace));
  const LeafHistory::SpanMeta meta = history.spilled_on(trace).back();
  ++generation_;
  std::vector<HistoryEntry> entries;
  bool valid =
      sink_ != nullptr &&
      sink_->fault(slot.pattern, slot.leaf, trace, meta.seq, entries) &&
      entries.size() == meta.count;
  if (valid) {
    EventIndex prev = kNoEvent;
    for (const HistoryEntry& entry : entries) {
      if (entry.index == kNoEvent || entry.index > store_.trace_size(trace) ||
          (prev != kNoEvent && entry.index <= prev)) {
        valid = false;
        break;
      }
      prev = entry.index;
    }
    const std::span<const HistoryEntry> resident = history.on_trace(trace);
    if (valid && !resident.empty() &&
        entries.back().index >= resident.front().index) {
      valid = false;
    }
  }
  if (!valid) {
    // Unrecoverable (store degraded, record corrupt): proceed over what
    // remains, reported as permanent coverage loss.
    history.lose_newest(trace);
    if (sink_ != nullptr) {
      sink_->release(slot.pattern, slot.leaf, trace, meta.seq);
    }
    return;
  }
  history.pop_spilled(trace);
  std::vector<Symbol> keys;
  if (history.keyed()) {
    keys.reserve(entries.size());
    for (const HistoryEntry& entry : entries) {
      keys.push_back(
          slot.cls.key_of(store_.event(EventId{trace, entry.index})));
    }
  }
  history.prepend_front(trace, entries, keys);
  sink_->release(slot.pattern, slot.leaf, trace, meta.seq);
}

bool HistoryTable::fault_next(std::uint32_t id, TraceId trace,
                              EventIndex lo) {
  const LeafHistory& history = this->history(id);
  if (!history.has_spilled(trace) ||
      history.spilled_on(trace).back().last_index < lo) {
    return false;
  }
  fault_newest(id, trace);  // consumes a meta either way: callers' loops end
  return true;
}

void HistoryTable::fault_all_spans() {
  if (sink_ == nullptr) {
    return;
  }
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    // Each fault consumes a meta; a trace leaves the list with its last.
    while (!history(id).spilled_traces().empty()) {
      fault_newest(id, history(id).spilled_traces().front());
    }
  }
}

void HistoryTable::for_each_spilled(
    const std::function<void(std::uint32_t pattern, std::uint32_t leaf,
                             TraceId trace, std::uint64_t seq)>& fn) const {
  for (const Slot& slot : slots_) {
    for (const TraceId t : slot.history->spilled_traces()) {
      for (const LeafHistory::SpanMeta& meta : slot.history->spilled_on(t)) {
        fn(slot.pattern, slot.leaf, t, meta.seq);
      }
    }
  }
}

void HistoryTable::checkpoint(std::ostream& out) const {
  const std::size_t traces = store_.trace_count();
  poet::put_varint(out, next_span_seq_);
  poet::put_varint(out, slots_.size());
  for (const Slot& slot : slots_) {
    const LeafHistory& history = *slot.history;
    for (const std::size_t counter :
         {history.merged(), history.evicted(), history.spilled(),
          history.faulted(), history.spans_lost()}) {
      poet::put_varint(out, counter);
    }
    for (TraceId t = 0; t < traces; ++t) {
      const std::span<const HistoryEntry> entries = history.on_trace(t);
      poet::put_varint(out, entries.size());
      for (const HistoryEntry& entry : entries) {
        poet::put_varint(out, entry.index);
        poet::put_varint(out, entry.comm_before);
      }
      // The entries themselves of spilled spans live at the sink (the
      // tenant's log), addressed by the fingerprints recorded here.
      const std::span<const LeafHistory::SpanMeta> metas =
          history.spilled_on(t);
      poet::put_varint(out, metas.size());
      for (const LeafHistory::SpanMeta& meta : metas) {
        poet::put_varint(out, meta.seq);
        poet::put_varint(out, meta.first_index);
        poet::put_varint(out, meta.last_index);
        poet::put_varint(out, meta.count);
      }
    }
  }
}

void HistoryTable::restore(std::istream& in) {
  const std::size_t traces = store_.trace_count();
  next_span_seq_ = poet::get_varint(in);
  if (poet::get_varint(in) != slots_.size()) {
    throw SerializationError(
        "checkpoint history count does not match the registered patterns");
  }
  for (const Slot& slot : slots_) {
    LeafHistory& history = *slot.history;
    // Sequenced reads: as direct arguments their evaluation order would be
    // unspecified.
    std::uint64_t counters[5];
    for (std::uint64_t& counter : counters) {
      counter = poet::get_varint(in);
    }
    history.set_counters(counters[0], counters[1], counters[2], counters[3],
                         counters[4]);
    for (TraceId t = 0; t < traces; ++t) {
      const std::uint64_t count = poet::get_varint(in);
      if (count > store_.trace_size(t)) {
        throw SerializationError("checkpoint history longer than its trace");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto index = static_cast<EventIndex>(poet::get_varint(in));
        const auto comm = static_cast<std::uint32_t>(poet::get_varint(in));
        if (index == kNoEvent || index > store_.trace_size(t)) {
          throw SerializationError("checkpoint history entry out of range");
        }
        history.restore_entry(
            t, index, comm, slot.cls.key_of(store_.event(EventId{t, index})));
      }
      const std::uint64_t meta_count = poet::get_varint(in);
      if (meta_count > store_.trace_size(t)) {
        throw SerializationError("checkpoint spans exceed the trace");
      }
      EventIndex prev_last = kNoEvent;
      for (std::uint64_t i = 0; i < meta_count; ++i) {
        LeafHistory::SpanMeta meta;
        meta.seq = poet::get_varint(in);
        meta.first_index = static_cast<EventIndex>(poet::get_varint(in));
        meta.last_index = static_cast<EventIndex>(poet::get_varint(in));
        meta.count = static_cast<std::uint32_t>(poet::get_varint(in));
        if (meta.count == 0 || meta.first_index == kNoEvent ||
            meta.first_index > meta.last_index ||
            meta.last_index > store_.trace_size(t) ||
            (prev_last != kNoEvent && meta.first_index <= prev_last)) {
          throw SerializationError("checkpoint span meta out of range");
        }
        prev_last = meta.last_index;
        history.restore_spilled(t, meta);
      }
      const std::span<const HistoryEntry> resident = history.on_trace(t);
      if (prev_last != kNoEvent && !resident.empty() &&
          prev_last >= resident.front().index) {
        throw SerializationError(
            "checkpoint span metas overlap resident history");
      }
    }
  }
  ++generation_;
}

}  // namespace ocep
