// Per-leaf event history (paper §IV-A).
//
// "Every time POET reports an event that matches a leaf node of the
// pattern tree, it is added to the corresponding leaf node's history of
// events.  This history is grouped by traces and is totally ordered for
// each individual trace."
//
// Redundancy elimination (§VI): two events on one trace with no send or
// receive event between them have the same causal relation to every event
// on other traces, so only the first is kept.  This is the O(1) overhead
// bound the paper describes; it is optional because it can drop matches of
// patterns that relate two events on the same trace.
//
// Sweep sets: a search level visits only the traces where its leaf can
// yield a candidate.  The history keeps those traces as ascending lists —
// traces() for the leaf, a slice's traces for one key of the keyed index,
// spilled_traces() for the spill tier — so a sweep never touches a trace
// that holds nothing (DESIGN.md §4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "model/ids.h"

namespace ocep {

struct HistoryEntry {
  EventIndex index = kNoEvent;
  /// Communication events on this trace before this event; equal counts
  /// (for non-communication events) mean causally identical cross-trace.
  std::uint32_t comm_before = 0;
};

class LeafHistory {
 public:
  /// What append() did with one event.
  enum class Outcome : std::uint8_t {
    kNone,    ///< not offered to this history (latest append was another)
    kStored,
    kMerged,  ///< dropped as causally redundant (§VI)
  };

  /// One spilled span of this history: entries dropped from RAM but
  /// recoverable through a SpanSink.  Metas per trace are kept oldest to
  /// newest, with strictly ascending, non-overlapping index ranges that
  /// all precede the resident entries.  Metas are bookkeeping, not
  /// entries: they are excluded from total()/approx_bytes().
  struct SpanMeta {
    std::uint64_t seq = 0;         ///< table-wide spill sequence number
    EventIndex first_index = kNoEvent;
    EventIndex last_index = kNoEvent;
    std::uint32_t count = 0;
  };

  /// One key's slice of the keyed index: the traces holding a resident
  /// entry with that key, ascending, and per trace those entries in index
  /// order.  A trace leaves the slice when its last entry for the key is
  /// dropped, and a slice left with no trace is erased, so the index is a
  /// function of the resident entries alone.
  struct KeySlice {
    std::vector<TraceId> traces;
    std::vector<std::vector<HistoryEntry>> entries;  ///< parallel to traces
  };

  /// `keyed` enables a secondary per-symbol index: entries are also
  /// grouped by a key attribute (the leaf's variable text or type), so a
  /// search with the variable already bound probes only the matching
  /// occurrences instead of filtering the whole trace history.  The index
  /// is key-major: one probe finds every trace that holds the key.
  void reset(std::size_t traces, bool keyed = false) {
    per_trace_.assign(traces, {});
    keyed_ = keyed;
    by_key_.clear();
    keys_on_.assign(keyed ? traces : 0, {});
    spilled_meta_.assign(traces, {});
    occupied_.clear();
    spilled_traces_.clear();
    total_ = 0;
    merged_ = 0;
    evicted_ = 0;
    spilled_ = 0;
    faulted_ = 0;
    lost_ = 0;
    bytes_ = 0;
    last_ = EventId{};
  }

  [[nodiscard]] bool keyed() const noexcept { return keyed_; }

  /// Appends an occurrence; indexes must arrive in increasing order per
  /// trace.  With `merge` set, drops the event when it is causally
  /// redundant with the previous stored occurrence.  Returns true when the
  /// event was stored.  `key` is the secondary-index symbol (ignored when
  /// the history is not keyed).
  bool append(TraceId trace, EventIndex index, std::uint32_t comm_before,
              bool is_communication, bool merge, Symbol key = kEmptySymbol) {
    check_insert(trace, index);
    last_ = EventId{trace, index};
    std::vector<HistoryEntry>& entries = per_trace_[trace];
    if (merge && !is_communication && !entries.empty() &&
        entries.back().comm_before == comm_before) {
      ++merged_;
      last_outcome_ = Outcome::kMerged;
      return false;
    }
    store(trace, index, comm_before, key);
    last_outcome_ = Outcome::kStored;
    return true;
  }

  /// What the latest append() did with the event `id`: kNone unless `id`
  /// was the latest event appended.  This is how the readers of a shared
  /// history learn what an arrival did to it (core/history_table.h).
  [[nodiscard]] Outcome outcome_of(EventId id) const noexcept {
    return id == last_ ? last_outcome_ : Outcome::kNone;
  }

  /// The leaf's sweep set: every trace that has held a resident entry or
  /// a spilled span, ascending.  The set only grows, so a trace emptied
  /// later is still swept.  (The byte cap never empties a trace: eviction
  /// and spill keep at least one entry, so after a checkpoint restore the
  /// set is the same.)  Searches never grow it: a fault refills a trace
  /// that holds a spilled span, which is already a member.
  [[nodiscard]] std::span<const TraceId> traces() const noexcept {
    return occupied_;
  }

  /// The traces that hold spilled spans now, ascending.  The keys of
  /// spilled entries are unknown until they are faulted back (a restore
  /// does not recompute them), so while this is non-empty a keyed sweep
  /// must visit these.
  [[nodiscard]] std::span<const TraceId> spilled_traces() const noexcept {
    return spilled_traces_;
  }

  /// The keyed index's slice for `key`, or null when no entry with that
  /// key is resident.  Appends and faults change the slice's contents but
  /// keep the pointer valid; evict_front and spill_front may erase it.
  [[nodiscard]] const KeySlice* slice(Symbol key) const {
    OCEP_ASSERT(keyed_);
    const auto it = by_key_.find(static_cast<std::uint32_t>(key));
    return it == by_key_.end() ? nullptr : &it->second;
  }

  /// The entries of `slice` on `trace` (empty when `slice` is null or does
  /// not hold the trace).
  [[nodiscard]] static std::span<const HistoryEntry> on_trace_in(
      const KeySlice* slice, TraceId trace) {
    if (slice == nullptr) {
      return {};
    }
    const std::size_t pos = position(slice->traces, trace);
    if (pos == slice->traces.size() || slice->traces[pos] != trace) {
      return {};
    }
    return slice->entries[pos];
  }

  /// Keyed variant of on_trace(): only entries whose key symbol matches.
  [[nodiscard]] std::span<const HistoryEntry> on_trace_keyed(
      TraceId trace, Symbol key) const {
    OCEP_ASSERT(trace < per_trace_.size());
    return on_trace_in(slice(key), trace);
  }

  [[nodiscard]] std::span<const HistoryEntry> on_trace(TraceId trace) const {
    OCEP_ASSERT(trace < per_trace_.size());
    return per_trace_[trace];
  }

  /// Positions [first, last) of entries with index in [lo, hi], by binary
  /// search over the sorted-by-index entries.
  struct Range {
    std::size_t first = 0;
    std::size_t last = 0;
    [[nodiscard]] bool empty() const noexcept { return first >= last; }
  };

  [[nodiscard]] Range range(TraceId trace, EventIndex lo,
                            EventIndex hi) const {
    return range_of(on_trace(trace), lo, hi);
  }

  [[nodiscard]] Range range_keyed(TraceId trace, Symbol key, EventIndex lo,
                                  EventIndex hi) const {
    return range_of(on_trace_keyed(trace, key), lo, hi);
  }

  [[nodiscard]] static Range range_of(std::span<const HistoryEntry> entries,
                                      EventIndex lo, EventIndex hi) {
    if (lo > hi || entries.empty()) {
      return {};
    }
    Range out;
    out.first = lower_bound(entries, lo);
    out.last = upper_bound(entries, hi);
    return out;
  }

  /// True if some entry on `trace` has index in [lo, hi].
  [[nodiscard]] bool any_in(TraceId trace, EventIndex lo,
                            EventIndex hi) const {
    return !range(trace, lo, hi).empty();
  }

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t merged() const noexcept { return merged_; }
  [[nodiscard]] std::size_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::size_t spilled() const noexcept { return spilled_; }
  /// Entries faulted back from spilled spans.
  [[nodiscard]] std::size_t faulted() const noexcept { return faulted_; }
  /// Spilled spans that could not be faulted back (coverage loss).
  [[nodiscard]] std::size_t spans_lost() const noexcept { return lost_; }

  /// Deterministic size estimate for memory governance: stored entry count
  /// times entry size (main plus keyed copies) plus a flat charge per
  /// non-empty (key, trace) bucket.  Counted from sizes, never capacities,
  /// so identical inputs give identical figures across allocators and
  /// growth policies.  The sweep sets are bookkeeping, like span metas,
  /// and are not counted.
  [[nodiscard]] std::size_t approx_bytes() const noexcept { return bytes_; }

  /// Largest per-trace entry count, and which trace holds it (lowest trace
  /// wins ties, keeping eviction order deterministic).
  [[nodiscard]] std::size_t largest_trace(TraceId& trace) const noexcept {
    std::size_t best = 0;
    trace = 0;
    for (const TraceId t : occupied_) {
      if (per_trace_[t].size() > best) {
        best = per_trace_[t].size();
        trace = t;
      }
    }
    return best;
  }

  /// Checkpoint support: re-inserts a surviving entry exactly as stored,
  /// bypassing the merge heuristic (the entry already survived it when it
  /// was first appended).  Counters are restored via set_counters().
  void restore_entry(TraceId trace, EventIndex index,
                     std::uint32_t comm_before, Symbol key) {
    check_insert(trace, index);
    store(trace, index, comm_before, key);
  }

  /// Checkpoint support: restores the counters that the entries alone do
  /// not determine.
  void set_counters(std::size_t merged, std::size_t evicted,
                    std::size_t spilled, std::size_t faulted,
                    std::size_t lost) {
    merged_ = merged;
    evicted_ = evicted;
    spilled_ = spilled;
    faulted_ = faulted;
    lost_ = lost;
  }

  /// Memory governance (docs/GOVERNANCE.md): drops the oldest entries on
  /// `trace`, keeping the `keep` most recent, charged to the `evicted`
  /// counter — the dropped entries were not known to be covered, so the
  /// drop is reported as coverage loss.  Returns the approximate bytes
  /// freed.
  std::size_t evict_front(TraceId trace, std::size_t keep) {
    return drop_front(trace, keep, evicted_);
  }

  // --- span spill (storage tier; see core/span_sink.h) -----------------

  /// Same front-drop as evict_front but recoverable: records a SpanMeta
  /// for the dropped prefix (charged to the `spilled` counter) so the
  /// entries can be faulted back.  Call only after the sink durably
  /// accepted the exact prefix being dropped.
  std::size_t spill_front(TraceId trace, std::size_t keep,
                          std::uint64_t seq) {
    OCEP_ASSERT(trace < per_trace_.size());
    const std::vector<HistoryEntry>& entries = per_trace_[trace];
    if (entries.size() <= keep) {
      return 0;
    }
    const std::size_t drop = entries.size() - keep;
    add_meta(trace, SpanMeta{seq, entries.front().index,
                             entries[drop - 1].index,
                             static_cast<std::uint32_t>(drop)});
    return drop_front(trace, keep, spilled_);
  }

  [[nodiscard]] bool has_spilled(TraceId trace) const {
    OCEP_ASSERT(trace < spilled_meta_.size());
    return !spilled_meta_[trace].empty();
  }
  [[nodiscard]] std::span<const SpanMeta> spilled_on(TraceId trace) const {
    OCEP_ASSERT(trace < spilled_meta_.size());
    return spilled_meta_[trace];
  }

  /// Fault-back support: re-inserts a contiguous block of entries older
  /// than everything resident (the newest spilled span).  Bypasses
  /// check_insert — prepends must keep the per-trace order, which the
  /// caller guarantees by faulting newest-first.  `keys` are the
  /// secondary-index symbols, recomputed by the caller (parallel to
  /// `entries`; ignored when the history is not keyed).
  void prepend_front(TraceId trace, std::span<const HistoryEntry> entries,
                     std::span<const Symbol> keys) {
    OCEP_ASSERT(trace < per_trace_.size());
    if (entries.empty()) {
      return;
    }
    std::vector<HistoryEntry>& resident = per_trace_[trace];
    OCEP_ASSERT(resident.empty() ||
                entries.back().index < resident.front().index);
    resident.insert(resident.begin(), entries.begin(), entries.end());
    insert_sorted(occupied_, trace);
    total_ += entries.size();
    faulted_ += entries.size();
    bytes_ += entries.size() * sizeof(HistoryEntry);
    if (keyed_) {
      OCEP_ASSERT(keys.size() == entries.size());
      // Group by key in arrival order, then prepend each group as one
      // block so every bucket stays sorted by index.  A faulted key joins
      // its slice on this trace.
      std::unordered_map<std::uint32_t, std::vector<HistoryEntry>> groups;
      std::vector<std::uint32_t> group_order;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto key = static_cast<std::uint32_t>(keys[i]);
        std::vector<HistoryEntry>& group = groups[key];
        if (group.empty()) {
          group_order.push_back(key);
        }
        group.push_back(entries[i]);
      }
      for (const std::uint32_t key : group_order) {
        std::vector<HistoryEntry>& bucket = bucket_of(key, trace);
        if (bucket.empty()) {
          bytes_ += kKeyBucketBytes;
        }
        const std::vector<HistoryEntry>& group = groups[key];
        bucket.insert(bucket.begin(), group.begin(), group.end());
        bytes_ += group.size() * sizeof(HistoryEntry);
      }
    }
  }

  /// Removes the newest spilled span's meta (its entries were faulted
  /// back via prepend_front).
  void pop_spilled(TraceId trace) {
    OCEP_ASSERT(trace < spilled_meta_.size() &&
                !spilled_meta_[trace].empty());
    spilled_meta_[trace].pop_back();
    if (spilled_meta_[trace].empty()) {
      erase_sorted(spilled_traces_, trace);
    }
  }

  /// Removes the newest spilled span's meta of a span that proved
  /// unrecoverable, counted in spans_lost().
  void lose_newest(TraceId trace) {
    pop_spilled(trace);
    ++lost_;
  }

  /// Checkpoint support: re-records one spilled meta (oldest first).
  void restore_spilled(TraceId trace, const SpanMeta& meta) {
    OCEP_ASSERT(trace < spilled_meta_.size());
    add_meta(trace, meta);
  }

 private:
  /// Caller-invariant checks for append/restore_entry.  These are caller
  /// errors (a bad ingestion path), not internal bugs, so they throw a
  /// positioned HistoryError instead of aborting.
  void check_insert(TraceId trace, EventIndex index) const {
    if (trace >= per_trace_.size()) {
      throw HistoryError("leaf history append to unknown trace", trace, index);
    }
    const std::vector<HistoryEntry>& entries = per_trace_[trace];
    if (!entries.empty() && entries.back().index >= index) {
      throw HistoryError("out-of-order leaf history append (last stored " +
                             std::to_string(entries.back().index) + ")",
                         trace, index);
    }
  }

  void store(TraceId trace, EventIndex index, std::uint32_t comm_before,
             Symbol key) {
    std::vector<HistoryEntry>& entries = per_trace_[trace];
    if (entries.empty()) {
      insert_sorted(occupied_, trace);
    }
    entries.push_back(HistoryEntry{index, comm_before});
    bytes_ += sizeof(HistoryEntry);
    if (keyed_) {
      std::vector<HistoryEntry>& keyed_entries =
          bucket_of(static_cast<std::uint32_t>(key), trace);
      if (keyed_entries.empty()) {
        bytes_ += kKeyBucketBytes;
      }
      keyed_entries.push_back(HistoryEntry{index, comm_before});
      bytes_ += sizeof(HistoryEntry);
    }
    ++total_;
  }

  std::size_t drop_front(TraceId trace, std::size_t keep,
                         std::size_t& counter) {
    OCEP_ASSERT(trace < per_trace_.size());
    std::vector<HistoryEntry>& entries = per_trace_[trace];
    if (entries.size() <= keep) {
      return 0;
    }
    const std::size_t drop = entries.size() - keep;
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(drop));
    counter += drop;
    total_ -= drop;
    std::size_t freed = drop * sizeof(HistoryEntry);
    if (keyed_) {
      // Cut this trace's buckets down to the survivors, visiting only the
      // keys present on the trace.  (The entry keys are not stored; drop
      // every keyed entry older than the new oldest index instead, all of
      // them when none survives.)
      const EventIndex oldest = entries.empty()
                                    ? std::numeric_limits<EventIndex>::max()
                                    : entries.front().index;
      std::vector<std::uint32_t>& keys = keys_on_[trace];
      for (std::size_t k = 0; k < keys.size();) {
        const auto it = by_key_.find(keys[k]);
        OCEP_ASSERT(it != by_key_.end());
        KeySlice& slice = it->second;
        const std::size_t pos = position(slice.traces, trace);
        OCEP_ASSERT(pos < slice.traces.size() && slice.traces[pos] == trace);
        std::vector<HistoryEntry>& keyed_entries = slice.entries[pos];
        const std::size_t cut = lower_bound(keyed_entries, oldest);
        freed += cut * sizeof(HistoryEntry);
        if (cut < keyed_entries.size()) {
          keyed_entries.erase(
              keyed_entries.begin(),
              keyed_entries.begin() + static_cast<std::ptrdiff_t>(cut));
          ++k;
          continue;
        }
        // The bucket empties (buckets are never empty otherwise).  Release
        // its charge so the figure always equals the survivors' accounting
        // (what a checkpoint restore recomputes), and take the trace out of
        // the key's slice, and an emptied slice out of the index, for the
        // same reason.
        freed += kKeyBucketBytes;
        slice.traces.erase(slice.traces.begin() +
                           static_cast<std::ptrdiff_t>(pos));
        slice.entries.erase(slice.entries.begin() +
                            static_cast<std::ptrdiff_t>(pos));
        if (slice.traces.empty()) {
          by_key_.erase(it);
        }
        keys[k] = keys.back();
        keys.pop_back();
      }
    }
    bytes_ -= std::min(bytes_, freed);
    return freed;
  }

  /// Flat charge for a new keyed bucket (node + hashing overhead); a fixed
  /// constant keeps the accounting deterministic across libraries.
  static constexpr std::size_t kKeyBucketBytes = 64;

  void add_meta(TraceId trace, const SpanMeta& meta) {
    if (spilled_meta_[trace].empty()) {
      insert_sorted(spilled_traces_, trace);
      insert_sorted(occupied_, trace);
    }
    spilled_meta_[trace].push_back(meta);
  }

  /// The bucket of (`key`, `trace`), inserted (empty) when absent; the
  /// caller fills it at once.
  std::vector<HistoryEntry>& bucket_of(std::uint32_t key, TraceId trace) {
    KeySlice& slice = by_key_[key];
    const std::size_t pos = position(slice.traces, trace);
    if (pos == slice.traces.size() || slice.traces[pos] != trace) {
      slice.traces.insert(
          slice.traces.begin() + static_cast<std::ptrdiff_t>(pos), trace);
      slice.entries.emplace(slice.entries.begin() +
                            static_cast<std::ptrdiff_t>(pos));
      keys_on_[trace].push_back(key);
    }
    return slice.entries[pos];
  }

  /// Position of the first element of an ascending trace list >= `trace`.
  static std::size_t position(std::span<const TraceId> traces,
                              TraceId trace) {
    return static_cast<std::size_t>(
        std::lower_bound(traces.begin(), traces.end(), trace) -
        traces.begin());
  }
  static void insert_sorted(std::vector<TraceId>& traces, TraceId trace) {
    const std::size_t pos = position(traces, trace);
    if (pos == traces.size() || traces[pos] != trace) {
      traces.insert(traces.begin() + static_cast<std::ptrdiff_t>(pos),
                    trace);
    }
  }
  static void erase_sorted(std::vector<TraceId>& traces, TraceId trace) {
    const std::size_t pos = position(traces, trace);
    if (pos != traces.size() && traces[pos] == trace) {
      traces.erase(traces.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  static std::size_t lower_bound(std::span<const HistoryEntry> entries,
                                 EventIndex value) {
    std::size_t lo = 0, hi = entries.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries[mid].index < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  static std::size_t upper_bound(std::span<const HistoryEntry> entries,
                                 EventIndex value) {
    std::size_t lo = 0, hi = entries.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries[mid].index <= value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::vector<std::vector<HistoryEntry>> per_trace_;
  /// Secondary index (when keyed): key symbol -> its slice.
  std::unordered_map<std::uint32_t, KeySlice> by_key_;
  /// When keyed, per trace the keys whose slice holds the trace (in no
  /// order), so a drop visits only those slices.  Bookkeeping, not counted
  /// in approx_bytes().
  std::vector<std::vector<std::uint32_t>> keys_on_;
  /// Per trace, oldest..newest spilled span metas (see SpanMeta).
  std::vector<std::vector<SpanMeta>> spilled_meta_;
  std::vector<TraceId> occupied_;        ///< see traces()
  std::vector<TraceId> spilled_traces_;  ///< see spilled_traces()
  bool keyed_ = false;
  std::size_t total_ = 0;
  std::size_t merged_ = 0;
  std::size_t evicted_ = 0;
  std::size_t spilled_ = 0;
  std::size_t faulted_ = 0;
  std::size_t lost_ = 0;
  std::size_t bytes_ = 0;
  /// The latest event appended, and what append() did with it.
  EventId last_;
  Outcome last_outcome_ = Outcome::kNone;
};

}  // namespace ocep
