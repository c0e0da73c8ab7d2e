// Where evicted leaf-history spans go — and come back from.
//
// The byte-capped history eviction of a Monitor's history table
// (core/history_table.h, docs/GOVERNANCE.md) turns into a memory hierarchy
// when a sink is attached: instead of discarding the oldest entries of the
// largest (history, trace) pair, the table offers them to the sink as one
// contiguous span, identified by a table-wide monotonic sequence number.
// A deep search that needs history older than the in-RAM window faults
// spans back in newest-first order and releases them.
//
// A span is addressed by the (pattern, leaf) of the first leaf that
// declared its history's class, so the key names one history however many
// patterns read it.
//
// The production sink (src/net/tenant_host.cc) appends spans to the tenant's
// segment log and serves faults through the shared buffer pool; the
// table itself only depends on this interface, so core stays free of any
// store dependency.  A sink that declines a spill (returns false) falls the
// table back to plain eviction — the entries are then lost, exactly the
// pre-sink behaviour.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/history.h"
#include "model/ids.h"

namespace ocep {

class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// Offers one span of evicted entries (indices strictly ascending).
  /// True = the sink durably owns a copy and the table may drop the
  /// entries from RAM; false = decline (the table evicts instead).
  virtual bool spill(std::uint32_t pattern, std::uint32_t leaf,
                     TraceId trace, std::uint64_t seq,
                     std::span<const HistoryEntry> entries) = 0;

  /// Loads a previously spilled span back; fills `out` with the exact
  /// entries passed to spill().  False when the span cannot be read.
  virtual bool fault(std::uint32_t pattern, std::uint32_t leaf,
                     TraceId trace, std::uint64_t seq,
                     std::vector<HistoryEntry>& out) = 0;

  /// The span is no longer needed (faulted back into RAM for good, or
  /// unreadable); the sink may reclaim it.
  virtual void release(std::uint32_t pattern, std::uint32_t leaf,
                       TraceId trace, std::uint64_t seq) = 0;
};

}  // namespace ocep
