// Unit tests for the leaf history (with the §VI redundancy elimination and
// the keyed secondary index) and the representative subset container.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/history.h"
#include "core/subset.h"

namespace ocep {
namespace {

// --- LeafHistory -------------------------------------------------------------

TEST(LeafHistory, AppendAndRange) {
  LeafHistory history;
  history.reset(2);
  history.append(0, 1, 0, false, false);
  history.append(0, 5, 1, false, false);
  history.append(0, 9, 2, false, false);
  history.append(1, 2, 0, false, false);

  EXPECT_EQ(history.total(), 4U);
  EXPECT_EQ(history.on_trace(0).size(), 3U);

  const auto mid = history.range(0, 2, 8);
  EXPECT_EQ(mid.last - mid.first, 1U);
  EXPECT_EQ(history.on_trace(0)[mid.first].index, 5U);

  EXPECT_TRUE(history.range(0, 10, 20).empty());
  EXPECT_TRUE(history.range(0, 8, 2).empty());  // inverted interval
  const auto all = history.range(0, 1, 9);
  EXPECT_EQ(all.last - all.first, 3U);
}

TEST(LeafHistory, MergeDropsCausallyIdenticalEvents) {
  LeafHistory history;
  history.reset(1);
  // Three events with the same communication count: only the first stays.
  EXPECT_TRUE(history.append(0, 1, 0, false, true));
  EXPECT_FALSE(history.append(0, 2, 0, false, true));
  EXPECT_FALSE(history.append(0, 3, 0, false, true));
  // A communication event bumps the count; the next event survives.
  EXPECT_TRUE(history.append(0, 4, 0, true, true));
  EXPECT_TRUE(history.append(0, 5, 1, false, true));
  EXPECT_EQ(history.total(), 3U);
  EXPECT_EQ(history.merged(), 2U);
}

TEST(LeafHistory, CommunicationEventsAreNeverMerged) {
  LeafHistory history;
  history.reset(1);
  EXPECT_TRUE(history.append(0, 1, 0, true, true));
  EXPECT_TRUE(history.append(0, 2, 1, true, true));
  EXPECT_TRUE(history.append(0, 3, 2, true, true));
  EXPECT_EQ(history.merged(), 0U);
}

TEST(LeafHistory, KeyedIndexGroupsBySymbol) {
  LeafHistory history;
  history.reset(2, /*keyed=*/true);
  const Symbol x{1}, y{2};
  history.append(0, 1, 0, false, false, x);
  history.append(0, 2, 0, false, false, y);
  history.append(0, 3, 0, false, false, x);
  history.append(1, 1, 0, false, false, x);

  EXPECT_EQ(history.on_trace_keyed(0, x).size(), 2U);
  EXPECT_EQ(history.on_trace_keyed(0, y).size(), 1U);
  EXPECT_TRUE(history.on_trace_keyed(0, Symbol{9}).empty());
  const auto ranged = history.range_keyed(0, x, 2, 3);
  EXPECT_EQ(ranged.last - ranged.first, 1U);
}

TEST(LeafHistory, EvictFrontKeepsTheMostRecent) {
  LeafHistory history;
  history.reset(1);
  for (EventIndex i = 1; i <= 20; ++i) {
    history.append(0, i, 0, true, false);
  }
  history.evict_front(0, 5);
  EXPECT_EQ(history.on_trace(0).size(), 5U);
  EXPECT_EQ(history.on_trace(0).front().index, 16U);
  EXPECT_EQ(history.evicted(), 15U);
  EXPECT_EQ(history.total(), 5U);
  // Evicting below the current size is a no-op.
  EXPECT_EQ(history.evict_front(0, 10), 0U);
  EXPECT_EQ(history.on_trace(0).size(), 5U);
}

TEST(LeafHistory, EvictFrontUpdatesKeyedIndex) {
  LeafHistory history;
  history.reset(1, /*keyed=*/true);
  const Symbol x{1}, y{2};
  for (EventIndex i = 1; i <= 10; ++i) {
    history.append(0, i, 0, true, false, i % 2 == 0 ? x : y);
  }
  history.evict_front(0, 4);  // keep indexes 7..10
  EXPECT_EQ(history.on_trace_keyed(0, x).size(), 2U);  // 8, 10
  EXPECT_EQ(history.on_trace_keyed(0, y).size(), 2U);  // 7, 9
  EXPECT_EQ(history.on_trace_keyed(0, x).front().index, 8U);
}

// Feeding a corrupt stream used to abort the process (OCEP_ASSERT); a
// monitor embedded in a long-lived service needs a catchable, positioned
// error instead.
TEST(LeafHistory, OutOfOrderAppendThrowsPositionedError) {
  LeafHistory history;
  history.reset(2);
  history.append(0, 5, 0, false, false);
  try {
    history.append(0, 5, 1, false, false);  // same index: not increasing
    FAIL() << "expected a HistoryError";
  } catch (const HistoryError& error) {
    EXPECT_EQ(error.trace(), 0U);
    EXPECT_EQ(error.index(), 5U);
    const std::string what = error.what();
    EXPECT_NE(what.find("out-of-order"), std::string::npos);
    EXPECT_NE(what.find("(trace 0, event index 5)"), std::string::npos);
  }
  EXPECT_THROW(history.append(0, 3, 1, false, false), HistoryError);
  // The history survives the rejected appends untouched.
  EXPECT_EQ(history.total(), 1U);
  history.append(0, 6, 1, false, false);
  EXPECT_EQ(history.total(), 2U);
}

TEST(LeafHistory, UnknownTraceAppendThrowsPositionedError) {
  LeafHistory history;
  history.reset(2);
  try {
    history.append(7, 1, 0, false, false);
    FAIL() << "expected a HistoryError";
  } catch (const HistoryError& error) {
    EXPECT_EQ(error.trace(), 7U);
    EXPECT_EQ(error.index(), 1U);
    EXPECT_NE(std::string(error.what()).find("unknown trace"),
              std::string::npos);
  }
  // HistoryError is an ocep::Error, so existing catch sites keep working.
  EXPECT_THROW(history.append(7, 1, 0, false, false), Error);
}

TEST(LeafHistory, EvictFrontCountsAndFreesBytes) {
  LeafHistory history;
  history.reset(2, /*keyed=*/true);
  const Symbol x{1};
  for (EventIndex i = 1; i <= 8; ++i) {
    history.append(0, i, 0, true, false, x);
    history.append(1, i, 0, true, false, x);
  }
  const std::size_t before = history.approx_bytes();
  TraceId largest = 99;
  EXPECT_EQ(history.largest_trace(largest), 8U);
  EXPECT_EQ(largest, 0U) << "ties break to the lowest trace";

  const std::size_t freed = history.evict_front(0, /*keep=*/3);
  EXPECT_GT(freed, 0U);
  EXPECT_EQ(history.approx_bytes(), before - freed);
  EXPECT_EQ(history.evicted(), 5U);
  EXPECT_EQ(history.on_trace(0).size(), 3U);
  EXPECT_EQ(history.on_trace(0).front().index, 6U);
  // The keyed index was cut consistently with the main entries.
  EXPECT_EQ(history.on_trace_keyed(0, x).front().index, 6U);
}

// --- sweep sets --------------------------------------------------------------

std::vector<TraceId> as_vector(std::span<const TraceId> traces) {
  return {traces.begin(), traces.end()};
}

/// The slice's traces for `key`, empty when the key has no slice.
std::vector<TraceId> key_traces(const LeafHistory& history, Symbol key) {
  const LeafHistory::KeySlice* slice = history.slice(key);
  return slice == nullptr ? std::vector<TraceId>{}
                          : std::vector<TraceId>(slice->traces);
}

/// The byte figure the governance cap has always charged: every resident
/// entry twice (main and keyed copy) plus 64 bytes per non-empty (key,
/// trace) bucket.  The sweep sets add nothing to it.
std::size_t charged_bytes(std::size_t entries, std::size_t buckets) {
  return entries * 2 * sizeof(HistoryEntry) + buckets * 64;
}

TEST(LeafHistory, SweepSetsAreAscendingWhateverTheArrivalOrder) {
  LeafHistory history;
  history.reset(6, /*keyed=*/true);
  const Symbol x{1}, y{2};
  history.append(4, 1, 0, true, false, x);
  history.append(1, 1, 0, true, false, y);
  history.append(3, 1, 0, true, false, x);
  history.append(1, 2, 1, true, false, x);
  history.append(0, 1, 0, true, false, y);
  EXPECT_EQ(as_vector(history.traces()), (std::vector<TraceId>{0, 1, 3, 4}));
  EXPECT_EQ(key_traces(history, x), (std::vector<TraceId>{1, 3, 4}));
  EXPECT_EQ(key_traces(history, y), (std::vector<TraceId>{0, 1}));
  EXPECT_EQ(history.slice(Symbol{9}), nullptr);
  EXPECT_TRUE(history.spilled_traces().empty());
  EXPECT_EQ(history.approx_bytes(), charged_bytes(5, 5));
}

TEST(LeafHistory, SweepSetsTrackEvictSpillFaultAndRestore) {
  LeafHistory history;
  history.reset(4, /*keyed=*/true);
  const Symbol x{1}, y{2}, z{3};
  // Trace 2: x x y y z z (indices 1..6); trace 0: z (index 1).
  const Symbol keys[] = {x, x, y, y, z, z};
  for (EventIndex i = 1; i <= 6; ++i) {
    history.append(2, i, i, true, false, keys[i - 1]);
  }
  history.append(0, 1, 0, true, false, z);
  EXPECT_EQ(history.approx_bytes(), charged_bytes(7, 4));

  // Spill 1..2: x leaves trace 2's slice (its only trace, so the slice
  // goes), the trace joins the spilled list, and the leaf's set is
  // unchanged.
  const std::size_t freed = history.spill_front(2, /*keep=*/4, /*seq=*/0);
  EXPECT_EQ(freed, 2 * 2 * sizeof(HistoryEntry) + 64);
  EXPECT_EQ(as_vector(history.traces()), (std::vector<TraceId>{0, 2}));
  EXPECT_EQ(as_vector(history.spilled_traces()), std::vector<TraceId>{2});
  EXPECT_EQ(history.slice(x), nullptr);
  EXPECT_EQ(key_traces(history, z), (std::vector<TraceId>{0, 2}));
  EXPECT_EQ(history.approx_bytes(), charged_bytes(5, 3));

  // Evict 3: y keeps trace 2 (index 4 survives).
  history.evict_front(2, /*keep=*/3);
  EXPECT_EQ(key_traces(history, y), std::vector<TraceId>{2});
  EXPECT_EQ(history.approx_bytes(), charged_bytes(4, 3));

  // A checkpoint restore rebuilds the same sets from the survivors and
  // the metas, with the same byte figure.
  LeafHistory restored;
  restored.reset(4, /*keyed=*/true);
  for (const TraceId t : history.traces()) {
    for (const HistoryEntry& entry : history.on_trace(t)) {
      const Symbol key = t == 0 ? z : keys[entry.index - 1];
      restored.restore_entry(t, entry.index, entry.comm_before, key);
    }
    for (const LeafHistory::SpanMeta& meta : history.spilled_on(t)) {
      restored.restore_spilled(t, meta);
    }
  }
  EXPECT_EQ(as_vector(restored.traces()), as_vector(history.traces()));
  EXPECT_EQ(as_vector(restored.spilled_traces()),
            as_vector(history.spilled_traces()));
  for (const Symbol key : {x, y, z}) {
    EXPECT_EQ(key_traces(restored, key), key_traces(history, key));
  }
  EXPECT_EQ(restored.approx_bytes(), history.approx_bytes());

  // Fault the span back: x rejoins trace 2's slice and the trace leaves
  // the spilled list with its last meta.
  const std::vector<HistoryEntry> span = {{1, 1}, {2, 2}};
  const std::vector<Symbol> span_keys = {x, x};
  history.prepend_front(2, span, span_keys);
  history.pop_spilled(2);
  EXPECT_EQ(key_traces(history, x), std::vector<TraceId>{2});
  EXPECT_TRUE(history.spilled_traces().empty());
  EXPECT_EQ(as_vector(history.traces()), (std::vector<TraceId>{0, 2}));
  EXPECT_EQ(history.on_trace_keyed(2, x).front().index, 1U);
  EXPECT_EQ(history.approx_bytes(), charged_bytes(6, 4));

  // The leaf's set only grows: a trace evicted down to nothing is still
  // swept, while the key's slice, like the byte figure, drops it.
  history.evict_front(0, /*keep=*/0);
  EXPECT_TRUE(history.on_trace(0).empty());
  EXPECT_EQ(as_vector(history.traces()), (std::vector<TraceId>{0, 2}));
  EXPECT_EQ(key_traces(history, z), std::vector<TraceId>{2});
  EXPECT_EQ(history.approx_bytes(), charged_bytes(5, 3));
}

TEST(LeafHistory, DropCutsOnlyItsTraceAndErasesEmptiedSlices) {
  LeafHistory history;
  history.reset(3, /*keyed=*/true);
  const Symbol a{1}, b{2}, c{3};
  // Trace 0: a a b (1..3); trace 1: b c (1..2); trace 2: a (1).
  history.append(0, 1, 0, true, false, a);
  history.append(0, 2, 1, true, false, a);
  history.append(0, 3, 2, true, false, b);
  history.append(1, 1, 0, true, false, b);
  history.append(1, 2, 1, true, false, c);
  history.append(2, 1, 0, true, false, a);
  EXPECT_EQ(history.approx_bytes(), charged_bytes(6, 5));

  // Trace 0 down to its newest entry: a leaves trace 0 but keeps its
  // slice through trace 2; b and c, and the other traces, are untouched.
  history.evict_front(0, /*keep=*/1);
  EXPECT_EQ(key_traces(history, a), std::vector<TraceId>{2});
  EXPECT_EQ(key_traces(history, b), (std::vector<TraceId>{0, 1}));
  EXPECT_EQ(key_traces(history, c), std::vector<TraceId>{1});
  EXPECT_EQ(history.on_trace_keyed(1, b).size(), 1U);
  EXPECT_EQ(history.on_trace_keyed(2, a).size(), 1U);
  EXPECT_EQ(history.approx_bytes(), charged_bytes(4, 4));

  // Trace 1 down to nothing: c's slice empties and is erased, b keeps
  // trace 0.
  history.evict_front(1, /*keep=*/0);
  EXPECT_EQ(history.slice(c), nullptr);
  EXPECT_EQ(key_traces(history, b), std::vector<TraceId>{0});
  EXPECT_EQ(history.approx_bytes(), charged_bytes(2, 2));

  // An erased key's slice comes back with its next entry.
  history.append(1, 3, 2, true, false, c);
  EXPECT_EQ(key_traces(history, c), std::vector<TraceId>{1});
  EXPECT_EQ(history.on_trace_keyed(1, c).front().index, 3U);
  EXPECT_EQ(history.approx_bytes(), charged_bytes(3, 3));
}

// --- RepresentativeSubset ----------------------------------------------------

Match make_match(std::initializer_list<EventId> ids) {
  Match match;
  match.bindings.assign(ids);
  return match;
}

TEST(RepresentativeSubset, AddsOnlyCoveringMatches) {
  RepresentativeSubset subset;
  subset.reset(2, 3);
  EXPECT_FALSE(subset.covered(0, 0));

  EXPECT_TRUE(subset.add(make_match({EventId{0, 1}, EventId{1, 1}})));
  EXPECT_TRUE(subset.covered(0, 0));
  EXPECT_TRUE(subset.covered(1, 1));
  EXPECT_EQ(subset.coverage(), 2U);

  // Same pairs again: rejected.
  EXPECT_FALSE(subset.add(make_match({EventId{0, 7}, EventId{1, 9}})));
  EXPECT_EQ(subset.matches().size(), 1U);

  // A new trace for leaf 1: retained.
  EXPECT_TRUE(subset.add(make_match({EventId{0, 2}, EventId{2, 1}})));
  EXPECT_EQ(subset.coverage(), 3U);
  EXPECT_EQ(subset.matches().size(), 2U);
}

TEST(RepresentativeSubset, CardinalityNeverExceedsKTimesN) {
  const std::size_t k = 3, n = 4;
  RepresentativeSubset subset;
  subset.reset(k, n);
  // Throw every possible binding combination at it.
  std::size_t added = 0;
  for (TraceId t0 = 0; t0 < n; ++t0) {
    for (TraceId t1 = 0; t1 < n; ++t1) {
      for (TraceId t2 = 0; t2 < n; ++t2) {
        if (subset.add(make_match(
                {EventId{t0, 1}, EventId{t1, 1}, EventId{t2, 1}}))) {
          ++added;
        }
      }
    }
  }
  EXPECT_LE(subset.matches().size(), k * n);
  EXPECT_EQ(subset.coverage(), k * n);
  EXPECT_EQ(added, subset.matches().size());
}

TEST(RepresentativeSubset, ResetClearsState) {
  RepresentativeSubset subset;
  subset.reset(1, 2);
  EXPECT_TRUE(subset.add(make_match({EventId{0, 1}})));
  subset.reset(1, 2);
  EXPECT_FALSE(subset.covered(0, 0));
  EXPECT_TRUE(subset.matches().empty());
}

}  // namespace
}  // namespace ocep
