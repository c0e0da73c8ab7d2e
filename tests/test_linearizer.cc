// Tests for the causal-delivery linearizer: events offered in any order
// must reach the client in a linearization of the partial order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_pool.h"
#include "poet/linearizer.h"
#include "poet/replay.h"
#include "random_computation.h"

namespace ocep {
namespace {

/// Collects delivered events and checks the delivery condition as it goes.
class CheckingSink final : public EventSink {
 public:
  explicit CheckingSink(std::size_t traces) : delivered_counts_(traces, 0) {}

  void on_event(const Event& event, const VectorClock& clock) override {
    // Every causal predecessor must already have been delivered.
    ASSERT_EQ(delivered_counts_[event.id.trace], event.id.index - 1);
    for (TraceId s = 0; s < delivered_counts_.size(); ++s) {
      if (s != event.id.trace) {
        ASSERT_GE(delivered_counts_[s], clock[s])
            << "delivered an event before its predecessor on trace " << s;
      }
    }
    delivered_counts_[event.id.trace] = event.id.index;
    order_.push_back(event.id);
  }

  [[nodiscard]] const std::vector<EventId>& order() const { return order_; }

 private:
  std::vector<std::uint32_t> delivered_counts_;
  std::vector<EventId> order_;
};

TEST(Linearizer, InOrderStreamPassesThrough) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 31;
  const EventStore store = testing::random_computation(pool, options);

  CheckingSink sink(store.trace_count());
  Linearizer linearizer(store.trace_count(), sink);
  for (const EventId id : store.arrival_order()) {
    linearizer.offer(store.event(id), store.clock(id));
  }
  EXPECT_EQ(linearizer.pending(), 0U);
  EXPECT_EQ(linearizer.delivered(), store.event_count());
}

class LinearizerShuffle : public ::testing::TestWithParam<std::uint64_t> {};

// Offer the computation in a heavily shuffled order; delivery must still be
// a complete, causally consistent linearization.
TEST_P(LinearizerShuffle, ShuffledStreamIsReordered) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = GetParam();
  options.traces = 5;
  options.events = 200;
  const EventStore store = testing::random_computation(pool, options);

  // Shuffle with the constraint that per-trace order is preserved (POET
  // reports each trace's events in order; only cross-trace interleaving
  // races on the wire).
  std::vector<EventId> offers(store.arrival_order().begin(),
                              store.arrival_order().end());
  Rng rng(GetParam() * 13 + 7);
  for (int pass = 0; pass < 2000; ++pass) {
    const std::size_t i = rng.below(offers.size() - 1);
    if (offers[i].trace != offers[i + 1].trace) {
      std::swap(offers[i], offers[i + 1]);
    }
  }

  CheckingSink sink(store.trace_count());
  Linearizer linearizer(store.trace_count(), sink);
  for (const EventId id : offers) {
    linearizer.offer(store.event(id), store.clock(id));
  }
  EXPECT_EQ(linearizer.pending(), 0U);
  EXPECT_EQ(linearizer.delivered(), store.event_count());
  EXPECT_EQ(sink.order().size(), store.event_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizerShuffle,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

TEST(Linearizer, BuffersUntilPredecessorArrives) {
  StringPool pool;
  EventStore store;
  const TraceId t0 = store.add_trace(pool.intern("P0"));
  const TraceId t1 = store.add_trace(pool.intern("P1"));

  Event send;
  send.id = EventId{t0, 1};
  send.kind = EventKind::kSend;
  send.message = 1;
  const VectorClock send_clock(std::vector<std::uint32_t>{1, 0});

  Event recv;
  recv.id = EventId{t1, 1};
  recv.kind = EventKind::kReceive;
  recv.message = 1;
  const VectorClock recv_clock(std::vector<std::uint32_t>{1, 1});

  CheckingSink sink(2);
  Linearizer linearizer(2, sink);
  // Receive first: must be buffered, not delivered.
  linearizer.offer(recv, recv_clock);
  EXPECT_EQ(linearizer.delivered(), 0U);
  EXPECT_EQ(linearizer.pending(), 1U);
  // The send unblocks it.
  linearizer.offer(send, send_clock);
  EXPECT_EQ(linearizer.delivered(), 2U);
  EXPECT_EQ(linearizer.pending(), 0U);
  ASSERT_EQ(sink.order().size(), 2U);
  EXPECT_EQ(sink.order()[0], send.id);
  EXPECT_EQ(sink.order()[1], recv.id);
}

TEST(Linearizer, DuplicateOffersAreCountedAndDropped) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 61;
  options.traces = 3;
  options.events = 60;
  const EventStore store = testing::random_computation(pool, options);

  CheckingSink sink(store.trace_count());
  Linearizer linearizer(store.trace_count(), sink);
  std::uint64_t duplicates = 0;
  for (const EventId id : store.arrival_order()) {
    EXPECT_NE(linearizer.offer(store.event(id), store.clock(id)),
              OfferResult::kDuplicate);
    // Immediately re-offer every third event (a retransmission).
    if (id.index % 3 == 0) {
      EXPECT_EQ(linearizer.offer(store.event(id), store.clock(id)),
                OfferResult::kDuplicate);
      ++duplicates;
    }
  }
  EXPECT_GT(duplicates, 0U);
  EXPECT_EQ(linearizer.ingest_stats().duplicates, duplicates);
  // Duplicates must not distort delivery: everything arrives exactly once.
  EXPECT_EQ(linearizer.delivered(), store.event_count());
  EXPECT_EQ(sink.order().size(), store.event_count());
  EXPECT_EQ(linearizer.ingest_stats().offered,
            store.event_count() + duplicates);
}

TEST(Linearizer, DuplicateOfBufferedEventIsDropped) {
  StringPool pool;
  EventStore store;
  static_cast<void>(store.add_trace(pool.intern("P0")));
  const TraceId t1 = store.add_trace(pool.intern("P1"));

  Event recv;
  recv.id = EventId{t1, 1};
  recv.kind = EventKind::kReceive;
  recv.message = 1;
  const VectorClock recv_clock(std::vector<std::uint32_t>{1, 1});

  CheckingSink sink(2);
  Linearizer linearizer(2, sink);
  EXPECT_EQ(linearizer.offer(recv, recv_clock), OfferResult::kBuffered);
  EXPECT_EQ(linearizer.offer(recv, recv_clock), OfferResult::kDuplicate);
  EXPECT_EQ(linearizer.pending(), 1U);
  EXPECT_EQ(linearizer.ingest_stats().duplicates, 1U);
}

// A checkpointed held event is a session event record, so restore applies
// the frame decoder's checks: an event whose own clock entry disagrees with
// its index is refused, not restored.
TEST(Linearizer, CheckpointRefusesHeldEventWhoseClockDisagreesWithItsIndex) {
  StringPool pool;
  Event recv;
  recv.id = EventId{1, 1};
  recv.kind = EventKind::kReceive;
  recv.message = 1;
  // clock[1] should equal the index, 1; P0's entry keeps the event held.
  const VectorClock bad_clock(std::vector<std::uint32_t>{1, 2});

  CheckingSink sink(2);
  Linearizer linearizer(2, sink);
  ASSERT_EQ(linearizer.offer(recv, bad_clock), OfferResult::kBuffered);
  std::ostringstream out;
  linearizer.checkpoint(out, pool);

  CheckingSink restored_sink(2);
  Linearizer restored(2, restored_sink);
  std::istringstream in(out.str());
  try {
    restored.restore(in, pool);
    FAIL() << "a held event with an inconsistent clock was restored";
  } catch (const SerializationError& error) {
    EXPECT_NE(std::string(error.what()).find("bad event record"),
              std::string::npos)
        << error.what();
  }
}

/// Sink for degraded runs: checks causal delivery like CheckingSink but
/// also tallies placeholders so tests can separate real from synthesized.
class DegradedSink final : public EventSink {
 public:
  DegradedSink(std::size_t traces, Symbol shed_type)
      : delivered_counts_(traces, 0), shed_type_(shed_type) {}

  void on_event(const Event& event, const VectorClock& clock) override {
    ASSERT_EQ(delivered_counts_[event.id.trace], event.id.index - 1);
    for (TraceId s = 0; s < delivered_counts_.size(); ++s) {
      if (s != event.id.trace) {
        ASSERT_GE(delivered_counts_[s], clock[s]);
      }
    }
    delivered_counts_[event.id.trace] = event.id.index;
    ++total_;
    if (event.type == shed_type_) {
      ++placeholders_;
    }
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t placeholders() const noexcept {
    return placeholders_;
  }

 private:
  std::vector<std::uint32_t> delivered_counts_;
  Symbol shed_type_;
  std::uint64_t total_ = 0;
  std::uint64_t placeholders_ = 0;
};

class LinearizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Adversarial ingestion: cross-trace shuffles, dropped events (gaps that
// only the end-of-stream flush can resolve), and duplicated offers.
// Whatever happens, causal delivery must hold for every released event
// and the counters must reconcile exactly with the offered totals:
//
//   offered == (delivered - sheds) + pending + duplicates
//
// (sheds are synthesized, never offered).
TEST_P(LinearizerProperty, CountersReconcileUnderAdversarialStreams) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = 5;
  options.events = 300;
  const EventStore store = testing::random_computation(pool, options);

  Rng rng(seed * 31 + 5);
  // Cross-trace shuffle preserving per-trace order.
  std::vector<EventId> offers(store.arrival_order().begin(),
                              store.arrival_order().end());
  for (int pass = 0; pass < 3000; ++pass) {
    const std::size_t i = rng.below(offers.size() - 1);
    if (offers[i].trace != offers[i + 1].trace) {
      std::swap(offers[i], offers[i + 1]);
    }
  }
  // Drop ~8% (gaps) and duplicate ~10% of the survivors in place.
  std::vector<EventId> stream;
  for (const EventId id : offers) {
    if (rng.chance(8, 100)) {
      continue;
    }
    stream.push_back(id);
    if (rng.chance(10, 100)) {
      stream.push_back(id);
    }
  }

  const Symbol shed_type = pool.intern("__shed");
  DegradedSink sink(store.trace_count(), shed_type);
  Linearizer linearizer(store.trace_count(), sink, shed_type);

  std::uint64_t duplicates = 0;
  for (const EventId id : stream) {
    if (linearizer.offer(store.event(id), store.clock(id)) ==
        OfferResult::kDuplicate) {
      ++duplicates;
    }
  }

  const auto reconcile = [&](const IngestStats& stats) {
    EXPECT_EQ(stats.offered, stream.size());
    EXPECT_EQ(stats.duplicates, duplicates);
    EXPECT_EQ(stats.pending, linearizer.pending());
    EXPECT_GE(stats.delivered, stats.sheds);
    EXPECT_EQ(stats.offered,
              (stats.delivered - stats.sheds) + stats.pending +
                  stats.duplicates);
    EXPECT_GE(stats.max_pending, stats.pending);
  };
  reconcile(linearizer.ingest_stats());

  // End-of-stream flush: everything still held is forced out through
  // placeholders; the identity must survive with pending == 0.
  linearizer.shed_to(0);
  const IngestStats stats = linearizer.ingest_stats();
  EXPECT_EQ(linearizer.pending(), 0U);
  reconcile(stats);
  EXPECT_EQ(sink.total(), linearizer.delivered());
  EXPECT_EQ(sink.placeholders(), stats.sheds);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LinearizerProperty,
    ::testing::Values(std::uint64_t{71}, std::uint64_t{72}, std::uint64_t{73},
                      std::uint64_t{74}, std::uint64_t{75}, std::uint64_t{76}),
    [](const auto& param_info) {
      return "shed_seed" + std::to_string(param_info.param);
    });

TEST(Replay, DeliversWholeStoreInLinearization) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 51;
  options.traces = 6;
  options.events = 300;
  const EventStore store = testing::random_computation(pool, options);
  CheckingSink sink(store.trace_count());
  replay(store, sink);
  EXPECT_EQ(sink.order().size(), store.event_count());
}

}  // namespace
}  // namespace ocep
