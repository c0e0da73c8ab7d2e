// Tests for the sessionized lossy-wire transport (poet/session.h): frame
// round trips, per-frame corruption containment, the resync handshake,
// budget exhaustion and degraded flush, the session checkpoint version,
// plus the positioned SerializationError contract of the loss-free
// formats.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "apps/patterns.h"
#include "common/bytes.h"
#include "common/error.h"
#include "core/monitor.h"
#include "poet/dump.h"
#include "poet/session.h"
#include "random_computation.h"
#include "sim/sim.h"

namespace ocep {
namespace {

/// Records each server write as one frame, so tests can drop / corrupt /
/// reorder individual frames before handing them to the client.
class FrameCapture final : public ByteSink {
 public:
  void write(std::string_view bytes) override {
    frames.emplace_back(bytes);
  }
  std::vector<std::string> frames;
};

class QueueTransport final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest& request) override {
    requests.push_back(request);
  }
  std::vector<ResyncRequest> requests;
};

/// A transport that swallows requests: resyncs can never succeed.
class BlackHoleTransport final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest&) override { ++swallowed; }
  std::uint64_t swallowed = 0;
};

class CollectingSink final : public EventSink {
 public:
  void on_traces(const std::vector<Symbol>& names) override {
    trace_names = names;
  }
  void on_event(const Event& event, const VectorClock& clock) override {
    events.push_back(event);
    clocks.push_back(clock);
  }
  std::vector<Symbol> trace_names;
  std::vector<Event> events;
  std::vector<VectorClock> clocks;
};

std::vector<Symbol> names_of(const EventStore& store) {
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  return names;
}

struct Rig {
  explicit Rig(std::uint64_t seed = 11, std::uint32_t events = 150,
               std::uint32_t traces = 4)
      : store(make_store(pool, seed, events, traces)), names(names_of(store)) {}

  static EventStore make_store(StringPool& pool, std::uint64_t seed,
                               std::uint32_t events, std::uint32_t traces) {
    testing::RandomComputationOptions options;
    options.seed = seed;
    options.events = events;
    options.traces = traces;
    return testing::random_computation(pool, options);
  }

  /// Streams the whole computation through a server into `capture`.
  SessionServer make_server(FrameCapture& capture) {
    SessionServer server(capture, pool, names);
    for (std::uint64_t pos = 0; pos < store.event_count(); ++pos) {
      const EventId id = store.arrival(pos);
      server.write(store.event(id), store.clock(id));
    }
    server.finish();
    return server;
  }

  StringPool pool;
  EventStore store;
  std::vector<Symbol> names;
};

/// Feeds `frames` to the client, then answers queued resyncs (appending
/// the server's snapshot frames and feeding those too) until the client is
/// done or `max_ticks` idle ticks elapsed.
void pump(SessionClient& client, SessionServer& server,
          FrameCapture& capture, QueueTransport& transport,
          std::size_t already_fed = 0, std::uint64_t max_ticks = 4096) {
  std::size_t fed = already_fed;
  const auto feed_new = [&] {
    while (fed < capture.frames.size()) {
      client.feed(capture.frames[fed++]);
    }
  };
  feed_new();
  client.finish_input();
  std::uint64_t ticks = 0;
  while (!client.done() && ticks < max_ticks) {
    while (!transport.requests.empty()) {
      const ResyncRequest request = transport.requests.front();
      transport.requests.erase(transport.requests.begin());
      server.handle_resync(request);
    }
    feed_new();
    client.tick();
    ++ticks;
  }
}

void expect_full_delivery(const Rig& rig, const CollectingSink& sink) {
  ASSERT_EQ(sink.events.size(), rig.store.event_count());
  for (std::uint64_t pos = 0; pos < rig.store.event_count(); ++pos) {
    EXPECT_EQ(sink.events[pos].id, rig.store.arrival(pos))
        << "delivery diverged from arrival order at position " << pos;
  }
}

TEST(Session, CleanRoundTripPreservesArrivalOrder) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  EXPECT_EQ(server.stats().frames_written,
            rig.store.event_count() + 2);  // HELLO + events + BYE

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
  ASSERT_EQ(sink.trace_names.size(), rig.names.size());
  const IngestStats stats = client.stats();
  EXPECT_EQ(stats.frames_corrupt, 0U);
  EXPECT_EQ(stats.resyncs, 0U);
  EXPECT_EQ(stats.sheds, 0U);
}

TEST(Session, BitFlipIsContainedAndResyncRefills) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Flip one bit in the middle of an event frame's payload.
  std::string& victim = capture.frames[capture.frames.size() / 2];
  victim[victim.size() / 2] = static_cast<char>(
      static_cast<unsigned char>(victim[victim.size() / 2]) ^ 0x10U);

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded()) << "a resync recovery is not degradation";
  expect_full_delivery(rig, sink);
  const IngestStats stats = client.stats();
  EXPECT_GE(stats.frames_corrupt, 1U);
  EXPECT_GE(stats.resyncs, 1U);
  EXPECT_GE(stats.recoveries, 1U);
  EXPECT_GT(server.stats().resyncs_served, 0U);
}

TEST(Session, DroppedFramesAreRefilledBySnapshot) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Drop a run of frames (but keep HELLO, frame 0).
  capture.frames.erase(capture.frames.begin() + 20,
                       capture.frames.begin() + 27);

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
  const IngestStats stats = client.stats();
  EXPECT_GE(stats.frames_gap, 7U);
  EXPECT_GE(stats.resyncs, 1U);
  EXPECT_GE(stats.snapshots, 1U);
}

TEST(Session, LostHelloIsRecoveredFromSnapshot) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  capture.frames.erase(capture.frames.begin());  // HELLO gone

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  expect_full_delivery(rig, sink);
  ASSERT_EQ(sink.trace_names.size(), rig.names.size());
  for (std::size_t i = 0; i < rig.names.size(); ++i) {
    EXPECT_EQ(rig.pool.view(sink.trace_names[i]),
              rig.pool.view(rig.names[i]));
  }
}

TEST(Session, DuplicatedFramesAreIdempotent) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Deliver the whole stream twice, interleaved as duplicates.
  std::vector<std::string> doubled;
  for (const std::string& frame : capture.frames) {
    doubled.push_back(frame);
    doubled.push_back(frame);
  }
  capture.frames = std::move(doubled);

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
  EXPECT_GE(client.stats().duplicates, rig.store.event_count());
}

TEST(Session, ReorderedFramesNeedNoResync) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Transpose a few adjacent event frames; default grace (8 ticks) is far
  // longer than the one-frame displacement, so position buffering alone
  // must absorb it.
  for (const std::size_t i : {5UL, 20UL, 40UL, 60UL}) {
    std::swap(capture.frames[i], capture.frames[i + 1]);
  }

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
  EXPECT_EQ(client.stats().resyncs, 0U);
}

TEST(Session, ResyncBudgetExhaustionDegradesLoudly) {
  Rig rig;
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Lose some frames AND the reverse channel: recovery is impossible.
  capture.frames.erase(capture.frames.begin() + 10,
                       capture.frames.begin() + 14);

  CollectingSink sink;
  BlackHoleTransport transport;
  SessionClient client(sink, rig.pool, transport);
  for (const std::string& frame : capture.frames) {
    client.feed(frame);
  }
  client.finish_input();
  // kMaxResyncAttempts attempts, backing off from kResyncBackoffInitial to
  // kResyncBackoffMax ticks, spend about 3,060 ticks in all.
  for (std::uint64_t tick = 0; tick < 4096 && !client.done(); ++tick) {
    client.tick();
  }

  EXPECT_TRUE(client.done()) << "budget exhaustion must not deadlock";
  EXPECT_TRUE(client.degraded()) << "an unrecovered loss must be reported";
  EXPECT_GE(transport.swallowed, 1U);
  const IngestStats stats = client.stats();
  EXPECT_GE(stats.resync_failures, 1U);
  EXPECT_EQ(stats.resyncs, kMaxResyncAttempts);
  // Everything that did arrive was still delivered, in order.
  EXPECT_GT(sink.events.size(), 0U);
}

TEST(Session, GarbageBytesBetweenFramesAreSkipped) {
  Rig rig(23, 60);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // Splice noise between frames; the marker scan must step over it.
  std::vector<std::string> noisy;
  for (std::size_t i = 0; i < capture.frames.size(); ++i) {
    noisy.push_back(capture.frames[i]);
    if (i % 3 == 0) {
      noisy.emplace_back("\x13\x37garbage\xa7");  // includes a lone marker byte
    }
  }
  capture.frames = std::move(noisy);

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  expect_full_delivery(rig, sink);
  EXPECT_GT(client.stats().bytes_skipped, 0U);
}

TEST(Session, ChunkedFeedReassemblesFrames) {
  Rig rig(29, 80);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  std::string stream;
  for (const std::string& frame : capture.frames) {
    stream += frame;
  }

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  // One byte at a time: every partial-header / partial-payload path runs.
  for (const char byte : stream) {
    client.feed(std::string_view(&byte, 1));
  }
  client.finish_input();
  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
}

TEST(Session, OversizedFrameHeaderIsCorruptWithoutBufferingItsPayload) {
  Rig rig(31, 40);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  // A header announcing one byte more than the bound, with no payload
  // behind it: the client must reject it at once instead of waiting for
  // kMaxFramePayload + 1 bytes, which would swallow the real frames that
  // follow as payload.
  std::string bogus = capture.frames[0].substr(0, 2);  // the frame marker
  bogus += '\0';                                       // seq 0
  std::string len;
  put_varint(len, std::uint64_t{kMaxFramePayload} + 1);
  bogus += len;
  bogus.append(4, '\0');  // a CRC slot

  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  client.feed(bogus);
  EXPECT_GE(client.stats().frames_corrupt, 1U);
  EXPECT_EQ(client.stats().bytes_skipped, bogus.size());
  pump(client, server, capture, transport);

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
  EXPECT_EQ(client.stats().resyncs, 0U);
}

// A well-framed EVENT whose clock has fewer entries than the trace table
// announces is corrupt, whether it arrives after the HELLO or before it:
// the linearizer never sees it, and a resync refills its position.
TEST(Session, RecordThatDisagreesWithTheTraceTableIsCorrupt) {
  Rig rig(43, 40);
  ASSERT_EQ(rig.store.trace_count(), 4U);
  // A two-trace producer's first EVENT frame: seq 1, position 0.
  FrameCapture narrow;
  SessionServer narrow_server(narrow, rig.pool,
                              {rig.names[0], rig.names[1]});
  Event local;
  local.id = EventId{0, 1};
  local.kind = EventKind::kLocal;
  narrow_server.write(local, VectorClock(std::vector<std::uint32_t>{1, 0}));

  for (const bool before_hello : {false, true}) {
    SCOPED_TRACE(before_hello ? "before the HELLO" : "after the HELLO");
    FrameCapture capture;
    SessionServer server = rig.make_server(capture);
    capture.frames[1] = narrow.frames[1];  // in place of the real position 0
    if (before_hello) {
      std::swap(capture.frames[0], capture.frames[1]);
    }
    CollectingSink sink;
    QueueTransport transport;
    SessionClient client(sink, rig.pool, transport);
    pump(client, server, capture, transport);
    EXPECT_EQ(client.stats().frames_corrupt, 1U);
    EXPECT_TRUE(client.done());
    EXPECT_FALSE(client.degraded());
    expect_full_delivery(rig, sink);
  }
}

// A resync answered from position 0 over a wide computation: 64 events of
// 1,100-entry clocks overflow the frame bound, so the server must cut each
// SNAPSHOT frame by bytes as well as by event count.
TEST(Session, SnapshotFramesFitTheBoundAtWideClocks) {
  Rig rig(37, 1500, 1100);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  const std::size_t streamed = capture.frames.size();
  server.handle_resync(ResyncRequest{1, 0});
  ASSERT_GT(capture.frames.size(), streamed);
  for (std::size_t i = streamed; i < capture.frames.size(); ++i) {
    // marker(2) + seq varint + len varint + crc(4) frame the payload.
    EXPECT_LE(capture.frames[i].size(), kMaxFramePayload + 2 + 10 + 10 + 4);
  }
  EXPECT_GT(capture.frames.size() - streamed,
            (rig.store.event_count() + 63) / 64)
      << "no snapshot frame was cut short by the byte bound";

  // HELLO and the snapshot frames alone carry the whole stream.
  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  client.feed(capture.frames[0]);
  for (std::size_t i = streamed; i < capture.frames.size(); ++i) {
    client.feed(capture.frames[i]);
  }
  client.finish_input();
  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.degraded());
  expect_full_delivery(rig, sink);
}

// --- the session as the stream format ---------------------------------------
//
// These keep the names of the tests of the loss-free wire format that the
// session replaced: the session now streams every event, so it owes the
// same guarantees.

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

// A client on a fresh pool receives every event's kind, type, text,
// message and full clock, and the trace names, not just ids in order.
TEST_P(WireRoundTrip, PreservesEventsAndClocks) {
  Rig rig(GetParam(), 300, 5);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  EXPECT_EQ(server.stats().events_written, rig.store.event_count());

  StringPool fresh;  // the client interns into its own pool
  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, fresh, transport);
  pump(client, server, capture, transport);
  ASSERT_TRUE(client.done());
  ASSERT_EQ(sink.events.size(), rig.store.event_count());

  for (std::uint64_t pos = 0; pos < rig.store.event_count(); ++pos) {
    const EventId id = rig.store.arrival(pos);
    const Event& original = rig.store.event(id);
    const Event& received = sink.events[pos];
    EXPECT_EQ(received.id, original.id);
    EXPECT_EQ(received.kind, original.kind);
    EXPECT_EQ(received.message, original.message);
    EXPECT_EQ(fresh.view(received.type), rig.pool.view(original.type));
    EXPECT_EQ(fresh.view(received.text), rig.pool.view(original.text));
    EXPECT_EQ(sink.clocks[pos], rig.store.clock(id));
  }
  ASSERT_EQ(sink.trace_names.size(), rig.store.trace_count());
  for (TraceId t = 0; t < rig.store.trace_count(); ++t) {
    EXPECT_EQ(fresh.view(sink.trace_names[t]),
              rig.pool.view(rig.store.trace_name(t)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(81, 82, 83, 84));

// A Monitor behind a session client, with its own string pool (a separate
// process's view), reports the same matches as a live Monitor.
TEST(Wire, MonitorOverTheWireMatchesLiveMonitoring) {
  StringPool pool;
  sim::SimConfig config;
  config.seed = 91;
  sim::Sim sim(pool, config);
  apps::OrderingParams params;
  params.followers = 6;
  params.requests_each = 25;
  params.bug_percent = 4;
  apps::setup_leader_follower(sim, params);
  Monitor live(pool);
  live.add_pattern(apps::ordering_pattern());
  sim.set_live_sink(&live);
  ASSERT_EQ(sim.run().reason, sim::EndReason::kCompleted);

  FrameCapture capture;
  SessionServer server(capture, pool, names_of(sim.store()));
  for (const EventId id : sim.store().arrival_order()) {
    server.write(sim.store().event(id), sim.store().clock(id));
  }
  server.finish();

  StringPool remote_pool;
  Monitor remote(remote_pool);
  remote.add_pattern(apps::ordering_pattern());
  QueueTransport transport;
  SessionClient client(remote, remote_pool, transport);
  pump(client, server, capture, transport);
  ASSERT_TRUE(client.done());

  ASSERT_EQ(remote.events_seen(), sim.store().event_count());
  const auto& live_subset = live.matcher(0).subset().matches();
  const auto& remote_subset = remote.matcher(0).subset().matches();
  ASSERT_GT(live_subset.size(), 0U);
  ASSERT_EQ(live_subset.size(), remote_subset.size());
  for (std::size_t i = 0; i < live_subset.size(); ++i) {
    EXPECT_EQ(live_subset[i].bindings, remote_subset[i].bindings);
  }
}

// Each event frame of a clean stream releases its event at once.
TEST(Wire, ReadOneDeliversIncrementally) {
  Rig rig(85, 20, 3);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);

  StringPool fresh;
  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, fresh, transport);
  client.feed(capture.frames[0]);  // HELLO
  EXPECT_EQ(sink.trace_names.size(), rig.store.trace_count());
  EXPECT_TRUE(sink.events.empty());
  for (std::uint64_t pos = 0; pos < rig.store.event_count(); ++pos) {
    client.feed(capture.frames[pos + 1]);
    ASSERT_EQ(sink.events.size(), pos + 1);
  }
  EXPECT_FALSE(client.done()) << "done before the BYE announced the total";
  client.feed(capture.frames.back());  // BYE
  EXPECT_TRUE(client.done());
  EXPECT_EQ(transport.requests.size(), 0U);
}

// Garbage carries no trace table and no event; a stream cut inside a frame
// delivers what precedes the cut and counts the partial frame corrupt once
// the channel closes.
TEST(Wire, RejectsGarbageAndTruncation) {
  {
    StringPool pool;
    CollectingSink sink;
    BlackHoleTransport transport;
    SessionClient client(sink, pool, transport);
    const std::string garbage = "not a session stream at all";
    client.feed(garbage);
    client.finish_input();
    EXPECT_TRUE(sink.trace_names.empty());
    EXPECT_TRUE(sink.events.empty());
    EXPECT_EQ(client.stats().bytes_skipped, garbage.size());
    EXPECT_FALSE(client.done());
  }
  {
    Rig rig(86, 30, 3);
    FrameCapture capture;
    SessionServer server(capture, rig.pool, rig.names);
    const std::uint64_t kept = 10;
    for (std::uint64_t pos = 0; pos <= kept; ++pos) {
      const EventId id = rig.store.arrival(pos);
      server.write(rig.store.event(id), rig.store.clock(id));
    }
    // No finish(): a dead producer, cut three bytes into its last frame.
    std::string stream;
    for (const std::string& frame : capture.frames) {
      stream += frame;
    }
    stream.resize(stream.size() - capture.frames.back().size() + 3);

    CollectingSink sink;
    BlackHoleTransport transport;
    SessionClient client(sink, rig.pool, transport);
    client.feed(stream);
    EXPECT_EQ(sink.events.size(), kept);
    EXPECT_EQ(client.stats().frames_corrupt, 0U) << "a partial frame may "
                                                    "still complete";
    client.finish_input();
    EXPECT_EQ(client.stats().frames_corrupt, 1U);
    EXPECT_EQ(sink.events.size(), kept);
    EXPECT_GE(transport.swallowed, 1U) << "the cut must ask for a resync";
  }
}

// --- session checkpoint ------------------------------------------------------

TEST(SessionCheckpoint, RefusesVersionOne) {
  Rig rig(41, 30);
  FrameCapture capture;
  SessionServer server = rig.make_server(capture);
  CollectingSink sink;
  QueueTransport transport;
  SessionClient client(sink, rig.pool, transport);
  for (std::size_t i = 0; i + 1 < capture.frames.size() / 2; ++i) {
    client.feed(capture.frames[i]);
  }
  std::ostringstream out;
  client.checkpoint(out);
  std::string blob = out.str();
  ASSERT_EQ(blob[0], '\2');
  {
    std::istringstream in(blob);
    CollectingSink resumed;
    SessionClient restored(resumed, rig.pool, transport);
    EXPECT_NO_THROW(restored.restore(in));
  }
  // Version 1 spelled events its own way and carried two more linearizer
  // counters; it is refused, not misread.
  blob[0] = '\1';
  std::istringstream in(blob);
  CollectingSink resumed;
  SessionClient restored(resumed, rig.pool, transport);
  try {
    restored.restore(in);
    FAIL() << "a version-1 session checkpoint was restored";
  } catch (const SerializationError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("unsupported session checkpoint version"),
              std::string::npos)
        << error.what();
  }
}

// --- positioned SerializationError (error.h satellite) ---------------------

TEST(PositionedErrors, TruncatedDumpReportsByteAndRecord) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 5;
  options.events = 40;
  const EventStore store = testing::random_computation(pool, options);
  std::ostringstream out;
  dump(store, pool, out);
  const std::string bytes = out.str();

  // Cut inside the event section: the error must carry the offset of the
  // record being decoded and its 1-based record index.
  std::istringstream cut(bytes.substr(0, bytes.size() - 3));
  StringPool reload_pool;
  try {
    static_cast<void>(reload_store(cut, reload_pool));
    FAIL() << "truncated dump must not reload";
  } catch (const SerializationError& error) {
    EXPECT_GE(error.byte_offset(), 0);
    EXPECT_GT(error.frame_index(), 0);
    EXPECT_NE(std::string(error.what()).find("at byte"), std::string::npos)
        << error.what();
  }
}

TEST(PositionedErrors, CorruptDumpHeaderIsFrameZero) {
  std::istringstream bogus("OCEPDMP1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff");
  StringPool pool;
  try {
    static_cast<void>(reload_store(bogus, pool));
    FAIL() << "corrupt header must not reload";
  } catch (const SerializationError& error) {
    EXPECT_EQ(error.frame_index(), 0);
    EXPECT_GE(error.byte_offset(), 0);
  }
}

TEST(PositionedErrors, UnknownPositionFormatsWithoutSuffix) {
  const SerializationError plain("boom");
  EXPECT_EQ(plain.byte_offset(), -1);
  EXPECT_EQ(plain.frame_index(), -1);
  EXPECT_EQ(std::string(plain.what()).find("at byte"), std::string::npos);
  const SerializationError at(std::string("boom"), 17, 3);
  EXPECT_EQ(at.byte_offset(), 17);
  EXPECT_EQ(at.frame_index(), 3);
}

}  // namespace
}  // namespace ocep
