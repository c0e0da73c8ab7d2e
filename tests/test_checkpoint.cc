// Checkpoint/resume equivalence: a monitor restored from a checkpoint and
// fed the remaining suffix must end in *byte-identical* state to an
// uninterrupted run — same store dump, same matcher stats, same
// representative subset, hence identical match reports.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/frame.h"
#include "common/rng.h"
#include "core/monitor.h"
#include "memory_span_sink.h"
#include "poet/dump.h"
#include "poet/session.h"
#include "random_computation.h"
#include "testing/chaos_harness.h"

// Sanitizer runtimes reserve terabytes of address space and shadow
// memory, so address-space caps and RSS bounds mean nothing under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OCEP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OCEP_SANITIZED 1
#endif
#endif
#ifndef OCEP_SANITIZED
#define OCEP_SANITIZED 0
#endif

namespace ocep {
namespace {

constexpr const char* kPattern =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";

std::string checkpoint_bytes(Monitor& monitor) {
  std::ostringstream out;
  monitor.checkpoint(out);
  return out.str();
}

std::vector<Symbol> trace_names(const EventStore& store) {
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  return names;
}

void feed_range(Monitor& monitor, const EventStore& store,
                std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    const EventId id = store.arrival(pos);
    monitor.on_event(store.event(id), store.clock(id));
  }
}

/// Runs the uninterrupted reference and, for each split, the
/// checkpoint-at-split / restore / finish run; both must produce the same
/// checkpoint bytes at the end.
void check_splits(const EventStore& store, StringPool& pool,
                  const std::string& pattern,
                  const std::vector<std::uint64_t>& splits) {
  const std::uint64_t total = store.event_count();
  Monitor reference(pool, store.storage());
  reference.add_pattern(pattern);
  reference.on_traces(trace_names(store));
  feed_range(reference, store, 0, total);
  const std::string expected = checkpoint_bytes(reference);
  const std::vector<std::string> expected_matches =
      testing::match_signature(reference, 0);

  for (const std::uint64_t split : splits) {
    ASSERT_LE(split, total);
    Monitor first(pool, store.storage());
    first.add_pattern(pattern);
    first.on_traces(trace_names(store));
    feed_range(first, store, 0, split);
    std::istringstream saved(checkpoint_bytes(first));

    Monitor resumed(pool, store.storage());
    resumed.add_pattern(pattern);
    resumed.restore(saved);
    EXPECT_EQ(resumed.events_seen(), split);
    feed_range(resumed, store, split, total);

    EXPECT_EQ(checkpoint_bytes(resumed), expected)
        << "resume at " << split << "/" << total
        << " diverged from the uninterrupted run";
    EXPECT_EQ(testing::match_signature(resumed, 0), expected_matches);
  }
}

TEST(Checkpoint, ResumeAtRandomPrefixesIsByteIdentical) {
  for (const std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    StringPool pool;
    testing::RandomComputationOptions options;
    options.seed = seed;
    options.traces = 4;
    options.events = 250;
    const EventStore store = testing::random_computation(pool, options);
    Rng rng(seed * 77 + 1);
    std::vector<std::uint64_t> splits{0, store.event_count()};
    for (int i = 0; i < 4; ++i) {
      splits.push_back(rng.below(store.event_count() + 1));
    }
    check_splits(store, pool, kPattern, splits);
  }
}

TEST(Checkpoint, GoldenDumpResumesAtArbitraryInterruptionPoints) {
  const std::string root(OCEP_SOURCE_DIR);
  std::ifstream dump_in(root + "/tools/zk962_golden.poet",
                        std::ios::binary);
  ASSERT_TRUE(dump_in) << "golden dump fixture missing";
  std::ifstream pattern_in(root + "/tools/zk962.ocep");
  ASSERT_TRUE(pattern_in) << "golden pattern fixture missing";
  std::stringstream pattern_text;
  pattern_text << pattern_in.rdbuf();

  StringPool pool;
  const EventStore store = reload_store(dump_in, pool);
  const std::uint64_t n = store.event_count();
  check_splits(store, pool, pattern_text.str(),
               {0, 1, n / 3, n / 2, n - 1, n});
}

TEST(Checkpoint, CorruptionIsDetectedNotTrusted) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 7;
  options.events = 120;
  const EventStore store = testing::random_computation(pool, options);
  Monitor monitor(pool, store.storage());
  monitor.add_pattern(kPattern);
  monitor.on_traces(trace_names(store));
  feed_range(monitor, store, 0, store.event_count());
  const std::string bytes = checkpoint_bytes(monitor);

  const auto restore_from = [&](std::string data) {
    Monitor fresh(pool, store.storage());
    fresh.add_pattern(kPattern);
    std::istringstream in(std::move(data));
    fresh.restore(in);
  };

  // Bit flip inside the body: caught by the CRC.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(
      static_cast<unsigned char>(flipped[flipped.size() / 2]) ^ 0x04U);
  EXPECT_THROW(restore_from(flipped), SerializationError);

  // Torn write: caught before anything is replayed.
  EXPECT_THROW(restore_from(bytes.substr(0, bytes.size() - 5)),
               SerializationError);

  // Not a checkpoint at all.
  EXPECT_THROW(restore_from("OCEPDMP1 definitely not a checkpoint"),
               SerializationError);

  // A well-formed frame of the previous version ("OCEPCKP5"): refused at
  // the version byte, not decoded under this version's layout.
  const DecodedFrame current =
      decode_exact_frame(bytes, "OCEPCKP6", kMaxFrameBody);
  ASSERT_EQ(current.status, FrameStatus::kDone);
  try {
    restore_from(encode_frame("OCEPCKP5", current.body));
    ADD_FAILURE() << "an OCEPCKP5 checkpoint was restored";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.byte_offset(), 7);
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version"), std::string::npos)
        << what;
  }

  // Length fields announcing 3.75 GiB over five real bytes, in an old
  // layout ("OCEPCKP3", varint length and CRC) and in the frame layout
  // under older tags and the current one: refused, and nothing is
  // allocated from the unverified length.
  const std::vector<std::string> huge = {
      std::string("OCEPCKP3\x80\x80\x80\x80\x0f\x00short", 19),
      std::string("OCEPCKP4\x00\x00\x00\xf0\x00\x00\x00\x00short", 21),
      std::string("OCEPCKP5\x00\x00\x00\xf0\x00\x00\x00\x00short", 21),
      std::string("OCEPCKP6\x00\x00\x00\xf0\x00\x00\x00\x00short", 21)};
  for (const std::string& blob : huge) {
    EXPECT_THROW(restore_from(blob), SerializationError);
  }
#if !OCEP_SANITIZED
  // Peak RSS, measured in a child so this process's history does not
  // count.  The address-space cap turns a regression into bad_alloc
  // instead of gigabytes of touched memory.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::uint64_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const auto cap = static_cast<rlim_t>(
        pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) +
        (1ULL << 30U));
    const rlimit limit{cap, cap};
    ::setrlimit(RLIMIT_AS, &limit);
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    int code = 0;
    for (const std::string& blob : huge) {
      try {
        restore_from(blob);
        code = 1;
      } catch (const SerializationError&) {
      } catch (...) {
        code = 2;
      }
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    if (after.ru_maxrss - before.ru_maxrss > 64 * 1024) {  // KiB
      code = 3;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: restored, 2: not a SerializationError, 3: RSS grew > 64 MiB";
#endif

  // The pristine bytes still restore fine after all that.
  restore_from(bytes);
}

TEST(Checkpoint, PatternCountMismatchIsRejected) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 9;
  options.events = 60;
  const EventStore store = testing::random_computation(pool, options);
  Monitor monitor(pool, store.storage());
  monitor.add_pattern(kPattern);
  monitor.on_traces(trace_names(store));
  feed_range(monitor, store, 0, store.event_count());
  const std::string bytes = checkpoint_bytes(monitor);

  Monitor two_patterns(pool, store.storage());
  two_patterns.add_pattern(kPattern);
  two_patterns.add_pattern(kPattern);
  std::istringstream in(bytes);
  EXPECT_THROW(two_patterns.restore(in), SerializationError);
}

// A full process restart mid-session: monitor AND session client are
// checkpointed at an arbitrary *byte* offset of the forward stream (the
// partial frame in the receive buffer is deliberately lost, as it would be
// in a crash), restored into fresh objects, and the rest of the stream is
// delivered.  The seq discontinuity is healed by a resync; the final state
// must be byte-identical to a never-interrupted run.
TEST(Checkpoint, SessionClientAndMonitorResumeAcrossRestart) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 41;
  options.events = 200;
  const EventStore store = testing::random_computation(pool, options);
  const std::vector<Symbol> names = trace_names(store);

  // Reference: clean monitor over the raw computation.
  Monitor reference(pool, store.storage());
  reference.add_pattern(kPattern);
  reference.on_traces(names);
  feed_range(reference, store, 0, store.event_count());
  const std::string expected = checkpoint_bytes(reference);

  // Capture the whole session stream as frames.
  class FrameCapture final : public ByteSink {
   public:
    void write(std::string_view bytes) override {
      frames.emplace_back(bytes);
    }
    std::vector<std::string> frames;
  } capture;
  class QueueTransport final : public ResyncTransport {
   public:
    void request_resync(const ResyncRequest& request) override {
      requests.push_back(request);
    }
    std::vector<ResyncRequest> requests;
  } transport;
  SessionServer server(capture, pool, names);
  for (std::uint64_t pos = 0; pos < store.event_count(); ++pos) {
    const EventId id = store.arrival(pos);
    server.write(store.event(id), store.clock(id));
  }
  server.finish();
  std::string stream;
  for (const std::string& frame : capture.frames) {
    stream += frame;
  }

  // First life: feed an arbitrary byte prefix (mid-frame), then checkpoint.
  const std::size_t cut = stream.size() / 2 + 13;
  Monitor first(pool, store.storage());
  first.add_pattern(kPattern);
  SessionClient client_a(first, pool, transport);
  client_a.feed(std::string_view(stream).substr(0, cut));
  std::ostringstream saved_monitor;
  first.checkpoint(saved_monitor);
  std::ostringstream saved_client;
  client_a.checkpoint(saved_client);

  // Second life: restore monitor + client, deliver the rest of the stream.
  Monitor resumed(pool, store.storage());
  resumed.add_pattern(kPattern);
  std::istringstream monitor_in(saved_monitor.str());
  resumed.restore(monitor_in);
  SessionClient client_b(resumed, pool, transport);
  std::istringstream client_in(saved_client.str());
  client_b.restore(client_in);
  EXPECT_EQ(client_b.next_position(), client_a.next_position());

  std::size_t served_frames = capture.frames.size();
  client_b.feed(std::string_view(stream).substr(cut));
  client_b.finish_input();
  for (std::uint64_t tick = 0; tick < 4096 && !client_b.done(); ++tick) {
    while (!transport.requests.empty()) {
      const ResyncRequest request = transport.requests.front();
      transport.requests.erase(transport.requests.begin());
      server.handle_resync(request);
    }
    while (served_frames < capture.frames.size()) {
      client_b.feed(capture.frames[served_frames++]);
    }
    client_b.tick();
  }

  EXPECT_TRUE(client_b.done());
  EXPECT_FALSE(client_b.degraded())
      << "a restart healed by resync is not degradation";
  EXPECT_EQ(resumed.events_seen(), store.event_count());
  EXPECT_EQ(checkpoint_bytes(resumed), expected)
      << "restarted session diverged from the uninterrupted run";
}

// The shared histories ride the checkpoint once, with their byte cap and
// span tier: two patterns read the same two classes, the cap spills them
// through a sink, and a checkpoint taken mid-stream — with spans
// outstanding — resumes byte-identical to the uninterrupted run.
TEST(Checkpoint, SharedCappedSpilledHistoriesResumeByteIdentical) {
  constexpr const char* kSharing =
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P || Q;\n";
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 17;
  options.traces = 8;
  options.events = 1200;
  const EventStore store = testing::random_computation(pool, options);
  const std::uint64_t total = store.event_count();
  MonitorConfig capped;
  capped.history_bytes_limit = 1024;
  const auto make = [&](Monitor& monitor, testing::MemorySpanSink& sink) {
    monitor.add_pattern(kPattern);
    monitor.add_pattern(kSharing);
    monitor.set_span_sink(&sink);
  };

  testing::MemorySpanSink reference_sink;
  Monitor reference(pool, capped, store.storage());
  make(reference, reference_sink);
  reference.on_traces(trace_names(store));
  feed_range(reference, store, 0, total);
  const std::string expected = checkpoint_bytes(reference);
  ASSERT_GT(reference_sink.spills, 0U) << "the cap never spilled: vacuous";
  ASSERT_GT(reference_sink.faults, 0U) << "nothing faulted back: vacuous";
  ASSERT_GT(reference.matcher(1).stats().history_spilled, 0U);
  EXPECT_LE(reference.history_bytes(), capped.history_bytes_limit);

  for (const std::uint64_t split : {total / 3, total / 2, total - 7}) {
    testing::MemorySpanSink sink;
    Monitor first(pool, capped, store.storage());
    make(first, sink);
    first.on_traces(trace_names(store));
    feed_range(first, store, 0, split);
    std::size_t outstanding = 0;
    first.for_each_spilled(
        [&outstanding](std::uint32_t, std::uint32_t, TraceId,
                       std::uint64_t) { ++outstanding; });
    ASSERT_GT(outstanding, 0U) << "no span was spilled at " << split;
    std::istringstream saved(checkpoint_bytes(first));

    Monitor resumed(pool, capped, store.storage());
    make(resumed, sink);
    resumed.restore(saved);
    feed_range(resumed, store, split, total);
    EXPECT_EQ(checkpoint_bytes(resumed), expected)
        << "resume at " << split << "/" << total
        << " diverged from the uninterrupted run";
    EXPECT_EQ(testing::match_signature(resumed, 0),
              testing::match_signature(reference, 0));
    EXPECT_EQ(testing::match_signature(resumed, 1),
              testing::match_signature(reference, 1));
  }
}

// Governance state must ride the checkpoint (format v2): a breaker that
// tripped before the split must still be open/cooling in the restored
// process, giving the same shed/probe schedule — and hence byte-identical
// final state — as the uninterrupted run.
TEST(Checkpoint, GovernedRunSplitsAreByteIdenticalMidQuarantine) {
  constexpr const char* kHostile = R"(
      E1 := ['', A, '']; E2 := ['', A, ''];
      E3 := ['', A, '']; E4 := ['', A, ''];
      pattern := (E1 || E2) && (E1 || E3) && (E1 || E4) &&
                 (E2 || E3) && (E2 || E4) && (E3 || E4);
  )";
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 19;
  options.traces = 8;
  options.events = 500;
  const EventStore store = testing::random_computation(pool, options);

  MatcherConfig tight;
  tight.budget.max_steps = 16;
  tight.breaker.trip_failures = 2;
  tight.breaker.window_observes = 64;
  tight.breaker.cooldown_observes = 48;

  const std::uint64_t total = store.event_count();
  Monitor reference(pool, store.storage());
  reference.add_pattern(kHostile, tight);
  reference.on_traces(trace_names(store));
  feed_range(reference, store, 0, total);
  const std::string expected = checkpoint_bytes(reference);
  ASSERT_GT(reference.health().patterns[0].breaker_trips, 0U)
      << "the breaker never engaged — the split test is vacuous";

  for (const std::uint64_t split : {total / 4, total / 2, total - 3}) {
    Monitor first(pool, store.storage());
    first.add_pattern(kHostile, tight);
    first.on_traces(trace_names(store));
    feed_range(first, store, 0, split);
    std::istringstream saved(checkpoint_bytes(first));

    Monitor resumed(pool, store.storage());
    resumed.add_pattern(kHostile, tight);
    resumed.restore(saved);
    feed_range(resumed, store, split, total);

    EXPECT_EQ(checkpoint_bytes(resumed), expected)
        << "governed resume at " << split << "/" << total
        << " diverged (breaker state not carried across the checkpoint?)";
  }
}

}  // namespace
}  // namespace ocep
