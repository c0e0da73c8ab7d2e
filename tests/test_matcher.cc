// OCEP matcher tests on hand-built scenarios (paper §IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/naive_matcher.h"
#include "computation_builder.h"
#include "core/matcher.h"
#include "core/monitor.h"
#include "memory_span_sink.h"
#include "pattern/compiled.h"
#include "poet/replay.h"
#include "random_computation.h"

namespace ocep {
namespace {

using testing::ComputationBuilder;

/// Feeds every stored event to the matcher in arrival order.
void run_matcher(const EventStore& store, OcepMatcher& matcher) {
  for (const EventId id : store.arrival_order()) {
    matcher.observe(store.event(id));
  }
}

TEST(Matcher, SimpleHappensBeforeAcrossTraces) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  const EventId a = b.local(0, "a");
  const std::uint64_t m = b.send(0, "ping");
  b.recv(1, m, "recv_ping");
  const EventId bb = b.local(1, "b");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -> B;
  )", pool);

  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  ASSERT_EQ(reported.size(), 1U);
  EXPECT_EQ(reported[0].bindings[0], a);
  EXPECT_EQ(reported[0].bindings[1], bb);
  EXPECT_EQ(matcher.subset().matches().size(), 1U);
}

TEST(Matcher, NoMatchWhenOnlyConcurrent) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  b.local(0, "a");
  b.local(1, "b");  // concurrent with a: no message between the traces

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -> B;
  )", pool);
  OcepMatcher matcher(b.store(), std::move(pattern));
  run_matcher(b.store(), matcher);
  EXPECT_TRUE(matcher.subset().matches().empty());
  EXPECT_EQ(matcher.stats().searches, 1U);  // anchored at b, found nothing
}

// The paper's Fig 3: representative subset for A -> B.  P1 holds a13, a14,
// a15 all before b25 (via a message); P2 holds a21 before b25 on the same
// trace; P3's events are concurrent with b25.  The desired subset is
// { a15 b25, a21 b25 }.
TEST(Matcher, Fig3RepresentativeSubset) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2", "P3"});
  // P1: c11 d12 a13 a14 a15, then the message that reaches P2 before b25.
  b.local(0, "c");
  b.local(0, "d");
  const EventId a13 = b.local(0, "a");
  const EventId a14 = b.local(0, "a");
  const EventId a15 = b.local(0, "a");
  const std::uint64_t m = b.send(0, "c");  // c17-ish communication
  // P3: d31 e32 a33 a34 — concurrent with everything relevant.
  b.local(2, "d");
  b.local(2, "e");
  b.local(2, "a");
  b.local(2, "a");
  // P2: a21 d22 e23, receive, then b25.
  const EventId a21 = b.local(1, "a");
  b.local(1, "d");
  b.local(1, "e");
  b.recv(1, m, "recv");
  const EventId b25 = b.local(1, "b");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -> B;
  )", pool);
  // Merging must stay off: a13..a15 have no communication between them and
  // would otherwise collapse (which is fine for the subset but not for
  // checking the exact "latest match first" choice).
  MatcherConfig config;
  config.merge_redundant_history = false;
  OcepMatcher matcher(b.store(), std::move(pattern), config);
  run_matcher(b.store(), matcher);

  const std::vector<Match>& subset = matcher.subset().matches();
  ASSERT_EQ(subset.size(), 2U);
  // Free search takes the latest match on P1.
  EXPECT_EQ(subset[0].bindings[0], a15);
  EXPECT_EQ(subset[0].bindings[1], b25);
  // The pin on (A, P2) recovers the match the paper's sliding window loses.
  EXPECT_EQ(subset[1].bindings[0], a21);
  EXPECT_EQ(subset[1].bindings[1], b25);
  static_cast<void>(a13);
  static_cast<void>(a14);
}

TEST(Matcher, ConcurrencyPattern) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2", "P3"});
  const EventId e1 = b.local(0, "enter");
  const std::uint64_t m = b.send(0, "sync");
  b.recv(1, m, "recv_sync");
  b.local(1, "enter");                      // ordered after e1: no match
  const EventId e3 = b.local(2, "enter");   // concurrent with both

  pattern::CompiledPattern pattern = pattern::compile(R"(
      E1 := ['', enter, '']; E2 := ['', enter, ''];
      pattern := E1 || E2;
  )", pool);
  OcepMatcher matcher(b.store(), std::move(pattern));
  run_matcher(b.store(), matcher);

  // Every reported match must be genuinely concurrent; coverage must
  // include e3 with both e1 and e2.
  for (const Match& match : matcher.subset().matches()) {
    EXPECT_EQ(b.store().relate(match.bindings[0], match.bindings[1]),
              Relation::kConcurrent);
  }
  EXPECT_TRUE(matcher.subset().covered(0, e1.trace));
  EXPECT_TRUE(matcher.subset().covered(0, e3.trace));
}

TEST(Matcher, PartnerOperatorBindsTheExactMessage) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  const std::uint64_t m1 = b.send(0, "msg");
  const std::uint64_t m2 = b.send(0, "msg");
  const EventId r1 = b.recv(1, m1, "recv_msg");
  const EventId r2 = b.recv(1, m2, "recv_msg");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      S := ['', msg, '']; R := ['', recv_msg, ''];
      pattern := S <-> R;
  )", pool);
  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  ASSERT_EQ(reported.size(), 2U);
  EXPECT_EQ(reported[0].bindings[0], EventId(0, 1));
  EXPECT_EQ(reported[0].bindings[1], r1);
  EXPECT_EQ(reported[1].bindings[0], EventId(0, 2));
  EXPECT_EQ(reported[1].bindings[1], r2);
}

TEST(Matcher, AttributeVariableEnforcesEquality) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  b.local(0, "req", "alpha");
  const std::uint64_t m = b.send(0, "x");
  b.recv(1, m, "y");
  b.local(1, "rsp", "beta");   // different tag: must not match
  const EventId rsp = b.local(1, "rsp", "alpha");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      Q := ['', req, $t]; P := ['', rsp, $t];
      pattern := Q -> P;
  )", pool);
  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  ASSERT_EQ(reported.size(), 1U);
  EXPECT_EQ(reported[0].bindings[1], rsp);
}

TEST(Matcher, ProcessVariableIsolatesTheRelevantTrace) {
  StringPool pool;
  ComputationBuilder b(pool, {"P0", "P1", "P2", "P3"});
  // blocked_send events whose text names the destination trace.
  b.blocked_send(0, "P1");
  b.blocked_send(1, "P0");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      W1 := [$1, blocked_send, $2];
      W2 := [$2, blocked_send, $1];
      pattern := W1 || W2;
  )", pool);
  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  // The mutual blocked pair is concurrent and closes the variable cycle.
  ASSERT_GE(reported.size(), 1U);
  for (const Match& match : reported) {
    const std::set<TraceId> traces{match.bindings[0].trace,
                                   match.bindings[1].trace};
    EXPECT_EQ(traces, (std::set<TraceId>{0, 1}));
  }
}

TEST(Matcher, EventVariableBindsOneEventEverywhere) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2", "P3"});
  const std::uint64_t m1 = b.send(0, "a");
  const std::uint64_t m2 = b.send(0, "a");
  b.recv(1, m1, "b");
  b.recv(2, m2, "c");

  // $X -> B and $X -> C with the same a: only a match where ONE a precedes
  // both a b and a c is allowed.
  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];
      A $X;
      pattern := ($X -> B) && ($X -> C);
  )", pool);
  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  ASSERT_GE(reported.size(), 1U);
  for (const Match& match : reported) {
    // Leaf 0 is $X; it must precede both other bindings.
    EXPECT_TRUE(b.store().happens_before(match.bindings[0],
                                         match.bindings[1]));
    EXPECT_TRUE(b.store().happens_before(match.bindings[0],
                                         match.bindings[2]));
    // Only the first send precedes both receives.
    EXPECT_EQ(match.bindings[0], EventId(0, 1));
  }
}

// Fig 1's limited precedence: A -lim-> B only matches the last A-event
// before b, with no other A causally between.
TEST(Matcher, LimitedPrecedenceExcludesInterveningEvents) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  const EventId a1 = b.local(0, "a");
  const EventId a2 = b.local(0, "a");  // a1 -> a2: a1 can never be the limit
  const std::uint64_t m = b.send(0, "x");
  b.recv(1, m, "y");
  const EventId bb = b.local(1, "b");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -lim-> B;
  )", pool);
  std::vector<Match> reported;
  MatcherConfig config;
  OcepMatcher matcher(b.store(), std::move(pattern), config,
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  ASSERT_EQ(reported.size(), 1U);
  EXPECT_EQ(reported[0].bindings[0], a2) << "only the last A qualifies";
  EXPECT_EQ(reported[0].bindings[1], bb);
  static_cast<void>(a1);
}

// The intervening witness can live on a third trace.
TEST(Matcher, LimitedPrecedenceSeesCrossTraceWitnesses) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2", "P3"});
  const EventId a1 = b.local(0, "a");
  const std::uint64_t m1 = b.send(0, "x");
  b.recv(2, m1, "y");
  const EventId a3 = b.local(2, "a");  // a1 -> a3
  const std::uint64_t m2 = b.send(2, "x");
  b.recv(1, m2, "y");
  const EventId bb = b.local(1, "b");  // a1 -> a3 -> b

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -lim-> B;
  )", pool);
  std::vector<Match> reported;
  OcepMatcher matcher(b.store(), std::move(pattern), {},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  run_matcher(b.store(), matcher);

  // a1 is disqualified by the witness a3 on P3; a3 itself qualifies.
  ASSERT_EQ(reported.size(), 1U);
  EXPECT_EQ(reported[0].bindings[0], a3);
  EXPECT_EQ(reported[0].bindings[1], bb);
  static_cast<void>(a1);
}

TEST(Matcher, RedundancyEliminationBoundsHistory) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2"});
  for (int i = 0; i < 100; ++i) {
    b.local(0, "a");  // 100 causally identical events
  }
  const std::uint64_t m = b.send(0, "x");
  b.recv(1, m, "y");
  b.local(1, "b");

  pattern::CompiledPattern pattern = pattern::compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -> B;
  )", pool);
  OcepMatcher matcher(b.store(), std::move(pattern));  // merging on
  run_matcher(b.store(), matcher);

  // All 100 a's collapse into one history entry, and the match is still
  // found (identical cross-trace causality).
  EXPECT_EQ(matcher.stats().history_merged, 99U);
  ASSERT_EQ(matcher.subset().matches().size(), 1U);
  EXPECT_TRUE(matcher.subset().covered(0, 0));
}

TEST(Matcher, SubsetIsBoundedByKTimesN) {
  StringPool pool;
  ComputationBuilder b(pool, {"P1", "P2", "P3", "P4"});
  // A dense soup of concurrent events: every pair across traces matches.
  for (int round = 0; round < 10; ++round) {
    for (TraceId t = 0; t < 4; ++t) {
      b.local(t, "e");
    }
  }
  pattern::CompiledPattern pattern = pattern::compile(R"(
      E1 := ['', e, '']; E2 := ['', e, ''];
      pattern := E1 || E2;
  )", pool);
  OcepMatcher matcher(b.store(), std::move(pattern));
  run_matcher(b.store(), matcher);

  const std::size_t k = 2, n = 4;
  EXPECT_LE(matcher.subset().matches().size(), k * n);
  EXPECT_EQ(matcher.subset().coverage(), k * n);  // every pair is feasible
}

TEST(Matcher, ObserveIsDeterministic) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 77;
  options.traces = 4;
  options.events = 150;
  const EventStore store = testing::random_computation(pool, options);

  auto run_once = [&] {
    pattern::CompiledPattern pattern = pattern::compile(R"(
        A := ['', A, '']; B := ['', B, ''];
        pattern := A -> B;
    )", pool);
    std::vector<std::vector<EventId>> reported;
    OcepMatcher matcher(store, std::move(pattern), {},
                        [&](const Match& match, bool) {
                          reported.push_back(match.bindings);
                        });
    for (const EventId id : store.arrival_order()) {
      matcher.observe(store.event(id));
    }
    return reported;
  };
  EXPECT_EQ(run_once(), run_once());
}

// A keyed leaf whose witness lives only in a spilled span: the keyed
// sweep must visit every trace with spans, because the keys of spilled
// entries are unknown until they are faulted back — and after a restore
// they are not even recomputed for the slices.  Checkpointing between the
// spill and the match must not change what is found.  The byte cap and
// the span tier belong to a Monitor's history table, so this runs on a
// one-pattern Monitor.
TEST(Matcher, KeyedWitnessInSpilledSpanIsFoundAcrossRestore) {
  StringPool pool;
  ComputationBuilder b(pool, {"T0", "T1", "T2"});
  // T0: one P per key k0..k23; the oldest (k0 first) are spilled by the
  // cap below.  T2 holds P with k23 only.
  for (int i = 0; i < 24; ++i) {
    b.local(0, "A", "k" + std::to_string(i));
  }
  b.local(2, "A", "k23");
  const std::uint64_t to_t1 = b.send(0, "S");
  b.recv(1, to_t1, "R");
  const std::uint64_t from_t2 = b.send(2, "S");
  b.recv(1, from_t2, "R");
  const std::size_t split = b.store().event_count();
  // T1: Q for a spilled key, a resident key, a key held by two traces,
  // and a key with no P at all.
  for (const char* key : {"k0", "k3", "k20", "k23", "none"}) {
    b.local(1, "B", key);
  }
  const EventStore& store = b.store();
  constexpr const char* kKeyed =
      "P := ['', A, $k]; Q := ['', B, $k];\npattern := P -> Q;\n";

  struct Run {
    std::vector<std::pair<bool, std::vector<EventId>>> callbacks;
    std::vector<std::vector<EventId>> subset;
  };
  const auto callback_into = [](Run& run) {
    return [&run](const Match& match, bool fresh) {
      run.callbacks.emplace_back(fresh, match.bindings);
    };
  };
  const auto finish = [](Run& run, const Monitor& monitor) {
    for (const Match& match : monitor.matcher(0).subset().matches()) {
      run.subset.push_back(match.bindings);
    }
  };
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  const auto feed = [&store](Monitor& monitor, std::size_t begin,
                             std::size_t end) {
    for (std::size_t pos = begin; pos < end; ++pos) {
      const EventId id = store.arrival(pos);
      monitor.on_event(store.event(id), store.clock(id));
    }
  };

  MatcherConfig unbounded;
  unbounded.merge_redundant_history = false;  // every P is its own witness
  Run full;
  Monitor reference(pool, store.storage());
  reference.add_pattern(kKeyed, unbounded, callback_into(full));
  reference.on_traces(names);
  feed(reference, 0, store.event_count());
  finish(full, reference);
  // Every Q but 'none' matches, and k23's pin on T2 adds a fifth.
  ASSERT_EQ(full.callbacks.size(), 5U);

  MonitorConfig capped;
  capped.history_bytes_limit = 1024;

  // Without a sink the cap evicts: the spilled witnesses are gone.
  Run lossy;
  Monitor evicting(pool, capped, store.storage());
  evicting.add_pattern(kKeyed, unbounded, callback_into(lossy));
  evicting.on_traces(names);
  feed(evicting, 0, store.event_count());
  EXPECT_LT(lossy.callbacks.size(), full.callbacks.size())
      << "no witness was only in the spilled prefix: the test is vacuous";

  // With a sink: spill, checkpoint, restore into a fresh monitor on the
  // same sink, and finish there.
  testing::MemorySpanSink sink;
  Run spilled;
  Monitor first(pool, capped, store.storage());
  first.add_pattern(kKeyed, unbounded, callback_into(spilled));
  first.set_span_sink(&sink);
  first.on_traces(names);
  feed(first, 0, split);
  ASSERT_GT(sink.spills, 0U);
  std::stringstream saved;
  first.checkpoint(saved);

  Monitor resumed(pool, capped, store.storage());
  resumed.add_pattern(kKeyed, unbounded, callback_into(spilled));
  resumed.set_span_sink(&sink);
  resumed.restore(saved);
  std::size_t spans = 0;
  resumed.for_each_spilled(
      [&spans](std::uint32_t, std::uint32_t, TraceId, std::uint64_t) {
        ++spans;
      });
  ASSERT_GT(spans, 0U) << "nothing was spilled at the checkpoint";
  feed(resumed, split, store.event_count());
  finish(spilled, resumed);
  EXPECT_GT(sink.faults, 0U);
  EXPECT_EQ(spilled.callbacks, full.callbacks);
  EXPECT_EQ(spilled.subset, full.subset);

  // The same stream without the checkpoint finds the same.
  testing::MemorySpanSink live_sink;
  Run live;
  Monitor uninterrupted(pool, capped, store.storage());
  uninterrupted.add_pattern(kKeyed, unbounded, callback_into(live));
  uninterrupted.set_span_sink(&live_sink);
  uninterrupted.on_traces(names);
  feed(uninterrupted, 0, store.event_count());
  finish(live, uninterrupted);
  EXPECT_EQ(live.callbacks, full.callbacks);
  EXPECT_EQ(live.subset, full.subset);
}

// Spilled spans are faulted only when a search's latest-first scan runs
// off the resident entries.  Once every pair is covered, a `P -> Q`
// arrival whose newest P candidate is resident faults nothing (the old
// rule faulted every span down to P's lower bound, index 1, on every
// search); a Q that only an old, spilled P precedes still faults it back
// and matches as the uncapped run does.
TEST(Matcher, SpilledSpansFaultOnlyWhenASearchReachesThem) {
  StringPool pool;
  ComputationBuilder b(pool, {"T0", "T1", "T2"});
  for (int i = 0; i < 5; ++i) {
    b.local(0, "A");
  }
  const std::uint64_t old_message = b.send(0, "S");
  for (int i = 0; i < 40; ++i) {
    b.local(0, "A");
  }
  // Phase 2: each Q on T1 follows the newest P on T0.
  const std::size_t covered_at = b.store().event_count() + 4;
  for (int round = 0; round < 10; ++round) {
    b.local(0, "A");
    b.recv(1, b.send(0, "S"), "R");
    b.local(1, "B");
  }
  // Phase 3: a Q on T2 that only the five oldest P precede.
  const std::size_t late_at = b.store().event_count();
  b.recv(2, old_message, "R");
  b.local(2, "B");
  const EventStore& store = b.store();
  constexpr const char* kPattern =
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";

  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  const auto feed = [&store](Monitor& monitor, std::size_t begin,
                             std::size_t end) {
    for (std::size_t pos = begin; pos < end; ++pos) {
      const EventId id = store.arrival(pos);
      monitor.on_event(store.event(id), store.clock(id));
    }
  };
  using Callbacks = std::vector<std::pair<bool, std::vector<EventId>>>;
  const auto callback_into = [](Callbacks& out) {
    return [&out](const Match& match, bool fresh) {
      out.emplace_back(fresh, match.bindings);
    };
  };
  MatcherConfig exact;
  exact.merge_redundant_history = false;

  Callbacks full;
  Monitor reference(pool, store.storage());
  reference.add_pattern(kPattern, exact, callback_into(full));
  reference.on_traces(names);
  feed(reference, 0, store.event_count());

  MonitorConfig capped;
  capped.history_bytes_limit = 256;
  testing::MemorySpanSink sink;
  Callbacks spilled;
  Monitor monitor(pool, capped, store.storage());
  monitor.add_pattern(kPattern, exact, callback_into(spilled));
  monitor.set_span_sink(&sink);
  monitor.on_traces(names);
  feed(monitor, 0, covered_at);
  ASSERT_EQ(spilled.size(), 1U);
  ASSERT_GT(sink.spills, 0U) << "nothing was spilled: the test is vacuous";
  const std::uint64_t faulted = monitor.matcher(0).stats().history_faulted;
  feed(monitor, covered_at, late_at);
  EXPECT_EQ(spilled.size(), 10U);
  EXPECT_EQ(monitor.matcher(0).stats().history_faulted, faulted)
      << "a search whose candidate was resident faulted a span";
  feed(monitor, late_at, store.event_count());
  EXPECT_GT(monitor.matcher(0).stats().history_faulted, faulted)
      << "the late Q's only witness was not faulted back";
  EXPECT_EQ(spilled, full);
}

}  // namespace
}  // namespace ocep
