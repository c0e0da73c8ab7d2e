// Overload governance (docs/GOVERNANCE.md): search budgets, the per-pattern
// circuit breaker, byte-capped histories and callback containment.  The
// through-line of every test is the degradation contract: governance may
// drop *work* (searches, matches, history), never *correctness* — whatever
// is still reported is a subset of the unbudgeted run, other patterns are
// unaffected, and every loss is counted in the health report.  Determinism
// is the second contract: the breaker clock is the observe count, so
// identical inputs and budgets produce identical match sets and health.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/governor.h"
#include "core/monitor.h"
#include "random_computation.h"
#include "testing/chaos_harness.h"

namespace ocep {
namespace {

/// A cheap two-leaf precedence pattern (the well-behaved tenant).
constexpr const char* kBenign =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";

/// The adversarial tenant.  Every leaf reference instantiates a fresh
/// leaf, so this compiles to six independent concurrent pairs — twelve
/// same-type backtracking levels with no precedence edge to prune on, the
/// worst case for the search.
constexpr const char* kHostile = R"(
    E1 := ['', A, '']; E2 := ['', A, ''];
    E3 := ['', A, '']; E4 := ['', A, ''];
    pattern := (E1 || E2) && (E1 || E3) && (E1 || E4) &&
               (E2 || E3) && (E2 || E4) && (E3 || E4);
)";

EventStore make_store(StringPool& pool, std::uint32_t events = 600,
                      std::uint64_t seed = 1, std::uint32_t traces = 8) {
  testing::RandomComputationOptions options;
  options.traces = traces;
  options.events = events;
  options.seed = seed;
  return testing::random_computation(pool, options);
}

std::vector<Symbol> trace_names(const EventStore& store) {
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  return names;
}

void feed_all(Monitor& monitor, const EventStore& store) {
  monitor.on_traces(trace_names(store));
  for (std::uint64_t pos = 0; pos < store.event_count(); ++pos) {
    const EventId id = store.arrival(pos);
    monitor.on_event(store.event(id), store.clock(id));
  }
}

// ---------------------------------------------------------------------------
// PatternGovernor state machine.

TEST(Governor, TripsAfterKBlownBudgetsInsideTheWindow) {
  PatternGovernor governor;
  SearchBudget budget;
  budget.max_steps = 10;
  BreakerConfig breaker;
  breaker.trip_failures = 3;
  breaker.window_observes = 100;
  breaker.cooldown_observes = 5;
  governor.configure(budget, breaker);

  SearchBudget effective;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    ASSERT_TRUE(governor.admit(i, effective));
    EXPECT_EQ(effective.max_steps, 10U);
    governor.on_search_result(i, true);
    EXPECT_EQ(governor.state(), BreakerState::kClosed);
  }
  ASSERT_TRUE(governor.admit(3, effective));
  governor.on_search_result(3, true);  // third blow: trip
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
  EXPECT_EQ(governor.trips(), 1U);

  // Open: observes are shed until the cooldown elapses.
  EXPECT_FALSE(governor.admit(4, effective));
  EXPECT_FALSE(governor.admit(7, effective));
  // Cooldown over: half-open probe with the reduced budget.
  ASSERT_TRUE(governor.admit(8, effective));
  EXPECT_EQ(governor.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(effective.max_steps, 5U);
  EXPECT_EQ(governor.probes(), 1U);

  // Probe succeeds: closed again, with a clean failure window.
  governor.on_search_result(8, false);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  ASSERT_TRUE(governor.admit(9, effective));
  EXPECT_EQ(effective.max_steps, 10U);
  governor.on_search_result(9, true);
  EXPECT_EQ(governor.state(), BreakerState::kClosed)
      << "the pre-trip failures must not count after a successful probe";
}

TEST(Governor, FailuresOutsideTheRollingWindowDoNotCount) {
  PatternGovernor governor;
  SearchBudget budget;
  budget.max_steps = 1;
  BreakerConfig breaker;
  breaker.trip_failures = 2;
  breaker.window_observes = 10;
  governor.configure(budget, breaker);

  SearchBudget effective;
  ASSERT_TRUE(governor.admit(1, effective));
  governor.on_search_result(1, true);
  // The second blow lands 11 observes later: the first has expired.
  ASSERT_TRUE(governor.admit(12, effective));
  governor.on_search_result(12, true);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  // A third inside the window of the second trips.
  ASSERT_TRUE(governor.admit(13, effective));
  governor.on_search_result(13, true);
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
}

TEST(Governor, FailedProbeReopensTheBreaker) {
  PatternGovernor governor;
  SearchBudget budget;
  budget.max_steps = 8;
  BreakerConfig breaker;
  breaker.trip_failures = 1;
  breaker.cooldown_observes = 4;
  governor.configure(budget, breaker);

  SearchBudget effective;
  ASSERT_TRUE(governor.admit(1, effective));
  governor.on_search_result(1, true);
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
  ASSERT_TRUE(governor.admit(5, effective));  // half-open probe
  governor.on_search_result(5, true);         // probe blows too
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
  EXPECT_EQ(governor.trips(), 2U);
  // The cooldown restarts from the failed probe.
  EXPECT_FALSE(governor.admit(6, effective));
  EXPECT_TRUE(governor.admit(9, effective));
}

TEST(Governor, CheckpointRoundTripsTheDynamicState) {
  PatternGovernor governor;
  SearchBudget budget;
  budget.max_steps = 4;
  BreakerConfig breaker;
  breaker.trip_failures = 2;
  breaker.cooldown_observes = 50;
  governor.configure(budget, breaker);
  SearchBudget effective;
  ASSERT_TRUE(governor.admit(1, effective));
  governor.on_search_result(1, true);
  ASSERT_TRUE(governor.admit(2, effective));
  governor.on_search_result(2, true);  // trip at observe 2
  ASSERT_EQ(governor.state(), BreakerState::kOpen);

  std::ostringstream out;
  governor.checkpoint(out);
  PatternGovernor restored;
  restored.configure(budget, breaker);
  std::istringstream in(out.str());
  restored.restore(in);
  EXPECT_EQ(restored.state(), BreakerState::kOpen);
  EXPECT_EQ(restored.trips(), 1U);
  // Same cooldown clock: still shedding at 51, probing at 52.
  EXPECT_FALSE(restored.admit(51, effective));
  EXPECT_TRUE(restored.admit(52, effective));
}

TEST(Governor, RestoreRefusesAnUnknownState) {
  PatternGovernor governor;
  std::ostringstream out;
  governor.checkpoint(out);
  std::string bytes = out.str();
  ASSERT_EQ(bytes[0], static_cast<char>(BreakerState::kClosed));
  // States 0-2 are closed, open and half-open; nothing else is a state.
  bytes[0] = 3;
  std::istringstream in(bytes);
  PatternGovernor restored;
  EXPECT_THROW(restored.restore(in), SerializationError);
}

// ---------------------------------------------------------------------------
// Budgeted matching: drops work, never correctness.

TEST(Governance, BudgetedMatchesStayGenuineAndMatchingContinues) {
  StringPool pool;
  const EventStore store = make_store(pool);

  MatcherConfig tight;
  tight.budget.max_steps = 32;
  Monitor budgeted(pool, store.storage());
  budgeted.add_pattern(kHostile, tight);
  feed_all(budgeted, store);

  const MatcherStats& stats = budgeted.matcher(0).stats();
  EXPECT_GT(stats.searches_aborted, 0U) << "the budget never engaged — the "
                                           "workload is not adversarial";
  EXPECT_LT(stats.searches_aborted, stats.searches)
      << "some searches must still complete";
  EXPECT_GT(stats.matches_reported, 0U)
      << "aborted searches must not wedge the matcher";
  // Aborting mid-search may drop matches and shift which representative
  // the coverage pins retain, but everything that *is* reported must be a
  // genuine match: each constrained pair (2i, 2i+1) genuinely concurrent.
  ASSERT_FALSE(budgeted.matcher(0).subset().matches().empty());
  for (const Match& match : budgeted.matcher(0).subset().matches()) {
    ASSERT_EQ(match.bindings.size() % 2, 0U);
    for (std::size_t pair = 0; pair + 1 < match.bindings.size(); pair += 2) {
      EXPECT_EQ(store.relate(match.bindings[pair], match.bindings[pair + 1]),
                Relation::kConcurrent);
    }
  }
  EXPECT_TRUE(budgeted.health().degraded());
}

TEST(Governance, DefaultAndExplicitUnlimitedBudgetsAreByteIdentical) {
  StringPool pool;
  const EventStore store = make_store(pool, 400, 5);

  const auto checkpoint_of = [&](const MatcherConfig& config) {
    Monitor monitor(pool, store.storage());
    monitor.add_pattern(kHostile, config);
    feed_all(monitor, store);
    std::ostringstream out;
    monitor.checkpoint(out);
    return out.str();
  };

  MatcherConfig explicit_unlimited;
  explicit_unlimited.budget.max_steps = 0;
  explicit_unlimited.budget.deadline_ns = 0;
  explicit_unlimited.breaker.trip_failures = 0;
  EXPECT_EQ(checkpoint_of(MatcherConfig{}),
            checkpoint_of(explicit_unlimited))
      << "governance at its defaults must be bit-for-bit invisible";
}

/// The acceptance scenario: a hostile pattern trips its breaker while the
/// benign tenant's match set stays bit-identical to a solo run.
TEST(Governance, HostilePatternCannotStarveItsNeighborSynchronous) {
  StringPool pool;
  const EventStore store = make_store(pool, 800, 3);

  Monitor solo(pool, store.storage());
  solo.add_pattern(kBenign);
  feed_all(solo, store);
  const std::vector<std::string> expected =
      testing::match_signature(solo, 0);

  MatcherConfig tight;
  tight.budget.max_steps = 16;
  tight.breaker.trip_failures = 3;
  tight.breaker.window_observes = 64;
  tight.breaker.cooldown_observes = 32;
  Monitor shared(pool, store.storage());
  shared.add_pattern(kBenign);
  shared.add_pattern(kHostile, tight);
  feed_all(shared, store);

  EXPECT_EQ(testing::match_signature(shared, 0), expected)
      << "the hostile tenant leaked into the benign pattern's results";
  const HealthReport health = shared.health();
  ASSERT_EQ(health.patterns.size(), 2U);
  EXPECT_EQ(health.patterns[0].state, BreakerState::kClosed);
  EXPECT_EQ(health.patterns[0].searches_aborted, 0U);
  EXPECT_GT(health.patterns[1].breaker_trips, 0U);
  EXPECT_GT(health.patterns[1].observes_shed, 0U);
  EXPECT_TRUE(health.degraded());
}

// ---------------------------------------------------------------------------
// History byte cap.

TEST(Governance, ByteCapBoundsHistoryAndCountsEvictions) {
  StringPool pool;
  const EventStore store = make_store(pool, 1200, 17);

  Monitor unbounded(pool, store.storage());
  unbounded.add_pattern(kBenign);
  feed_all(unbounded, store);
  const std::vector<std::string> full =
      testing::match_signature(unbounded, 0);
  const std::size_t full_bytes = unbounded.matcher(0).history_bytes();
  ASSERT_GT(full_bytes, 4096U) << "workload too small to exercise the cap";

  MonitorConfig capped;
  capped.history_bytes_limit = 4096;
  Monitor bounded(pool, capped, store.storage());
  bounded.add_pattern(kBenign);
  feed_all(bounded, store);

  EXPECT_LE(bounded.matcher(0).history_bytes(), capped.history_bytes_limit);
  const PatternHealth health = bounded.matcher(0).health();
  EXPECT_GT(health.history_evicted, 0U);
  EXPECT_EQ(health.history_bytes, bounded.matcher(0).history_bytes());
  EXPECT_TRUE(testing::is_subset_of(testing::match_signature(bounded, 0),
                                    full))
      << "eviction may lose matches, never invent them";
}

// ---------------------------------------------------------------------------
// Callback containment.

TEST(Governance, ThrowingCallbackIsContainedSynchronously) {
  StringPool pool;
  const EventStore store = make_store(pool, 400, 23);
  std::uint64_t calls = 0;
  Monitor monitor(pool, store.storage());
  monitor.add_pattern(kBenign, MatcherConfig{},
                      [&calls](const Match&, bool) {
                        ++calls;
                        throw std::runtime_error("sink on fire");
                      });
  // The legacy behaviour propagated mid-search; containment must both
  // swallow the exception and keep the matcher running.
  EXPECT_NO_THROW(feed_all(monitor, store));
  const MatcherStats& stats = monitor.matcher(0).stats();
  EXPECT_GT(calls, 1U) << "matching must continue past the first throw";
  EXPECT_EQ(stats.callback_errors, calls);
  const HealthReport health = monitor.health();
  EXPECT_TRUE(health.degraded());
  EXPECT_NE(health.patterns[0].last_error.find("sink on fire"),
            std::string::npos);
}

/// A throwing callback must not cut the Monitor's dispatch loop short: the
/// patterns offered the arrival after the thrower still observe it, and the
/// thrower itself keeps matching as if it had no callback.
TEST(Governance, ThrowingCallbackLeavesItsNeighborsUntouched) {
  StringPool pool;
  const EventStore store = make_store(pool, 500, 29);
  // Offered every event the benign pattern is offered (types A and B).
  constexpr const char* kThird =
      "P := ['', B, '']; Q := ['', A, ''];\npattern := P || Q;\n";

  const auto solo_signature = [&](const char* pattern) {
    Monitor solo(pool, store.storage());
    solo.add_pattern(pattern);
    feed_all(solo, store);
    return testing::match_signature(solo, 0);
  };
  const std::vector<std::string> benign = solo_signature(kBenign);
  const std::vector<std::string> third = solo_signature(kThird);
  ASSERT_FALSE(benign.empty());
  ASSERT_FALSE(third.empty());

  std::uint64_t calls = 0;
  Monitor monitor(pool, store.storage());
  monitor.add_pattern(kBenign);
  monitor.add_pattern(kBenign, MatcherConfig{},
                      [&calls](const Match&, bool) {
                        ++calls;
                        throw std::runtime_error("poisoned sink");
                      });
  monitor.add_pattern(kThird);
  EXPECT_NO_THROW(feed_all(monitor, store));

  EXPECT_EQ(testing::match_signature(monitor, 0), benign);
  EXPECT_EQ(testing::match_signature(monitor, 1), benign)
      << "the thrower must match as if it had no callback";
  EXPECT_EQ(testing::match_signature(monitor, 2), third)
      << "the pattern after the thrower missed arrivals";
  EXPECT_GT(calls, 0U);
  EXPECT_EQ(monitor.matcher(1).stats().callback_errors, calls);
  const HealthReport health = monitor.health();
  EXPECT_EQ(health.patterns[0].callback_errors, 0U);
  EXPECT_EQ(health.patterns[2].callback_errors, 0U);
  for (const PatternHealth& pattern : health.patterns) {
    EXPECT_EQ(pattern.state, BreakerState::kClosed);
  }
}

TEST(Governance, HealthReportRendersBothFormats) {
  StringPool pool;
  const EventStore store = make_store(pool, 300, 31);
  MatcherConfig tight;
  tight.budget.max_steps = 8;
  tight.breaker.trip_failures = 1;
  Monitor monitor(pool, store.storage());
  monitor.add_pattern(kHostile, tight);
  feed_all(monitor, store);

  const HealthReport health = monitor.health();
  const std::string text = health.to_text();
  EXPECT_NE(text.find("pattern"), std::string::npos);
  const std::string json = health.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"searches_aborted\""), std::string::npos);
}

}  // namespace
}  // namespace ocep
