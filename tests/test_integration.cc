// End-to-end integration: simulated case-study applications monitored live
// through the full stack (sim -> Monitor(EventSink) -> store -> matcher),
// checked against ground truth and the baseline detectors — the paper's
// §V-D completeness result: all injected violations found, no false
// positives.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "apps/apps.h"
#include "apps/patterns.h"
#include "baseline/conflict_graph.h"
#include "baseline/naive_matcher.h"
#include "baseline/race_checker.h"
#include "core/monitor.h"
#include "poet/dump.h"
#include "poet/replay.h"
#include "sim/sim.h"

namespace ocep {
namespace {

sim::SimConfig config_with(std::uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  config.channel_capacity = 2;
  return config;
}

TEST(Integration, DeadlockCycleIsDetectedOnline) {
  StringPool pool;
  sim::Sim sim(pool, config_with(501));
  apps::RandomWalkParams params;
  params.processes = 10;
  params.cycle_length = 4;
  params.steps = 80;
  const apps::RandomWalkApp app = setup_random_walk(sim, params);

  Monitor monitor(pool);
  monitor.add_pattern(apps::deadlock_pattern(params.cycle_length));
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kQuiescent);

  const auto& matches = monitor.matcher(0).subset().matches();
  ASSERT_FALSE(matches.empty()) << "the injected deadlock was not detected";
  const std::set<TraceId> cycle(app.cycle.begin(), app.cycle.end());
  for (const Match& match : matches) {
    std::set<TraceId> traces;
    for (const EventId id : match.bindings) {
      traces.insert(id.trace);
      EXPECT_EQ(monitor.store().event(id).kind, EventKind::kBlockedSend);
    }
    EXPECT_EQ(traces, cycle) << "a match outside the injected cycle: a "
                                "false positive";
  }
}

TEST(Integration, NoDeadlockMeansNoMatches) {
  StringPool pool;
  sim::Sim sim(pool, config_with(503));
  apps::RandomWalkParams params;
  params.processes = 10;
  params.cycle_length = 4;
  params.steps = 80;
  params.inject_deadlock = false;
  setup_random_walk(sim, params);

  Monitor monitor(pool);
  monitor.add_pattern(apps::deadlock_pattern(params.cycle_length));
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  EXPECT_EQ(result.reason, sim::EndReason::kCompleted);
  EXPECT_TRUE(monitor.matcher(0).subset().matches().empty())
      << "false positive: no deadlock was injected";
}

TEST(Integration, MessageRacesMatchTheRaceCheckerOracle) {
  StringPool pool;
  sim::Sim sim(pool, config_with(507));
  apps::RaceParams params;
  params.traces = 8;
  params.messages_each = 40;
  const apps::RaceApp app = setup_race_bench(sim, params);

  Monitor monitor(pool);
  std::vector<Match> reported;
  monitor.add_pattern(apps::race_pattern(), MatcherConfig{},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kCompleted);

  // Oracle: MPIRace-Check-style timestamp comparison over the same store.
  baseline::RaceChecker checker(monitor.store());
  for (const EventId id : monitor.store().arrival_order()) {
    checker.observe(monitor.store().event(id));
  }
  ASSERT_GT(checker.races(), 0U);

  // Soundness: every reported match's sends are concurrent and partner its
  // receives (leaf order: S1, S2, R1, R2).
  const pattern::CompiledPattern reference =
      pattern::compile(apps::race_pattern(), pool);
  std::set<EventIndex> reported_later_receives;
  for (const Match& match : reported) {
    EXPECT_TRUE(baseline::is_valid_match(monitor.store(), reference, match));
    const EventId r1 = match.bindings[2];
    const EventId r2 = match.bindings[3];
    EXPECT_EQ(r1.trace, app.receiver);
    EXPECT_EQ(r2.trace, app.receiver);
    reported_later_receives.insert(std::max(r1.index, r2.index));
  }

  // Completeness: every receive that races with an *earlier* receive (the
  // oracle's second element) reported at least one match on its arrival.
  std::set<EventIndex> oracle_later_receives;
  for (const baseline::RaceChecker::Race& race : checker.found()) {
    oracle_later_receives.insert(race.second_receive.index);
  }
  EXPECT_EQ(reported_later_receives, oracle_later_receives);
}

TEST(Integration, AtomicityInjectionsAreAllDetected) {
  StringPool pool;
  sim::Sim sim(pool, config_with(511));
  apps::AtomicityParams params;
  params.workers = 8;
  params.iterations = 120;
  params.skip_percent = 3;
  const apps::AtomicityApp app = setup_atomicity(sim, params);

  Monitor monitor(pool);
  std::vector<Match> reported;
  monitor.add_pattern(apps::atomicity_pattern(), MatcherConfig{},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kCompleted);
  ASSERT_FALSE(app.injections->empty());

  // Soundness: every match is a pair of genuinely concurrent entries, and
  // at least one side is a skipped (unprotected) section — two protected
  // sections are always ordered through the semaphore.
  std::set<EventId> injected_enters;
  for (const apps::AtomicityInjection& injection : *app.injections) {
    injected_enters.insert(injection.enter_event);
  }
  std::set<EventId> enters_in_matches;
  for (const Match& match : reported) {
    EXPECT_EQ(monitor.store().relate(match.bindings[0], match.bindings[1]),
              Relation::kConcurrent);
    EXPECT_TRUE(injected_enters.contains(match.bindings[0]) ||
                injected_enters.contains(match.bindings[1]))
        << "two semaphore-protected sections were reported concurrent";
    enters_in_matches.insert(match.bindings[0]);
    enters_in_matches.insert(match.bindings[1]);
  }

  // Completeness: every injected unprotected entry appears in a report.
  for (const EventId enter : injected_enters) {
    EXPECT_TRUE(enters_in_matches.contains(enter))
        << "injection on trace " << enter.trace << " missed";
  }
}

TEST(Integration, ProtectedSectionsProduceNoFalsePositives) {
  StringPool pool;
  sim::Sim sim(pool, config_with(513));
  apps::AtomicityParams params;
  params.workers = 6;
  params.iterations = 60;
  params.skip_percent = 0;  // no bug
  setup_atomicity(sim, params);

  Monitor monitor(pool);
  monitor.add_pattern(apps::atomicity_pattern());
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kCompleted);
  EXPECT_TRUE(monitor.matcher(0).subset().matches().empty());
}

TEST(Integration, OrderingBugMatchesAreExactlyTheInjections) {
  StringPool pool;
  sim::Sim sim(pool, config_with(517));
  apps::OrderingParams params;
  params.followers = 12;
  params.requests_each = 40;
  params.bug_percent = 3;
  const apps::OrderingApp app = setup_leader_follower(sim, params);

  Monitor monitor(pool);
  std::vector<Match> reported;
  monitor.add_pattern(apps::ordering_pattern(), MatcherConfig{},
                      [&](const Match& match, bool) {
                        reported.push_back(match);
                      });
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kCompleted);
  ASSERT_FALSE(app.injections->empty());

  // Leaf order in the compiled pattern: Synch, $Diff (snapshot),
  // $Write (update), Forward.
  using Triple = std::tuple<EventId, EventId, EventId>;
  std::set<Triple> reported_triples;
  for (const Match& match : reported) {
    reported_triples.emplace(match.bindings[1], match.bindings[2],
                             match.bindings[3]);
  }
  std::set<Triple> injected_triples;
  for (const apps::OrderingInjection& injection : *app.injections) {
    injected_triples.emplace(injection.snapshot_event,
                             injection.update_event,
                             injection.forward_event);
  }
  EXPECT_EQ(reported_triples, injected_triples);
}

TEST(Integration, OrderingWithoutBugIsSilent) {
  StringPool pool;
  sim::Sim sim(pool, config_with(519));
  apps::OrderingParams params;
  params.followers = 8;
  params.requests_each = 30;
  params.bug_percent = 0;
  setup_leader_follower(sim, params);

  Monitor monitor(pool);
  monitor.add_pattern(apps::ordering_pattern());
  sim.set_live_sink(&monitor);
  const sim::RunResult result = sim.run();
  ASSERT_EQ(result.reason, sim::EndReason::kCompleted);
  EXPECT_TRUE(monitor.matcher(0).subset().matches().empty());
}

// The §I motivating example: two concurrent greens are exactly the
// injected early grants; a correct controller never triggers the pattern.
TEST(Integration, TrafficLightsUnsafeStatesMatchInjections) {
  StringPool pool;
  sim::Sim sim(pool, config_with(541));
  apps::TrafficParams params;
  params.lights = 5;
  params.cycles = 300;
  params.bug_percent = 4;
  const apps::TrafficApp app = setup_traffic_lights(sim, params);

  Monitor monitor(pool);
  std::set<std::pair<EventId, EventId>> pairs;
  monitor.add_pattern(apps::traffic_pattern(), MatcherConfig{},
                      [&](const Match& match, bool) {
                        EventId a = match.bindings[0];
                        EventId b = match.bindings[1];
                        if (b < a) {
                          std::swap(a, b);
                        }
                        pairs.emplace(a, b);
                      });
  sim.set_live_sink(&monitor);
  ASSERT_EQ(sim.run().reason, sim::EndReason::kCompleted);
  ASSERT_FALSE(app.injections->empty());

  // One concurrent green pair per injection, all genuinely concurrent.
  EXPECT_EQ(pairs.size(), app.injections->size());
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(monitor.store().relate(a, b), Relation::kConcurrent);
    EXPECT_EQ(pool.view(monitor.store().event(a).type), "green_on");
    EXPECT_EQ(pool.view(monitor.store().event(b).type), "green_on");
  }
}

TEST(Integration, CorrectTrafficControllerIsSilent) {
  StringPool pool;
  sim::Sim sim(pool, config_with(543));
  apps::TrafficParams params;
  params.lights = 4;
  params.cycles = 120;
  params.bug_percent = 0;
  setup_traffic_lights(sim, params);
  Monitor monitor(pool);
  monitor.add_pattern(apps::traffic_pattern());
  sim.set_live_sink(&monitor);
  ASSERT_EQ(sim.run().reason, sim::EndReason::kCompleted);
  EXPECT_TRUE(monitor.matcher(0).subset().matches().empty());
}

// Live monitoring, replay of the recorded store, and reload of a dump must
// all produce the identical representative subset — the full §V-B
// methodology loop.
TEST(Integration, LiveReplayAndReloadAgree) {
  StringPool pool;

  // 1. Live.
  sim::Sim sim(pool, config_with(523));
  apps::OrderingParams params;
  params.followers = 6;
  params.requests_each = 30;
  params.bug_percent = 5;
  setup_leader_follower(sim, params);
  Monitor live(pool);
  live.add_pattern(apps::ordering_pattern());
  sim.set_live_sink(&live);
  ASSERT_EQ(sim.run().reason, sim::EndReason::kCompleted);

  auto subset_of = [](const Monitor& monitor) {
    std::vector<std::vector<EventId>> out;
    for (const Match& match : monitor.matcher(0).subset().matches()) {
      out.push_back(match.bindings);
    }
    return out;
  };

  // 2. Replay of the simulator's own store.
  Monitor replayed(pool);
  replayed.add_pattern(apps::ordering_pattern());
  replay(sim.store(), replayed);
  EXPECT_EQ(subset_of(live), subset_of(replayed));

  // 3. Dump to bytes, reload into a third monitor.
  std::stringstream buffer;
  dump(sim.store(), pool, buffer);
  Monitor reloaded(pool);
  reloaded.add_pattern(apps::ordering_pattern());
  reload(buffer, pool, reloaded);
  EXPECT_EQ(subset_of(live), subset_of(reloaded));
  EXPECT_EQ(reloaded.events_seen(), sim.store().event_count());
}

}  // namespace
}  // namespace ocep
