// Edge cases across module boundaries: error propagation, event limits,
// sparse-backed monitoring, pattern diagnostics and registration order.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/apps.h"
#include "apps/patterns.h"
#include "common/error.h"
#include "core/monitor.h"
#include "sim/sim.h"

namespace ocep {
namespace {

TEST(Monitor, AddPatternRejectsBadTextWithDiagnostics) {
  StringPool pool;
  Monitor monitor(pool);
  try {
    monitor.add_pattern("A := [x, y, z  pattern := A;");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("parse error"),
              std::string::npos);
  }
  EXPECT_THROW(monitor.add_pattern("A := ['', a, '']; pattern := A -> B;"),
               PatternError);
  EXPECT_EQ(monitor.pattern_count(), 0U);
}

TEST(Monitor, SparseBackedMonitorFindsTheSameViolations) {
  auto run_with = [](ClockStorage storage) {
    StringPool pool;
    sim::SimConfig config;
    config.seed = 71;
    sim::Sim sim(pool, config);
    apps::OrderingParams params;
    params.followers = 6;
    params.requests_each = 30;
    params.bug_percent = 4;
    apps::setup_leader_follower(sim, params);
    Monitor monitor(pool, storage);
    monitor.add_pattern(apps::ordering_pattern());
    sim.set_live_sink(&monitor);
    sim.run();
    std::vector<std::vector<EventId>> out;
    for (const Match& match : monitor.matcher(0).subset().matches()) {
      out.push_back(match.bindings);
    }
    return out;
  };
  const auto dense = run_with(ClockStorage::kDense);
  const auto sparse = run_with(ClockStorage::kSparse);
  EXPECT_FALSE(dense.empty());
  EXPECT_EQ(dense, sparse);
}

sim::ProcessBody throwing_body(sim::Proc& ctx) {
  co_await ctx.local(ctx.sym("about_to_fail"));
  throw std::runtime_error("application bug");
}

TEST(MonitorDeathTest, AddPatternAfterFirstEventAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StringPool pool;
  Monitor monitor(pool);
  monitor.on_traces({pool.intern("T0")});
  VectorClock clock(1);
  clock.tick(0);
  Event event;
  event.id = EventId{0, 1};
  event.type = pool.intern("A");
  monitor.on_event(event, clock);
  // The documented contract ("patterns must be added before the first
  // event") must be enforced, not just stated.
  EXPECT_DEATH(
      monitor.add_pattern(
          "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n"),
      "before the first event");
}

TEST(Sim, BodyExceptionsPropagateOutOfRun) {
  StringPool pool;
  sim::SimConfig config;
  config.seed = 73;
  sim::Sim sim(pool, config);
  sim.add_process("P", [](sim::Proc& ctx) { return throwing_body(ctx); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Sim, EventLimitReportsAbandonedProcesses) {
  StringPool pool;
  sim::SimConfig config;
  config.seed = 79;
  config.max_events = 50;
  sim::Sim sim(pool, config);
  apps::AtomicityParams params;
  params.workers = 3;
  params.iterations = 1000;
  apps::setup_atomicity(sim, params);
  const sim::RunResult result = sim.run();
  EXPECT_EQ(result.reason, sim::EndReason::kEventLimit);
  EXPECT_FALSE(result.blocked.empty());  // workers were cut off mid-run
}

TEST(Matcher, SingleLeafPatternMatchesEveryOccurrenceOnce) {
  StringPool pool;
  sim::SimConfig config;
  config.seed = 83;
  sim::Sim sim(pool, config);
  apps::TrafficParams params;
  params.lights = 3;
  params.cycles = 40;
  params.bug_percent = 0;
  apps::setup_traffic_lights(sim, params);

  Monitor monitor(pool);
  std::uint64_t count = 0;
  monitor.add_pattern(R"(
      G := ['', green_on, ''];
      pattern := G;
  )", MatcherConfig{}, [&](const Match&, bool) { ++count; });
  sim.set_live_sink(&monitor);
  ASSERT_EQ(sim.run().reason, sim::EndReason::kCompleted);
  EXPECT_EQ(count, params.cycles);
  // The subset keeps at most one occurrence per trace.
  EXPECT_LE(monitor.matcher(0).subset().matches().size(), 3U);
}

}  // namespace
}  // namespace ocep
