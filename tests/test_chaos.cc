// Chaos matrix (ctest label: chaos): every fault family x fixed seeds,
// replayed through the full SessionServer -> FaultyChannel ->
// SessionClient -> Monitor stack.  The contract under fire:
//
//  * the client always reaches a terminal state (no crash, no livelock),
//  * a run that recovered via resync reports the exact clean match set,
//  * a degraded run says so AND reports a subset of the clean set —
//    silent divergence is the one outcome that is never acceptable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "random_computation.h"
#include "testing/chaos_harness.h"

namespace ocep {
namespace {

constexpr const char* kPattern =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";

const std::string kFaultKinds[] = {
    "drop", "duplicate", "reorder", "bitflip",
    "truncate", "disconnect", "soup",
};

testing::FaultSpec make_spec(const std::string& kind, std::uint64_t seed) {
  testing::FaultSpec spec;
  spec.seed = seed;
  if (kind == "drop") {
    spec.drop_per_1000 = 30;
  } else if (kind == "duplicate") {
    spec.duplicate_per_1000 = 30;
  } else if (kind == "reorder") {
    spec.reorder_per_1000 = 30;
  } else if (kind == "bitflip") {
    spec.bitflip_per_1000 = 30;
  } else if (kind == "truncate") {
    spec.truncate_per_1000 = 30;
  } else if (kind == "disconnect") {
    spec.disconnect_every = 200;
    spec.disconnect_burst = 16;
  } else if (kind == "soup") {
    spec.drop_per_1000 = 10;
    spec.duplicate_per_1000 = 10;
    spec.reorder_per_1000 = 10;
    spec.bitflip_per_1000 = 10;
    spec.truncate_per_1000 = 5;
    spec.disconnect_every = 400;
  }
  return spec;
}

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ChaosMatrix, RecoversOrDegradesLoudly) {
  const auto& [kind, seed] = GetParam();

  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 424200 + seed;
  options.traces = 4;
  options.events = 1200;
  const EventStore store = testing::random_computation(pool, options);
  const std::vector<std::string> clean =
      testing::clean_matches(store, pool, kPattern);

  testing::ChaosOptions chaos;
  chaos.faults = make_spec(kind, seed);
  const testing::ChaosResult result =
      testing::run_chaos(store, pool, kPattern, chaos);

  EXPECT_GT(result.faults.faults(), 0U)
      << "fault spec for '" << kind << "' injected nothing";
  ASSERT_TRUE(result.done)
      << "client livelocked: " << result.events_delivered << "/"
      << store.event_count() << " events delivered";
  if (result.degraded) {
    EXPECT_TRUE(testing::is_subset_of(result.matches, clean))
        << "degraded run reported matches outside the clean set";
  } else {
    EXPECT_EQ(result.matches, clean)
        << "recovered run must reproduce the clean match set exactly";
    EXPECT_EQ(result.events_delivered, store.event_count());
    EXPECT_EQ(result.ingest.sheds, 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ChaosMatrix,
    ::testing::Combine(::testing::ValuesIn(kFaultKinds),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{22},
                                         std::uint64_t{33})),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

// The soup, but delivered one byte at a time: partial-frame reassembly and
// fault handling must compose.
TEST(Chaos, SurvivesByteAtATimeFeed) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = 77;
  options.events = 400;
  const EventStore store = testing::random_computation(pool, options);
  const std::vector<std::string> clean =
      testing::clean_matches(store, pool, kPattern);

  testing::ChaosOptions chaos;
  chaos.faults = make_spec("soup", 5);
  chaos.feed_chunk = 1;
  const testing::ChaosResult result =
      testing::run_chaos(store, pool, kPattern, chaos);
  ASSERT_TRUE(result.done);
  if (result.degraded) {
    EXPECT_TRUE(testing::is_subset_of(result.matches, clean));
  } else {
    EXPECT_EQ(result.matches, clean);
  }
}

}  // namespace
}  // namespace ocep
