// Shared evaluation across a Monitor's patterns must not change what any
// pattern reports.  A Monitor offers an event only to the patterns with a
// leaf that can accept its type; the checks below hold that dispatch to
// the behaviour of feeding every pattern every event:
//
//   1. Pinned digests of one Monitor holding a mixed pattern set, over
//      fixed seeds on both timestamp backends, two per case:
//      - the output digest: every callback in order (pattern,
//        newly_covering, bindings), every retained subset and every
//        MatcherStats counter but the search-effort ones.  These values
//        were computed by a Monitor that called every pattern's observe()
//        on every event, and by a matcher that swept every trace;
//      - the effort digest: the search-effort counters (nodes_explored,
//        backjumps, levels_entered, domain_prunes), which a sounder or
//        tighter search may move without changing the output.  Pinned at
//        the matcher that sweeps only the traces that can hold a
//        candidate.
//   2. Standalone equivalence — each pattern's output from the Monitor
//      equals that of an OcepMatcher that is fed every event itself.
//
// Both run over two pattern sets: the mixed set, and a sharing set whose
// patterns read each other's leaf histories (core/history_table.h).  The
// sharing set's digests were computed by a Monitor that kept one history
// per (pattern, leaf).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "pattern/compiled.h"
#include "poet/replay.h"
#include "random_computation.h"

namespace ocep {
namespace {

/// An eight-operator set, bench/pipeline's sixteen `P -> Q` patterns
/// over types A..D, and leaves that no type index can narrow: a wildcard
/// type, a type variable, and a literal or variable process.
std::vector<std::string> mixed_patterns() {
  std::vector<std::string> patterns = {
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n",
      "P := ['', B, '']; Q := ['', C, ''];\npattern := P || Q;\n",
      "S := ['', '', '']; R := ['', '', ''];\npattern := S <-> R;\n",
      "P := ['', D, '']; Q := ['', A, ''];\npattern := P -lim-> Q;\n",
      "P := ['', C, '$t']; Q := ['', '', '$t'];\npattern := P -> Q;\n",
      "P := ['', A, '']; Q := ['', B, '']; R := ['', C, ''];\n"
      "pattern := P -> Q -> R;\n",
      "P := ['', A, '']; Q := ['', D, ''];\npattern := P || Q;\n",
      "P := ['$p', B, '']; Q := ['$p', C, ''];\npattern := P -> Q;\n",
  };
  for (char x = 'A'; x <= 'D'; ++x) {
    for (char y = 'A'; y <= 'D'; ++y) {
      std::string text = "P := ['', ";
      text += x;
      text += ", '']; Q := ['', ";
      text += y;
      text += ", ''];\npattern := P -> Q;\n";
      patterns.push_back(text);
    }
  }
  patterns.push_back(
      "P := ['', '', x]; Q := ['', C, ''];\npattern := P -> Q;\n");
  patterns.push_back(
      "P := ['', $k, '']; Q := ['', $k, y];\npattern := P || Q;\n");
  patterns.push_back(
      "P := [T1, A, '']; Q := ['', B, ''];\npattern := P -> Q;\n");
  patterns.push_back(
      "P := [$p, A, $t]; Q := [$p, '', $t];\npattern := P -> Q;\n");
  return patterns;
}

/// Patterns whose leaves share classes, and near-misses that must not:
/// a class read by several patterns (a process variable accepts any
/// process, as a wildcard does), a pattern that differs from another only
/// by a '-lim->'-quantified leaf (which keeps every occurrence), leaves
/// that differ only by key attribute (text vs type variable), and
/// patterns with two leaves of one class.
std::vector<std::string> sharing_patterns() {
  return {
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n",
      "P := ['', A, '']; Q := ['', C, ''];\npattern := P || Q;\n",
      "P := [$p, A, '']; Q := [$p, B, ''];\npattern := P -> Q;\n",
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -lim-> Q;\n",
      "P := ['', A, '']; Q := ['', D, ''];\npattern := P -lim-> Q;\n",
      "P := ['', $k, $t]; Q := ['', C, $t];\npattern := P -> Q;\n",
      "P := ['', $k, '']; Q := ['', $k, y];\npattern := P || Q;\n",
      "P := ['', '', $t]; Q := [T1, B, $t];\npattern := Q -> P;\n",
      "P := ['', D, '']; Q := ['', D, ''];\npattern := P -> Q;\n",
      "P := ['', C, x]; Q := ['', C, x];\npattern := P || Q;\n",
  };
}

struct Callback {
  bool fresh = false;
  std::vector<EventId> bindings;
  friend bool operator==(const Callback&, const Callback&) = default;
};

/// Everything one pattern produced.
struct Outcome {
  std::vector<Callback> callbacks;
  std::vector<std::vector<EventId>> subset;
  MatcherStats stats;
};

/// Every MatcherStats counter, in declaration order.
std::vector<std::uint64_t> counters(const MatcherStats& s) {
  return {s.events_observed, s.leaf_hits, s.searches, s.matches_reported,
          s.nodes_explored, s.backjumps, s.history_entries, s.history_merged,
          s.history_pruned, s.levels_entered, s.domain_prunes, s.pins_run,
          s.pins_skipped, s.searches_aborted, s.observes_shed, s.breaker_trips,
          s.history_evicted, s.callback_errors, s.history_spilled,
          s.history_faulted, s.spans_lost};
}

/// How much searching was done: a change to the search may move these
/// without changing what it finds.
std::vector<std::uint64_t> effort_counters(const MatcherStats& s) {
  return {s.nodes_explored, s.backjumps, s.levels_entered, s.domain_prunes};
}

/// Every other MatcherStats counter, in declaration order.
std::vector<std::uint64_t> outcome_counters(const MatcherStats& s) {
  return {s.events_observed, s.leaf_hits, s.searches, s.matches_reported,
          s.history_entries, s.history_merged, s.history_pruned, s.pins_run,
          s.pins_skipped, s.searches_aborted, s.observes_shed,
          s.breaker_trips, s.history_evicted, s.callback_errors,
          s.history_spilled, s.history_faulted, s.spans_lost};
}

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(EventId id) {
    add(id.trace);
    add(id.index);
  }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

EventStore make_source(StringPool& pool, std::uint64_t seed,
                       ClockStorage storage) {
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = 5;
  options.events = 600;
  options.storage = storage;
  return testing::random_computation(pool, options);
}

struct Digests {
  std::string output;
  std::string effort;
};

/// Replays `source` through one Monitor holding every pattern; returns
/// each pattern's outcome and, when `digests` is given, the digests over
/// all of them, with the callbacks digested in the order the Monitor made
/// them.
std::vector<Outcome> run_monitor(const EventStore& source, StringPool& pool,
                                 const std::vector<std::string>& patterns,
                                 const MatcherConfig& matcher_config,
                                 Digests* digests) {
  std::vector<Outcome> out(patterns.size());
  Fnv fnv;
  Fnv effort;
  Monitor monitor(pool, source.storage());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    monitor.add_pattern(patterns[i], matcher_config,
                        [&out, &fnv, i](const Match& match, bool fresh) {
                          out[i].callbacks.push_back({fresh, match.bindings});
                          fnv.add(i);
                          fnv.add(fresh ? 1U : 0U);
                          for (const EventId id : match.bindings) {
                            fnv.add(id);
                          }
                        });
  }
  replay(source, monitor);
  EXPECT_EQ(monitor.events_seen(), source.event_count());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const OcepMatcher& matcher = monitor.matcher(i);
    for (const Match& match : matcher.subset().matches()) {
      out[i].subset.push_back(match.bindings);
      for (const EventId id : match.bindings) {
        fnv.add(id);
      }
    }
    out[i].stats = matcher.stats();
    for (const std::uint64_t value : outcome_counters(matcher.stats())) {
      fnv.add(value);
    }
    for (const std::uint64_t value : effort_counters(matcher.stats())) {
      effort.add(value);
    }
  }
  if (digests != nullptr) {
    digests->output = fnv.hex();
    digests->effort = effort.hex();
  }
  return out;
}

/// A budget small enough to abort some searches, and a breaker that trips
/// on them: pins the breaker clock (an event's arrival position) as well.
MatcherConfig governed_config() {
  MatcherConfig config;
  config.budget.max_steps = 3;
  config.breaker.trip_failures = 2;
  config.breaker.window_observes = 40;
  config.breaker.cooldown_observes = 25;
  return config;
}

struct PinnedCase {
  std::uint32_t seed;
  ClockStorage storage;
  bool governed;
  const char* output;
  const char* effort;
  /// Over sharing_patterns() instead of mixed_patterns().
  bool sharing = false;
};

/// The instance name (`seed41_dense`, `sharing_seed41_dense`, ...), also
/// what gtest prints for the parameter: its raw bytes would carry the
/// digest pointers and padding, so the listed test names would change
/// from build to build.
std::string case_name(const PinnedCase& c) {
  return std::string(c.sharing ? "sharing_" : "") + "seed" +
         std::to_string(c.seed) +
         (c.storage == ClockStorage::kDense ? "_dense" : "_sparse") +
         (c.governed ? "_governed" : "");
}

void PrintTo(const PinnedCase& c, std::ostream* out) { *out << case_name(c); }

class DispatchDigest : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(DispatchDigest, MonitorOutputIsPinned) {
  const PinnedCase& pinned = GetParam();
  StringPool pool;
  const EventStore source = make_source(pool, pinned.seed, pinned.storage);
  const MatcherConfig config =
      pinned.governed ? governed_config() : MatcherConfig{};
  Digests digests;
  const std::vector<Outcome> outcome = run_monitor(
      source, pool, pinned.sharing ? sharing_patterns() : mixed_patterns(),
      config, &digests);
  EXPECT_EQ(digests.output, pinned.output);
  EXPECT_EQ(digests.effort, pinned.effort);

  // The set is not vacuous: most patterns match, every pattern counts
  // every arrival, and the governed runs shed searches.
  std::size_t matching = 0;
  std::uint64_t shed = 0;
  for (const Outcome& pattern : outcome) {
    matching += pattern.subset.empty() ? 0U : 1U;
    shed += pattern.stats.observes_shed;
    EXPECT_EQ(pattern.stats.events_observed, source.event_count());
  }
  EXPECT_GE(matching, outcome.size() / 2);
  EXPECT_EQ(shed > 0, pinned.governed);
}

// Dense and sparse stores answer every causal query alike, so each seed
// pins one pair of digests for both.
INSTANTIATE_TEST_SUITE_P(
    Seeds, DispatchDigest,
    ::testing::Values(
        PinnedCase{41, ClockStorage::kDense, false, "dbc1a4e812f9004b",
                   "7b5b3c189e4128d7"},
        PinnedCase{41, ClockStorage::kSparse, false, "dbc1a4e812f9004b",
                   "7b5b3c189e4128d7"},
        PinnedCase{42, ClockStorage::kDense, false, "6663732eef876ee4",
                   "e260688267945b1f"},
        PinnedCase{42, ClockStorage::kSparse, false, "6663732eef876ee4",
                   "e260688267945b1f"},
        PinnedCase{43, ClockStorage::kDense, false, "f283b14fcc4a9ae3",
                   "35f909e29283f856"},
        PinnedCase{43, ClockStorage::kSparse, false, "f283b14fcc4a9ae3",
                   "35f909e29283f856"},
        PinnedCase{41, ClockStorage::kDense, true, "c5ac0d2d43faf00c",
                   "ee9c5a46d315762f"},
        PinnedCase{42, ClockStorage::kSparse, true, "11e0e3c60181bb7d",
                   "89ff43d7350f657a"},
        // Re-pinned when symmetric anchors began to share one search:
        // `P || Q` over one class is one orbit, so its callbacks and
        // search counts moved (DispatchSharing.SymmetricAnchorsCoverAsIf-
        // EachSearched checks its coverage on every prefix).
        PinnedCase{41, ClockStorage::kDense, false, "1241ac91d33e926e",
                   "cf99810790ad41f9", true},
        PinnedCase{42, ClockStorage::kSparse, false, "1d476199d45f88d3",
                   "1ce47bf47f110e85", true},
        PinnedCase{43, ClockStorage::kDense, true, "792905a6a33a8eef",
                   "d96c24e094128a05", true}),
    [](const auto& param_info) { return case_name(param_info.param); });

class DispatchStandalone : public ::testing::TestWithParam<std::uint64_t> {};

/// Checks each of `patterns`' output from one Monitor against standalone
/// matchers fed every event.
void expect_standalone_equivalence(const EventStore& source,
                                   StringPool& pool,
                                   const std::vector<std::string>& patterns) {
  // The reference: one matcher per pattern over a store that grows with
  // the stream, every matcher fed every event as soon as it is stored.
  EventStore store(source.storage());
  for (TraceId t = 0; t < source.trace_count(); ++t) {
    store.add_trace(source.trace_name(t));
  }
  std::vector<Outcome> standalone(patterns.size());
  std::vector<std::unique_ptr<OcepMatcher>> matchers;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Outcome& out = standalone[i];
    matchers.push_back(std::make_unique<OcepMatcher>(
        store, pattern::compile(patterns[i], pool), MatcherConfig{},
        [&out](const Match& m, bool fresh) {
          out.callbacks.push_back({fresh, m.bindings});
        }));
  }
  for (const EventId id : source.arrival_order()) {
    store.append(source.event(id), source.clock(id));
    for (const std::unique_ptr<OcepMatcher>& matcher : matchers) {
      matcher->observe(store.event(id));
    }
  }
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    for (const Match& match : matchers[i]->subset().matches()) {
      standalone[i].subset.push_back(match.bindings);
    }
    standalone[i].stats = matchers[i]->stats();
  }

  const std::vector<Outcome> synchronous =
      run_monitor(source, pool, patterns, MatcherConfig{}, nullptr);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i) + ": " + patterns[i]);
    EXPECT_EQ(synchronous[i].callbacks, standalone[i].callbacks);
    EXPECT_EQ(synchronous[i].subset, standalone[i].subset);
    EXPECT_EQ(counters(synchronous[i].stats), counters(standalone[i].stats));
  }
}

TEST_P(DispatchStandalone, EachPatternMatchesAMatcherFedEveryEvent) {
  StringPool pool;
  // Odd seeds run on the sparse timestamp backend.
  const ClockStorage storage =
      GetParam() % 2 == 1 ? ClockStorage::kSparse : ClockStorage::kDense;
  const EventStore source = make_source(pool, GetParam(), storage);
  {
    SCOPED_TRACE("mixed patterns");
    expect_standalone_equivalence(source, pool, mixed_patterns());
  }
  {
    SCOPED_TRACE("sharing patterns");
    expect_standalone_equivalence(source, pool, sharing_patterns());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchStandalone,
                         ::testing::Values(51, 52, 53));

/// The sharing set holds one symmetric pattern, `P || Q` over one class:
/// Q's search is answered by the image of P's.  After every arrival its
/// subset covers exactly what it covers when every anchor searches (the
/// pattern with its symmetry dropped), with and without merging.
TEST(DispatchSharing, SymmetricAnchorsCoverAsIfEachSearched) {
  StringPool pool;
  const std::string text =
      "P := ['', C, x]; Q := ['', C, x];\npattern := P || Q;\n";
  const std::vector<std::string> sharing = sharing_patterns();
  ASSERT_NE(std::find(sharing.begin(), sharing.end(), text), sharing.end());
  for (const std::uint64_t seed : {41U, 42U, 43U}) {
    for (const bool merge : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " merge " +
                   std::to_string(merge));
      const EventStore source =
          make_source(pool, seed, ClockStorage::kDense);
      EventStore store(source.storage());
      for (TraceId t = 0; t < source.trace_count(); ++t) {
        store.add_trace(source.trace_name(t));
      }
      pattern::CompiledPattern symmetric = pattern::compile(text, pool);
      ASSERT_EQ(symmetric.orbit_rep[1], 0U);
      pattern::CompiledPattern each = symmetric;
      each.orbit_rep.clear();
      each.orbit_map.clear();
      MatcherConfig config;
      config.merge_redundant_history = merge;
      OcepMatcher imaged(store, std::move(symmetric), config);
      OcepMatcher searched(store, std::move(each), config);
      for (const EventId id : source.arrival_order()) {
        store.append(source.event(id), source.clock(id));
        imaged.observe(store.event(id));
        searched.observe(store.event(id));
        for (std::uint32_t leaf = 0; leaf < 2; ++leaf) {
          for (TraceId t = 0; t < store.trace_count(); ++t) {
            ASSERT_EQ(imaged.subset().covered(leaf, t),
                      searched.subset().covered(leaf, t))
                << "leaf " << leaf << " trace " << t << " after "
                << store.event_count() << " arrivals";
          }
        }
      }
      EXPECT_GT(imaged.subset().coverage(), 0U);
      EXPECT_LT(imaged.stats().searches, searched.stats().searches);
    }
  }
}

/// bench/pipeline's sixteen `P -> Q` patterns over types A..D read only
/// four classes: their Monitor holds exactly the histories of a Monitor
/// with `A -> B` and `C -> D` alone.
TEST(DispatchSharing, PipelinePatternsShareFourHistories) {
  StringPool pool;
  const EventStore source = make_source(pool, 44, ClockStorage::kDense);
  Monitor all(pool);
  for (char x = 'A'; x <= 'D'; ++x) {
    for (char y = 'A'; y <= 'D'; ++y) {
      all.add_pattern(std::string("P := ['', ") + x + ", '']; Q := ['', " +
                      y + ", ''];\npattern := P -> Q;\n");
    }
  }
  replay(source, all);
  Monitor two(pool);
  two.add_pattern("P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n");
  two.add_pattern("P := ['', C, '']; Q := ['', D, ''];\npattern := P -> Q;\n");
  replay(source, two);
  ASSERT_GT(two.history_bytes(), 0U);
  EXPECT_EQ(all.history_bytes(), two.history_bytes());
  EXPECT_EQ(all.history_bytes(),
            two.matcher(0).history_bytes() + two.matcher(1).history_bytes());
}

}  // namespace
}  // namespace ocep
