// Property-based validation of the OCEP matcher against the exhaustive
// reference matcher, over random computations and randomly generated
// patterns.
//
// Checked properties:
//   1. Soundness — every match OCEP reports satisfies every constraint and
//      attribute of the pattern.
//   2. Representative coverage (§IV-B) — over the whole run, the set of
//      (leaf, trace) pairs covered by OCEP's subset equals the coverage of
//      the set of ALL matches computed by brute force (with redundancy
//      merging off, which can legitimately drop same-trace pairs).
//   3. Bound — the retained subset never exceeds k * n matches.
//   4. Config equivalence — domain pruning and backjumping are pure
//      optimizations: coverage is identical with them on or off.
//   5. Wide computations — properties 1-4 hold where most traces hold no
//      occurrence of a given leaf or key, so the searches skip traces
//      outside the sweep sets (DESIGN.md §4); a governed run stays sound.
#include <gtest/gtest.h>

#include <string>

#include "baseline/naive_matcher.h"
#include "common/rng.h"
#include "core/matcher.h"
#include "pattern/compiled.h"
#include "random_computation.h"

namespace ocep {
namespace {

/// Generates a random pattern over the random computation's type alphabet
/// (the first `types` letters, {A..D} by default) / text alphabet {'',
/// 'x', 'y', ...}: a chain of 2-4 operands with random operators, random
/// literal/wildcard/variable attributes.
std::string random_pattern_text(Rng& rng, std::uint64_t types = 4) {
  const std::size_t k = 2 + rng.below(3);
  std::string classes;
  std::string chain;
  for (std::size_t i = 0; i < k; ++i) {
    const std::string name = "C" + std::to_string(i);
    // type: mostly a literal letter, sometimes wild-card
    std::string type;
    if (rng.below(5) != 0) {
      type = std::string(1, static_cast<char>('A' + rng.below(types)));
    } else {
      type = "''";
    }
    // text: wild-card, a literal, or a shared variable
    std::string text = "''";
    const std::uint64_t text_roll = rng.below(6);
    if (text_roll == 0) {
      text = "'x'";
    } else if (text_roll == 1) {
      text = "$tag";
    }
    // process: mostly wild-card, sometimes a shared variable
    std::string process = "''";
    if (rng.below(6) == 0) {
      process = "$proc";
    }
    classes += name + " := [" + process + ", " + type + ", " + text + "];\n";
    if (i > 0) {
      const std::uint64_t op = rng.below(6);
      // Include the partner operator (singleton domains, conflict
      // attribution) and limited precedence (history-quantified checks).
      if (op == 0) {
        chain += " <-> ";
      } else if (op == 1) {
        chain += " -lim-> ";
      } else if (op <= 3) {
        chain += " -> ";
      } else {
        chain += " || ";
      }
    }
    chain += name;
  }
  return classes + "pattern := " + chain + ";\n";
}

struct RunResult {
  std::vector<bool> covered;
  std::size_t subset_size = 0;
  std::size_t reported = 0;
  bool all_valid = true;
};

RunResult run_ocep(const EventStore& store, StringPool& pool,
                   const std::string& pattern_text, MatcherConfig config) {
  pattern::CompiledPattern pattern = pattern::compile(pattern_text, pool);
  const pattern::CompiledPattern reference =
      pattern::compile(pattern_text, pool);
  RunResult out;
  OcepMatcher matcher(
      store, std::move(pattern), config,
      [&](const Match& match, bool) {
        ++out.reported;
        out.all_valid =
            out.all_valid && baseline::is_valid_match(store, reference, match);
      });
  for (const EventId id : store.arrival_order()) {
    matcher.observe(store.event(id));
  }
  const std::size_t traces = store.trace_count();
  out.covered.assign(reference.size() * traces, false);
  for (std::size_t leaf = 0; leaf < reference.size(); ++leaf) {
    for (TraceId t = 0; t < traces; ++t) {
      out.covered[leaf * traces + t] =
          matcher.subset().covered(static_cast<std::uint32_t>(leaf), t);
    }
  }
  out.subset_size = matcher.subset().matches().size();
  return out;
}

class MatcherVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherVsBruteForce, SoundAndCoverageComplete) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = static_cast<std::uint32_t>(3 + seed % 3);
  options.events = 60;
  const EventStore store = testing::random_computation(pool, options);

  Rng rng(seed * 1000 + 17);
  for (int round = 0; round < 6; ++round) {
    const std::string pattern_text = random_pattern_text(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " pattern:\n" +
                 pattern_text);

    MatcherConfig config;
    config.merge_redundant_history = false;  // exact coverage expected
    const RunResult ocep = run_ocep(store, pool, pattern_text, config);
    EXPECT_TRUE(ocep.all_valid) << "OCEP reported an invalid match";

    const pattern::CompiledPattern reference =
        pattern::compile(pattern_text, pool);
    const std::vector<bool> expected = baseline::coverage(store, reference);
    EXPECT_EQ(ocep.covered, expected) << "coverage mismatch vs brute force";
    EXPECT_LE(ocep.subset_size, reference.size() * store.trace_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherVsBruteForce,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

// Wide, sparsely occupied computations: 10-16 traces and larger type and
// text alphabets, so a leaf occupies a few traces and a bound $tag fewer
// still.  The narrow computations above occupy nearly every trace, which
// leaves the sweep sets' skip paths (and a keyed sweep's blame of its key
// binder) almost unexercised.
class WideMatcherVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WideMatcherVsBruteForce, SoundCoverageCompleteAndConfigEquivalent) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = static_cast<std::uint32_t>(10 + seed % 7);
  options.events = 80;
  options.type_alphabet = 8;
  options.text_alphabet = 6;
  const EventStore store = testing::random_computation(pool, options);

  Rng rng(seed * 1000 + 29);
  for (int round = 0; round < 6; ++round) {
    const std::string pattern_text = random_pattern_text(rng, 8);
    SCOPED_TRACE("seed " + std::to_string(seed) + " pattern:\n" +
                 pattern_text);
    const pattern::CompiledPattern reference =
        pattern::compile(pattern_text, pool);
    const std::vector<bool> expected = baseline::coverage(store, reference);

    MatcherConfig exact;
    exact.merge_redundant_history = false;
    const RunResult ocep = run_ocep(store, pool, pattern_text, exact);
    EXPECT_TRUE(ocep.all_valid) << "OCEP reported an invalid match";
    EXPECT_EQ(ocep.covered, expected) << "coverage mismatch vs brute force";
    EXPECT_LE(ocep.subset_size, reference.size() * store.trace_count());

    for (const bool pruning : {true, false}) {
      for (const bool backjumping : {true, false}) {
        MatcherConfig config = exact;
        config.domain_pruning = pruning;
        config.backjumping = backjumping;
        const RunResult other = run_ocep(store, pool, pattern_text, config);
        EXPECT_EQ(other.covered, ocep.covered)
            << "pruning " << pruning << " backjumping " << backjumping;
        EXPECT_EQ(other.reported, ocep.reported)
            << "pruning " << pruning << " backjumping " << backjumping;
      }
    }

    // A budget small enough to abort searches mid-sweep and mid-pin loop,
    // and a breaker that sheds: matches may be lost, never invented.
    MatcherConfig governed = exact;
    governed.budget.max_steps = 4;
    governed.breaker.trip_failures = 2;
    governed.breaker.window_observes = 30;
    governed.breaker.cooldown_observes = 20;
    const RunResult bounded = run_ocep(store, pool, pattern_text, governed);
    EXPECT_TRUE(bounded.all_valid) << "governed run reported an invalid match";
    ASSERT_EQ(bounded.covered.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_LE(bounded.covered[i], expected[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideMatcherVsBruteForce,
                         ::testing::Values(501, 502, 503, 504, 505, 506, 507,
                                           508));

class ConfigEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Domain pruning (Fig 4) and backjumping (Fig 5) must not change WHAT is
// found, only how fast: coverage is identical across all four combinations.
TEST_P(ConfigEquivalence, OptimizationsPreserveCoverage) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = 4;
  options.events = 80;
  const EventStore store = testing::random_computation(pool, options);

  Rng rng(seed * 99 + 3);
  for (int round = 0; round < 4; ++round) {
    const std::string pattern_text = random_pattern_text(rng);
    SCOPED_TRACE(pattern_text);
    std::vector<RunResult> results;
    for (const bool pruning : {true, false}) {
      for (const bool backjumping : {true, false}) {
        MatcherConfig config;
        config.merge_redundant_history = false;
        config.domain_pruning = pruning;
        config.backjumping = backjumping;
        results.push_back(run_ocep(store, pool, pattern_text, config));
      }
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0].covered, results[i].covered)
          << "config combination " << i << " diverged in coverage";
      // The optimizations must not change what the free searches find
      // either: the per-anchor report counts are identical.
      EXPECT_EQ(results[0].reported, results[i].reported)
          << "config combination " << i << " diverged in report count";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigEquivalence,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

// With merging ON coverage may only shrink relative to brute force, and
// only on same-trace pairs; cross-trace coverage must be preserved (two
// merged events have identical cross-trace causality).
class MergeSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeSafety, MergingPreservesSoundnessAndSubsetBound) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = 4;
  options.events = 80;
  const EventStore store = testing::random_computation(pool, options);

  Rng rng(seed * 7 + 5);
  for (int round = 0; round < 4; ++round) {
    const std::string pattern_text = random_pattern_text(rng);
    SCOPED_TRACE(pattern_text);
    MatcherConfig merged;
    merged.merge_redundant_history = true;
    const RunResult with_merge = run_ocep(store, pool, pattern_text, merged);
    EXPECT_TRUE(with_merge.all_valid);

    MatcherConfig full;
    full.merge_redundant_history = false;
    const RunResult without = run_ocep(store, pool, pattern_text, full);
    // Merged coverage is a subset of exact coverage.
    ASSERT_EQ(with_merge.covered.size(), without.covered.size());
    for (std::size_t i = 0; i < with_merge.covered.size(); ++i) {
      EXPECT_LE(with_merge.covered[i], without.covered[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeSafety,
                         ::testing::Values(301, 302, 303, 304));

// The matcher must behave identically on the sparse clock backend.
class SparseBackend : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseBackend, MatcherResultsMatchDense) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = 4;
  options.events = 80;
  const EventStore dense = testing::random_computation(pool, options);
  options.storage = ClockStorage::kSparse;
  const EventStore sparse = testing::random_computation(pool, options);

  Rng rng(seed * 31 + 11);
  for (int round = 0; round < 4; ++round) {
    const std::string pattern_text = random_pattern_text(rng);
    SCOPED_TRACE(pattern_text);
    MatcherConfig config;
    config.merge_redundant_history = false;
    const RunResult on_dense = run_ocep(dense, pool, pattern_text, config);
    const RunResult on_sparse = run_ocep(sparse, pool, pattern_text, config);
    EXPECT_EQ(on_dense.covered, on_sparse.covered);
    EXPECT_EQ(on_dense.reported, on_sparse.reported);
    EXPECT_TRUE(on_sparse.all_valid);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseBackend,
                         ::testing::Values(401, 402, 403, 404));

}  // namespace
}  // namespace ocep
