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
//   6. Symmetric patterns — where one anchor's search answers the other
//      anchors of its orbit (DESIGN.md §4 "Symmetric patterns"),
//      properties 1, 2 and 4 hold after every arrival, not only at the
//      end of the run; and under a step budget, every arrival it does not
//      abort covers what a search per anchor would from the same state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

/// Generates a pattern whose terminating leaves fall into orbits of more
/// than one leaf, over the random computation's types {A..D} and texts
/// {'', trace names}: a '||' clique or ring of blocked-send-like leaves
/// whose process variables chain through their texts (n = 2-6, as
/// apps::deadlock_pattern), a '||' clique of one class, the race shape
/// with '->' or '<->', two orbits of different types, or '-lim->' pairs.
std::string symmetric_pattern_text(Rng& rng) {
  const auto type = [&rng] {
    return std::string(1, static_cast<char>('A' + rng.below(4)));
  };
  const auto all_pairs = [](std::size_t n, const std::string& var) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        out += std::string(out.empty() ? "" : " && ") + "($" + var +
               std::to_string(i) + " || $" + var + std::to_string(j) + ")";
      }
    }
    return out;
  };
  std::string text;
  switch (rng.below(7)) {
    case 0:
    case 1: {  // blocked-send cycle: every pair '||' (clique) or a ring
      const std::size_t n = 2 + rng.below(5);
      const bool clique = rng.below(2) == 0 || n < 4;
      const std::string t = type();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string w = "W" + std::to_string(i);
        text += w + " := [$p" + std::to_string(i) + ", " + t + ", $p" +
                std::to_string((i + 1) % n) + "];\n" + w + " $w" +
                std::to_string(i) + ";\n";
      }
      std::string body = all_pairs(n, "w");
      if (!clique) {
        body.clear();
        for (std::size_t i = 0; i < n; ++i) {
          body += std::string(i == 0 ? "" : " && ") + "($w" +
                  std::to_string(i) + " || $w" + std::to_string((i + 1) % n) +
                  ")";
        }
      }
      return text + "pattern := " + body + ";\n";
    }
    case 2: {  // a clique of one class
      const std::size_t n = 2 + rng.below(3);
      text = "C := ['', " + type() + ", " +
             (rng.below(2) == 0 ? "''" : "$t") + "];\n";
      for (std::size_t i = 0; i < n; ++i) {
        text += "C $c" + std::to_string(i) + ";\n";
      }
      return text + "pattern := " + all_pairs(n, "c") + ";\n";
    }
    case 3:
    case 4: {  // races: two concurrent sends, each to its own receive
      const std::string t = type();
      const std::string op = rng.below(2) == 0 ? " -> " : " <-> ";
      const std::string r = op == " -> " ? type() : "''";
      return "S1 := [$a, " + t + ", '']; S2 := [$b, " + t + ", ''];\n" +
             "R1 := ['', " + r + ", '']; R2 := ['', " + r + ", ''];\n" +
             "S1 $s1; S2 $s2;\n" + "pattern := ($s1 || $s2) && ($s1" + op +
             "R1) && ($s2" + op + "R2);\n";
    }
    case 5: {  // two orbits, {X1, X2} and {Y1, Y2}
      const std::string x = type();
      std::string y = type();
      while (y == x) {
        y = type();
      }
      return "X := ['', " + x + ", '']; Y := ['', " + y + ", ''];\n" +
             "X $x1; X $x2; Y $y1; Y $y2;\n" +
             "pattern := ($x1 || $x2) && ($y1 || $y2) && ($x1 || $y1) && "
             "($x2 || $y2);\n";
    }
    default: {  // '-lim->' pairs whose receives are concurrent
      const std::string p = type();
      const std::string q = type();
      return "P := ['', " + p + ", '']; Q := ['', " + q + ", ''];\n" +
             "P $p1; P $p2; Q $q1; Q $q2;\n" +
             "pattern := ($p1 -lim-> $q1) && ($p2 -lim-> $q2) && "
             "($q1 || $q2);\n";
    }
  }
}

class SymmetricVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

// After every arrival, each pruning/backjumping combination's subset
// covers exactly what the brute force finds over the store so far, every
// reported match is valid, and the four report alike.
TEST_P(SymmetricVsBruteForce, CoverageExactOnEveryPrefix) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = static_cast<std::uint32_t>(3 + seed % 3);
  options.events = 60;
  options.trace_name_texts = true;
  const EventStore source = testing::random_computation(pool, options);

  Rng rng(seed * 1000 + 41);
  std::size_t matched = 0;
  for (int round = 0; round < 6; ++round) {
    const std::string pattern_text = symmetric_pattern_text(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " pattern:\n" +
                 pattern_text);
    const pattern::CompiledPattern reference =
        pattern::compile(pattern_text, pool);
    std::size_t images = 0;
    for (std::size_t leaf = 0; leaf < reference.orbit_rep.size(); ++leaf) {
      images += reference.orbit_rep[leaf] != leaf ? 1U : 0U;
    }
    ASSERT_GT(images, 0U) << "the generator made an asymmetric pattern";

    EventStore store(source.storage());
    for (TraceId t = 0; t < source.trace_count(); ++t) {
      store.add_trace(source.trace_name(t));
    }
    std::vector<std::unique_ptr<OcepMatcher>> matchers;
    std::vector<std::size_t> reported(4, 0);
    bool all_valid = true;
    for (const bool pruning : {true, false}) {
      for (const bool backjumping : {true, false}) {
        MatcherConfig config;
        config.merge_redundant_history = false;
        config.domain_pruning = pruning;
        config.backjumping = backjumping;
        std::size_t& count = reported[matchers.size()];
        matchers.push_back(std::make_unique<OcepMatcher>(
            store, pattern::compile(pattern_text, pool), config,
            [&](const Match& match, bool) {
              ++count;
              all_valid = all_valid &&
                          baseline::is_valid_match(store, reference, match);
            }));
      }
    }
    for (const EventId id : source.arrival_order()) {
      store.append(source.event(id), source.clock(id));
      for (const std::unique_ptr<OcepMatcher>& matcher : matchers) {
        matcher->observe(store.event(id));
      }
      const std::vector<bool> expected = baseline::coverage(store, reference);
      for (std::size_t i = 0; i < matchers.size(); ++i) {
        std::vector<bool> covered(expected.size());
        for (std::uint32_t leaf = 0; leaf < reference.size(); ++leaf) {
          for (TraceId t = 0; t < store.trace_count(); ++t) {
            covered[leaf * store.trace_count() + t] =
                matchers[i]->subset().covered(leaf, t);
          }
        }
        ASSERT_EQ(covered, expected)
            << "config " << i << " after arrival " << id.trace << ":"
            << id.index;
        ASSERT_EQ(reported[i], reported[0]) << "config " << i;
      }
      ASSERT_TRUE(all_valid) << "an invalid match was reported";
    }
    matched += matchers[0]->subset().matches().empty() ? 0U : 1U;
  }
  EXPECT_GT(matched, 0U) << "no generated pattern matched";
}

/// The (leaf, trace) pairs of the matches in `store` that bind `arrival`.
std::vector<bool> pairs_binding(const EventStore& store,
                                const pattern::CompiledPattern& pattern,
                                EventId arrival) {
  const std::size_t traces = store.trace_count();
  std::vector<bool> pairs(pattern.size() * traces, false);
  for (const Match& match : baseline::enumerate_matches(store, pattern)) {
    if (std::find(match.bindings.begin(), match.bindings.end(), arrival) ==
        match.bindings.end()) {
      continue;
    }
    for (std::size_t leaf = 0; leaf < pattern.size(); ++leaf) {
      pairs[leaf * traces + match.bindings[leaf].trace] = true;
    }
  }
  return pairs;
}

// A budget abort cuts a representative's search short.  The images of the
// matches it found are still reported, but their pairs have images of
// their own that no match found so far covers, so a pair can stay covered
// and its image not.  Every later arrival the budget does not abort must
// still cover what a search per anchor would from the same state: the
// pairs covered before it, and every pair of every match that binds it.
// An aborted arrival covers a subset of that.
TEST_P(SymmetricVsBruteForce, BudgetAbortsLeaveLaterArrivalsExact) {
  const std::uint64_t seed = GetParam();
  StringPool pool;
  testing::RandomComputationOptions options;
  options.seed = seed;
  options.traces = static_cast<std::uint32_t>(3 + seed % 3);
  options.events = 60;
  options.trace_name_texts = true;
  const EventStore source = testing::random_computation(pool, options);

  Rng rng(seed * 1000 + 43);
  std::size_t checked_after_abort = 0;
  for (int round = 0; round < 6; ++round) {
    const std::string pattern_text = symmetric_pattern_text(rng);
    const std::uint64_t steps = 2 + rng.below(6);
    SCOPED_TRACE("seed " + std::to_string(seed) + " budget " +
                 std::to_string(steps) + " pattern:\n" + pattern_text);
    const pattern::CompiledPattern reference =
        pattern::compile(pattern_text, pool);
    EventStore store(source.storage());
    for (TraceId t = 0; t < source.trace_count(); ++t) {
      store.add_trace(source.trace_name(t));
    }
    MatcherConfig config;
    config.merge_redundant_history = false;
    config.budget.max_steps = steps;
    bool all_valid = true;
    OcepMatcher matcher(store, pattern::compile(pattern_text, pool), config,
                        [&](const Match& match, bool) {
                          all_valid = all_valid && baseline::is_valid_match(
                                                       store, reference, match);
                        });
    const auto covered = [&] {
      std::vector<bool> out(reference.size() * store.trace_count());
      for (std::uint32_t leaf = 0; leaf < reference.size(); ++leaf) {
        for (TraceId t = 0; t < store.trace_count(); ++t) {
          out[leaf * store.trace_count() + t] =
              matcher.subset().covered(leaf, t);
        }
      }
      return out;
    };
    std::vector<bool> before(reference.size() * store.trace_count(), false);
    for (const EventId id : source.arrival_order()) {
      const std::uint64_t aborted = matcher.stats().searches_aborted;
      store.append(source.event(id), source.clock(id));
      matcher.observe(store.event(id));
      const std::vector<bool> after = covered();
      std::vector<bool> expected = pairs_binding(store, reference, id);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] = expected[i] || before[i];
      }
      if (matcher.stats().searches_aborted == aborted) {
        ASSERT_EQ(after, expected) << "after arrival " << id.trace << ":"
                                   << id.index;
        checked_after_abort += aborted > 0 ? 1U : 0U;
      } else {
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_TRUE(!after[i] || expected[i])
              << "pair " << i << " after arrival " << id.trace << ":"
              << id.index;
        }
      }
      before = after;
    }
    ASSERT_TRUE(all_valid) << "an invalid match was reported";
  }
  EXPECT_GT(checked_after_abort, 0U) << "the budget never aborted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetricVsBruteForce,
                         ::testing::Values(601, 602, 603, 604, 605, 606, 607,
                                           608, 609, 610, 611, 612));

}  // namespace
}  // namespace ocep
