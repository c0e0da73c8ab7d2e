// Input generation: every workload's events are made here from the seed,
// before anything is timed.  The generators are the repository's own: the
// case studies come from bench/bench_util (the builders behind the Fig 10
// benches, which run src/apps on src/sim) and the random computation from
// tests/random_computation.h.  A change to any of these changes what the
// benchmark measures.  The report carries a digest of every input, and
// test_bench.py pins the digests of one seed, so such a change shows.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/string_pool.h"
#include "core/subset.h"
#include "poet/event_store.h"

namespace perfbench {

/// A computation in one linearization, ready to feed a Monitor or a
/// session encoder.  Symbols belong to the pool the stream was made with.
struct Stream {
  std::vector<ocep::Symbol> traces;
  std::vector<ocep::Event> events;
  std::vector<ocep::VectorClock> clocks;
};

/// The stream's events in arrival order.
[[nodiscard]] Stream linearize(const ocep::EventStore& store);

/// FNV-1a over every event (id, kind, type and text strings, message) and
/// clock of the stream, so equal digests mean equal inputs.
[[nodiscard]] std::uint64_t digest(const ocep::StringPool& pool,
                                   const Stream& stream);

/// tests/random_computation.h's random computation (types A..D, texts
/// {"", x, y}), linearized.  Needs traces >= 2.
[[nodiscard]] Stream random_computation(ocep::StringPool& pool,
                                        std::uint32_t traces,
                                        std::uint32_t events,
                                        std::uint64_t seed);

/// One of the paper's four case studies (§V-C) with its pattern and the
/// violations a correct matcher must report (the ground truth of
/// bench/completeness, restricted to violations some match can witness).
struct CaseStudy {
  std::string name;  ///< deadlock | races | atomicity | ordering
  std::string pattern;
  /// Owns the string pool and the simulator's recorded store.
  ocep::bench::Workload generated;
  Stream stream;
  std::vector<ocep::TraceId> deadlock_cycle;
  std::set<ocep::EventIndex> racing_receives;
  std::set<ocep::EventId> skipped_enters;
  /// Skipped acquires whose section entry is concurrent with no other
  /// worker's: the pattern cannot match them, so they are not required.
  std::uint64_t unmatchable_skips = 0;
  std::set<std::tuple<ocep::EventId, ocep::EventId, ocep::EventId>>
      stale_forwards;
};

/// Simulates the four case studies at the trace counts of Fig 10:
/// deadlock, races and atomicity at 50 traces sized for about
/// `target_events` events, ordering at 500 traces.  Throws if a
/// simulation did not end as its application must (deadlock quiescent,
/// the others completed).
[[nodiscard]] std::vector<CaseStudy> fig10_cases(std::uint64_t target_events,
                                                 std::uint64_t seed);

/// Empty when every violation in the case's ground truth is among
/// `reported` (completeness, §V-D); otherwise what is missing.
[[nodiscard]] std::string missing_violations(
    const CaseStudy& study, const ocep::EventStore& store,
    const std::vector<ocep::Match>& reported);

}  // namespace perfbench
