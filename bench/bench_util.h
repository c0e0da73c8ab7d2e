// Shared harness support for the figure/table reproduction benches.
//
// Methodology (paper §V-B): each test case is executed until the event
// target is reached (the paper uses one million events); the collected
// trace-event data is saved and replayed through the client interface; the
// metric is the wall-clock time the monitor takes to find the set of
// matches on arrival of an event.  Events split into the paper's three
// categories: (i) not matching the pattern, (ii) matching but not
// completing, (iii) terminating events that can complete a match.  The
// boxplots are computed over the terminating-event population.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/flags.h"
#include "common/string_pool.h"
#include "core/matcher.h"
#include "metrics/boxplot.h"
#include "sim/sim.h"

namespace ocep::bench {

/// Common command-line parameters of the figure benches.
struct BenchParams {
  std::uint64_t events = 100000;  ///< event target per run (paper: 1e6)
  std::uint32_t reps = 3;         ///< runs per configuration (paper: 5)
  std::uint64_t seed = 1;
  bool verbose = false;
  std::string json_path;          ///< --json FILE: machine-readable record
};

/// Parses --events/--reps/--seed/--full/--verbose/--json; --full selects
/// the paper-scale methodology (1e6 events, 5 reps).
[[nodiscard]] BenchParams parse_params(Flags& flags);

/// A generated workload: the simulator is kept alive because it owns the
/// recorded store.
struct Workload {
  std::unique_ptr<StringPool> pool;
  std::unique_ptr<sim::Sim> sim;
  sim::RunResult run;
  // Ground truth handles (whichever the case study fills).
  apps::RandomWalkApp walk;
  apps::RaceApp race;
  apps::AtomicityApp atomicity;
  apps::OrderingApp ordering;
};

/// Builders size the application so the run produces roughly
/// `target_events` events, then run the simulation to completion.
[[nodiscard]] Workload make_deadlock_workload(std::uint32_t traces,
                                              std::uint32_t cycle_length,
                                              std::uint64_t target_events,
                                              std::uint64_t seed);
[[nodiscard]] Workload make_race_workload(std::uint32_t traces,
                                          std::uint64_t target_events,
                                          std::uint64_t seed);
[[nodiscard]] Workload make_atomicity_workload(std::uint32_t traces,
                                               std::uint64_t target_events,
                                               std::uint64_t seed);
[[nodiscard]] Workload make_ordering_workload(std::uint32_t traces,
                                              std::uint64_t target_events,
                                              std::uint64_t seed);

/// Per-event timing populations (paper's event categories).
struct Populations {
  metrics::LatencyRecorder all;       ///< every event
  metrics::LatencyRecorder hits;      ///< category (ii)+(iii): leaf matches
  metrics::LatencyRecorder searched;  ///< category (iii): terminating
};

struct MatchTotals {
  std::uint64_t events = 0;
  std::uint64_t matches_reported = 0;
  std::uint64_t subset_size = 0;
  std::uint64_t searches = 0;
  std::uint64_t nodes_explored = 0;
  std::uint64_t backjumps = 0;
  std::uint64_t history_entries = 0;
  std::uint64_t history_merged = 0;
  /// The arrival that ran the most searches (the first on ties): its
  /// searches, the coverage pins among them, and its nodes explored.
  std::uint64_t worst_searches = 0;
  std::uint64_t worst_pins_run = 0;
  std::uint64_t worst_nodes = 0;
};

/// Replays the workload's store through an OcepMatcher, timing every
/// observe() call; appends samples (microseconds) into `populations`.
/// The worst_* totals are the maximum of their own and this run's.
void time_pattern(const EventStore& store, StringPool& pool,
                  const std::string& pattern_text, MatcherConfig config,
                  Populations& populations, MatchTotals& totals);

/// Prints one boxplot table row:
/// label events samples Q1 median Q3 top_whisker max matches
void print_row(const std::string& label, std::uint64_t events,
               metrics::LatencyRecorder& recorder, std::uint64_t matches);

/// Prints the standard table header.
void print_header(const std::string& title, const std::string& label_name,
                  const BenchParams& params);

/// Machine-readable bench record (docs/BENCHMARKS.md; the CI gates read
/// it).
///
/// Accumulates one JSON object per result row and, when the bench was
/// invoked with --json FILE, writes
///   {"schema": "ocep-bench-v1", "bench": ..., "git": <sha>,
///    "params": {...}, "rows": [{...}, ...]}
/// The schema field lets readers detect format drift; the git revision is
/// read from the OCEP_GIT_SHA environment variable ("unknown" when
/// unset).  Without --json every
/// call is a cheap no-op, so benches can emit rows unconditionally.
/// Latency fields are microseconds, matching the printed tables.
class JsonReport {
 public:
  JsonReport(std::string bench, const BenchParams& params);

  /// Starts a new row; subsequent add_* calls attach fields to it.
  void begin_row(const std::string& label);
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, std::int64_t value);
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  /// Per-arrival latency quantiles (count, p50/p95/p99, boxplot marks).
  /// Sorts the recorder's samples in place.
  void add_latency(const std::string& prefix,
                   metrics::LatencyRecorder& recorder);
  /// The matcher search counters.
  void add_totals(const MatchTotals& totals);

  /// Writes the document; returns false (silently) when --json was not
  /// given.  Throws ocep::Error when the file cannot be written.
  bool write();

 private:
  void field_sep();

  std::string bench_;
  std::string path_;
  std::string params_json_;
  std::vector<std::string> rows_;
  std::string current_;
  bool row_open_ = false;
};

}  // namespace ocep::bench
