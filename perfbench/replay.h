// One replay round: a fresh synchronous Monitor set up with a pattern set
// and fed one Stream, with every Monitor::on_event call timed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "harness.h"
#include "inputs.h"

namespace perfbench {

/// The matcher counters of one replay, summed over the monitor's patterns.
struct CoreCounts {
  std::uint64_t events = 0;
  std::uint64_t leaf_hits = 0;
  std::uint64_t searches = 0;
  std::uint64_t matches_reported = 0;
  std::uint64_t nodes_explored = 0;
  std::uint64_t backjumps = 0;
  std::uint64_t levels_entered = 0;
  std::uint64_t domain_prunes = 0;
  std::uint64_t pins_run = 0;
  std::uint64_t pins_skipped = 0;
  std::uint64_t history_entries = 0;
  std::uint64_t history_merged = 0;
  std::uint64_t history_pruned = 0;

  void add(const ocep::MatcherStats& stats);
  CoreCounts& operator+=(const CoreCounts& other);
  friend bool operator==(const CoreCounts&, const CoreCounts&) = default;
};

/// Writes the core.* per-layer counts and ratios of `counts` into `layer`;
/// `offered` is events x patterns, the base of core.leaf_hit_ratio.
void put_core_counts(std::map<std::string, double>& layer,
                     const CoreCounts& counts, std::uint64_t offered);

struct RoundResult {
  /// compile + construct + announce traces: the fastest of the round's
  /// set-ups (one real, the rest built and dropped right before it)
  double setup_ns = 0;
  double on_event_ns = 0;  ///< summed time inside Monitor::on_event
  double searched_p50_ns = 0;
  double all_p50_ns = 0;
  std::vector<double> compile_ns;  ///< per add_pattern (traced rounds)
  std::uint64_t digest = 0;        ///< hash of every reported match
  CoreCounts counts;
};

/// Checks run on the monitor of a validating round before it is destroyed:
/// gets every reported match per pattern, returns empty or what is wrong.
using RoundCheck = std::function<std::string(
    ocep::Monitor&, const std::vector<std::vector<ocep::Match>>&)>;

class Replayer {
 public:
  Replayer(ocep::StringPool& pool, const Stream& stream,
           std::vector<std::string> patterns);

  /// Runs one round.  With `check` the round also collects every reported
  /// match (outside the timed spans) and validates each against its
  /// pattern with baseline::is_valid_match before calling `check`; a
  /// failure lands in `error`.  With `time_compile` each add_pattern is
  /// timed on its own.  With a tracer, the set-up, each compile and the
  /// event loop are recorded as spans under `parent`.  The last round's
  /// per-event samples stay readable.
  RoundResult run(const RoundCheck* check, bool time_compile,
                  std::string& error, Tracer* tracer = nullptr,
                  std::uint32_t parent = 0);

  /// Per-event on_event times (ns) of the last round: every event, and the
  /// events after which some matcher had run a search.
  [[nodiscard]] const std::vector<double>& all_ns() const { return all_; }
  [[nodiscard]] const std::vector<double>& searched_ns() const {
    return searched_;
  }

 private:
  ocep::StringPool* pool_;
  const Stream* stream_;
  std::vector<std::string> patterns_;
  std::vector<double> all_;
  std::vector<double> searched_;
};

/// Cost of the poet layer on `stream`, in ns per event: EventStore::append
/// into a fresh store, SessionServer::write of every event into memory,
/// and SessionClient::feed of those bytes (64 KiB at a time, as a socket
/// would deliver them) into a sink that discards events.  `error` is set
/// when the client does not release every event.
struct PoetCost {
  double append_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
};
[[nodiscard]] PoetCost poet_cost(const ocep::StringPool& pool,
                                 const Stream& stream, std::string& error);

}  // namespace perfbench
