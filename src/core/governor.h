// Per-pattern resource governance: search budgets, circuit breakers, and
// the aggregated health report.
//
// The paper's backtracking search (§IV) is worst-case exponential in the
// number of pattern leaves, so one pathological pattern can livelock the
// whole monitor.  Production CER engines bound this with per-query
// resource governance and partial-result degradation (CORE, VLDB 2022);
// OCEP's version is three cooperating pieces:
//
//  * SearchBudget — a per-observe cap on candidate-scan steps and/or
//    wall-clock, checked cooperatively inside the search.  A blown budget
//    aborts that observe's searches (partial results already reported are
//    kept; the anchor stays in the histories so later anchors can still
//    cover it) and is counted, never silent.
//  * PatternGovernor — a circuit breaker over budget outcomes.  A pattern
//    whose searches blow the budget `trip_failures` times inside a rolling
//    `window_observes` window trips open: its observes degrade to O(1)
//    history appends.  After `cooldown_observes` it half-opens and probes
//    with half the budget; success closes it, failure re-opens it.
//  * HealthReport — the one-stop degradation snapshot: per-pattern breaker
//    state and budget/eviction counters, and the ingestion-side shed
//    counters, so operators see every coverage loss in one place
//    (docs/GOVERNANCE.md).
//
// Everything here is deterministic: the breaker clock is the matcher's
// observe count, never wall time, so identical inputs and step budgets
// produce identical states across checkpoint splits.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "poet/linearizer.h"

namespace ocep {

/// Per-observe search budget.  Zero means unlimited; the default is fully
/// unlimited, which is guaranteed zero-cost and zero-semantics.  Step
/// budgets are deterministic; the wall-clock deadline is a best-effort
/// production guard (checked every 256 steps) and should stay off in
/// reproducibility-sensitive runs.
struct SearchBudget {
  std::uint64_t max_steps = 0;    ///< candidate instantiations per observe
  std::uint64_t deadline_ns = 0;  ///< wall-clock per observe

  [[nodiscard]] bool unlimited() const noexcept {
    return max_steps == 0 && deadline_ns == 0;
  }
};

/// Circuit-breaker tuning.  Disabled (never trips) while trip_failures is
/// 0; budgets still abort individual searches without it.
struct BreakerConfig {
  /// Blown budgets inside the rolling window that trip the breaker.
  std::uint32_t trip_failures = 0;
  /// Rolling window, in matcher observes; 0 = unbounded window.
  std::uint64_t window_observes = 1024;
  /// Observes the breaker stays open before half-opening a probe.
  std::uint64_t cooldown_observes = 256;
};

enum class BreakerState : std::uint8_t {
  kClosed,    ///< normal operation, full budget
  kOpen,      ///< tripped: observes degrade to history appends
  kHalfOpen,  ///< probing with half the budget
};

[[nodiscard]] const char* to_string(BreakerState state) noexcept;

/// The per-pattern breaker state machine.  Single-owner like the matcher
/// that embeds it; all transitions are driven by the matcher's observe
/// count so they are deterministic and checkpointable.
class PatternGovernor {
 public:
  void configure(const SearchBudget& budget,
                 const BreakerConfig& breaker) {
    budget_ = budget;
    breaker_ = breaker;
  }

  /// Gate for one observe's search phase.  Returns false when the search
  /// must be shed (breaker open); otherwise fills `effective` with the
  /// full (closed) or probe (half-open) budget.
  [[nodiscard]] bool admit(std::uint64_t observe_index,
                           SearchBudget& effective);

  /// Outcome of an admitted search phase: `aborted` when the budget blew.
  void on_search_result(std::uint64_t observe_index, bool aborted);

  /// Records a contained error (e.g. a throwing MatchCallback) without a
  /// state change; surfaces in the health report.
  void record_error(std::string reason);

  [[nodiscard]] BreakerState state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t trips() const noexcept { return trips_; }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }

  /// Serializes the dynamic state (not the config: restore() runs on a
  /// governor configured identically, mirroring the matcher contract).
  void checkpoint(std::ostream& out) const;
  void restore(std::istream& in);

 private:
  [[nodiscard]] SearchBudget probe_budget() const noexcept;

  SearchBudget budget_;
  BreakerConfig breaker_;
  BreakerState state_ = BreakerState::kClosed;
  /// Observe indices of blown budgets inside the rolling window.
  std::deque<std::uint64_t> failures_;
  std::uint64_t opened_at_ = 0;  ///< observe index of the last trip
  std::uint64_t trips_ = 0;
  std::uint64_t probes_ = 0;
  std::string last_error_;
};

/// One pattern's governance snapshot (Monitor::health()).
struct PatternHealth {
  std::uint64_t pattern = 0;
  BreakerState state = BreakerState::kClosed;
  std::uint64_t searches = 0;
  std::uint64_t searches_aborted = 0;
  std::uint64_t observes_shed = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t history_entries = 0;
  std::uint64_t history_bytes = 0;
  std::uint64_t history_evicted = 0;
  std::uint64_t callback_errors = 0;
  std::string last_error;

  friend bool operator==(const PatternHealth&,
                         const PatternHealth&) = default;
};

/// The aggregated overload/degradation picture.  `ingest` carries the
/// linearizer/session shed counters when the monitor has an ingest source,
/// so matcher-side eviction and wire-side shedding are read together.
struct HealthReport {
  std::vector<PatternHealth> patterns;
  IngestStats ingest{};

  /// True when any surface degraded: a non-closed breaker, an aborted or
  /// shed search, an eviction, a callback error, or ingestion-side
  /// shedding.
  [[nodiscard]] bool degraded() const noexcept;

  void to_text(std::ostream& out) const;
  [[nodiscard]] std::string to_text() const;
  /// Stable JSON (sorted, fixed key order) for dashboards and tests.
  void to_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;
};

}  // namespace ocep
