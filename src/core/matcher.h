// The OCEP online causal-event-pattern matcher (paper §IV).
//
// On every arrival of a terminating event e — one whose leaf can be the
// last-delivered event of a match — the matcher runs a backtracking search
// anchored at e (Algorithm 1's partial match of length one).  The search
// corresponds to the paper's goForward / goBackward pair:
//
//  * goForward: per backtracking level, sweep the traces; on each trace the
//    candidate domain is a contiguous index interval derived from the
//    vector timestamps of the already-instantiated events (Fig 4):
//      e -> ei        [LS(e, t), +inf)
//      ei -> e        (-inf, GP(e, t)]
//      e || ei        (GP(e, t), LS(e, t))
//    intersected with the leaf's history, iterated latest-first.
//  * goBackward: on failure the search backjumps — a level whose choice did
//    not contribute to the conflict is skipped entirely (the conflict sets
//    generalize the paper's bt[][] timestamp records, Fig 5).
//
// After the free search finds a match, coverage pinning re-runs the search
// once per still-uncovered (leaf, trace) pair with that leaf pinned to the
// trace, which makes the reported set a representative subset (§IV-B): at
// most k*n matches are ever retained.
//
// Of the terminating leaves that a pattern automorphism maps onto one
// another (pattern::CompiledPattern::orbit_rep), only the orbit's
// representative searches; the other anchors report the images of its
// matches (DESIGN.md §4 "Symmetric patterns").
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "core/governor.h"
#include "core/history.h"
#include "core/history_table.h"
#include "core/subset.h"
#include "obs/metrics.h"
#include "pattern/compiled.h"
#include "poet/event_store.h"

namespace ocep {

struct MatcherConfig {
  /// §VI redundancy elimination on leaf histories.
  bool merge_redundant_history = true;
  /// Fig-4 GP/LS domain restriction.  Off = chronological backtracking
  /// over whole trace histories with post-hoc constraint checks (the
  /// baseline the paper calls "not very efficient in practice").
  bool domain_pruning = true;
  /// Conflict-directed backjumping (the paper's goBackward with recorded
  /// conflicts).  Off = plain chronological backtracking.
  bool backjumping = true;
  /// Pinned coverage searches guaranteeing the representative subset.
  bool pin_coverage = true;
  /// Skip pins for (leaf, trace) pairs already covered earlier in the run
  /// (bounds total work; per-anchor free searches still report every
  /// violation occurrence).
  bool global_coverage = true;
  /// Overload governance (docs/GOVERNANCE.md).  All defaults are the
  /// do-nothing configuration: unlimited budget, breaker disabled —
  /// guaranteed zero-cost and zero-semantics.  (The history byte cap is
  /// the Monitor's: MonitorConfig::history_bytes_limit.)
  SearchBudget budget;
  BreakerConfig breaker;
};

struct MatcherStats {
  /// Arrivals up to and including the latest one offered to the matcher
  /// (see OcepMatcher::advance); also the breaker clock.
  std::uint64_t events_observed = 0;
  std::uint64_t leaf_hits = 0;          ///< events appended to >= 1 history
  std::uint64_t searches = 0;           ///< anchored searches (free + pinned)
  std::uint64_t matches_reported = 0;
  std::uint64_t nodes_explored = 0;     ///< candidate instantiations tried
  std::uint64_t backjumps = 0;
  // The history counters sum over this pattern's leaves, each reading
  // the shared history of its class (core/history_table.h).
  std::uint64_t history_entries = 0;
  std::uint64_t history_merged = 0;
  std::uint64_t history_pruned = 0;     ///< always 0: only the byte cap cuts
                                        ///< histories (evicted, spilled)
  std::uint64_t levels_entered = 0;     ///< backtracking levels visited
  std::uint64_t domain_prunes = 0;      ///< empty Fig-4 intervals (goBackward)
  std::uint64_t pins_run = 0;           ///< coverage pin searches executed
  std::uint64_t pins_skipped = 0;       ///< pins avoided (covered / empty)
  // Governance counters (checkpoint format v2; docs/GOVERNANCE.md).
  std::uint64_t searches_aborted = 0;   ///< observes whose search blew budget
  std::uint64_t observes_shed = 0;      ///< searches skipped (breaker open)
  std::uint64_t breaker_trips = 0;      ///< closed->open transitions
  std::uint64_t history_evicted = 0;    ///< entries dropped by the byte cap
  std::uint64_t callback_errors = 0;    ///< contained MatchCallback throws
  // Span-spill counters (checkpoint format v3; core/span_sink.h).
  std::uint64_t history_spilled = 0;    ///< entries spilled through the sink
  std::uint64_t history_faulted = 0;    ///< entries faulted back into RAM
  std::uint64_t spans_lost = 0;         ///< spans that failed to fault back
};

/// Optional per-matcher telemetry sinks (src/obs/metrics.h).  Counters
/// receive the per-observe deltas of the matching MatcherStats fields;
/// histograms record per-terminating-event distributions.  Null pointers
/// disable the corresponding instrument; a default-constructed struct
/// disables everything (the hot path then pays one branch per observe).
struct MatcherTelemetry {
  obs::Counter* events = nullptr;
  obs::Counter* leaf_hits = nullptr;
  obs::Counter* searches = nullptr;
  obs::Counter* matches = nullptr;
  obs::Counter* nodes = nullptr;
  obs::Counter* domain_prunes = nullptr;
  obs::Counter* backjumps = nullptr;
  obs::Counter* pins_run = nullptr;
  obs::Counter* pins_skipped = nullptr;
  obs::Counter* searches_aborted = nullptr;
  obs::Counter* observes_shed = nullptr;
  obs::Counter* breaker_trips = nullptr;
  obs::Counter* history_evicted = nullptr;
  obs::Counter* callback_errors = nullptr;
  obs::Histogram* levels_visited = nullptr;      ///< per terminating event
  obs::Histogram* candidates_scanned = nullptr;  ///< per terminating event
  obs::Histogram* matches_found = nullptr;       ///< per terminating event
  obs::Histogram* backjump_distance = nullptr;   ///< per backjump (levels)
  obs::Histogram* conflict_set_size = nullptr;   ///< per failed free search
};

/// Called for every reported match.  `newly_covering` is true when the
/// match extended the representative subset's coverage.
using MatchCallback = std::function<void(const Match&, bool newly_covering)>;

/// Threading contract: a matcher is single-owner — the thread that
/// appends to its EventStore calls observe() and reads its state.  It
/// takes no locks.
///
/// The leaf histories a matcher searches live in a HistoryTable.  A
/// matcher built here owns a table of its own pattern's classes and
/// appends each arrival to it; a Monitor's matchers share the Monitor's
/// table, which the Monitor appends to once per arrival before offering
/// the arrival to them.
class OcepMatcher {
 public:
  /// The store must outlive the matcher and must already contain every
  /// event passed to observe().  Events must be observed in the store's
  /// arrival (linearization) order.
  OcepMatcher(const EventStore& store, pattern::CompiledPattern pattern,
              MatcherConfig config = {}, MatchCallback on_match = nullptr);

  /// Feeds the event at arrival position `position` (0-based); runs
  /// anchored searches when it is terminating.  Arrivals skipped since
  /// the previous call must be ones no leaf accepts (a Monitor skips the
  /// events its dispatch index does not offer to this pattern).
  void observe(const Event& event, std::uint64_t position);

  /// Feeds the next arrival: for callers that offer every event.
  void observe(const Event& event) { observe(event, stats_.events_observed); }

  /// Records that the first `events` arrivals have been dispatched, the
  /// ones never offered to this matcher being events no leaf accepts.
  /// Such an event would append to no history and run no search, so only
  /// the arrival count (events_observed, the breaker clock) moves.
  void advance(std::uint64_t events) {
    if (events <= stats_.events_observed) {
      return;
    }
    lazy_init();
    if (telemetry_.events != nullptr) {
      telemetry_.events->add(events - stats_.events_observed);
    }
    stats_.events_observed = events;
  }

  /// Attaches telemetry sinks.  Must be called before the first observe()
  /// and from the owning thread; the instruments must outlive the matcher.
  void set_telemetry(const MatcherTelemetry& telemetry) {
    OCEP_ASSERT_MSG(stats_.events_observed == 0,
                    "telemetry must be attached before the first event");
    telemetry_ = telemetry;
    telemetry_on_ = true;
  }

  [[nodiscard]] const pattern::CompiledPattern& pattern() const noexcept {
    return pattern_;
  }
  [[nodiscard]] const RepresentativeSubset& subset() const noexcept {
    return subset_;
  }
  [[nodiscard]] const MatcherStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PatternGovernor& governor() const noexcept {
    return governor_;
  }

  /// Governance snapshot for Monitor::health().  The caller fills
  /// PatternHealth::pattern (the matcher does not know its index).
  [[nodiscard]] PatternHealth health() const;

  /// Approximate bytes held by the leaf histories this pattern reads,
  /// each shared history counted once.
  [[nodiscard]] std::size_t history_bytes() const noexcept;

 private:
  friend class Monitor;

  /// A matcher reading `histories`, where its leaves' spans are keyed by
  /// pattern index `index` (a Monitor's matchers).
  OcepMatcher(const EventStore& store, pattern::CompiledPattern pattern,
              MatcherConfig config, MatchCallback on_match,
              HistoryTable* histories, std::uint32_t index);

  /// Recomputes the history counters of stats_ from the histories, and
  /// publishes the evictions to telemetry (after the table evicted,
  /// spilled or faulted; appends update them in place).
  void sync_history_stats();

  /// Serializes the matcher's incremental state: stats, the governor and
  /// the representative subset.  The store, the pattern and the leaf
  /// histories are not serialized: the Monitor writes its history table
  /// ahead of the matcher blobs, and restore() must run on a matcher
  /// built over the restored store and table with the identical pattern
  /// and config.
  void checkpoint(std::ostream& out);

  /// Counterpart of checkpoint().  Requires a fresh matcher (no events
  /// observed) whose store already holds every checkpointed event; throws
  /// SerializationError when the blob is inconsistent with the store.
  void restore(std::istream& in);

  /// A constraint as seen from one endpoint leaf.
  enum class Role : std::uint8_t {
    kAfterOther,    ///< other -> me
    kBeforeOther,   ///< me -> other
    kAfterOtherLim,   ///< other -lim-> me
    kBeforeOtherLim,  ///< me -lim-> other
    kConcurrent,    ///< me || other
    kReceiveOfOther,  ///< other <-> me: I am the receive of other's message
    kSendOfOther,     ///< me <-> other: I am the send of other's receive
  };
  struct Edge {
    std::uint32_t other = 0;
    Role role = Role::kConcurrent;
  };

  /// Interns the leaves' classes and sizes the per-leaf state on first
  /// use, once the store knows its traces.
  void lazy_init() {
    if (!initialized_) {
      initialize();
    }
  }
  void initialize();
  /// observe() once the arrival count has caught up to `event`, whose
  /// appends the table has made: counts them and runs the anchored
  /// searches.
  void observe_next(const Event& event);
  /// Recomputes the history counters of stats_ from the histories.
  void refresh_history_stats();
  /// Partner-kind requirement: a leaf on the send (receive) side of '<->'
  /// only binds kSend (kReceive) events.  Checked for anchors and, with
  /// domain pruning, for candidates (post-hoc relation checks cover the
  /// unpruned path).
  [[nodiscard]] bool partner_kind_ok(std::uint32_t leaf,
                                     const Event& event) const;

  /// Runs the free search anchored at `event` on `anchor_leaf`, then its
  /// coverage pins.  kImages, for an orbit representative with images,
  /// also keeps its matches in found_ for report_images, and its pin test
  /// reads the images (pin_covered).
  template <bool kImages>
  void run_anchor(std::uint32_t anchor_leaf, const Event& event);
  /// Answers the other anchors of `rep`'s orbit from the matches
  /// run_anchor<true>(rep) found (DESIGN.md §4 "Symmetric patterns").
  void report_images(std::uint32_t rep);
  /// With global coverage, whether `anchor` may skip its pin of `leaf` on
  /// trace `t`: the pair is covered, and so is its image under each of
  /// anchor's orbit maps.  An abort can leave an image uncovered; the
  /// representative then pins the pair again, for report_images to map.
  [[nodiscard]] bool pin_covered(std::uint32_t anchor, std::uint32_t leaf,
                                 TraceId t) const;
  /// The same for the pins of `leaf` on every trace.
  [[nodiscard]] bool pins_covered(std::uint32_t anchor,
                                  std::uint32_t leaf) const;
  /// Resets the search state for `order` and binds the anchor to `event`;
  /// false when the anchor's own attribute variables disagree.
  bool prepare(const std::vector<std::uint32_t>& order,
               std::uint32_t anchor_leaf, const Event& event);
  /// Marks the current bindings' (leaf, trace) pairs as covered by this
  /// anchor's match number `match` (0 for the free search's), unless an
  /// earlier match of the anchor covered them.
  void mark_local(std::uint32_t match);
  void report();

  /// Arms the per-observe search budget before the anchor searches run.
  void begin_search_budget(const SearchBudget& budget);
  /// Cooperative budget check, called once per candidate instantiation.
  /// The wall-clock deadline is polled every 256 steps to keep the common
  /// case a single integer compare.
  [[nodiscard]] bool budget_exhausted();
  /// Per-observe telemetry publication: counter deltas against `before`,
  /// plus the per-terminating-event histograms when a search ran.
  void publish_telemetry(const MatcherStats& before);

  /// Search machinery (one search at a time; scratch state is reused).
  struct Pin {
    bool active = false;
    std::uint32_t leaf = 0;
    TraceId trace = 0;
  };
  bool extend(const std::vector<std::uint32_t>& order, std::size_t depth,
              const Pin& pin, std::uint64_t& conflict_out);
  /// The lowest trace named `name`; false when there is none.
  bool find_trace(Symbol name, TraceId& trace) const;
  bool try_candidate(const std::vector<std::uint32_t>& order,
                     std::size_t depth, const Pin& pin, std::uint32_t leaf,
                     EventId candidate, std::uint64_t& conflict_out,
                     bool& backjump);

  /// Computes leaf's domain interval on `trace` given current bindings;
  /// returns false (with blame set) when empty.  `setters` receives the
  /// depth bits of the constraints that tightened the surviving interval —
  /// if the later history intersection is empty, those are the levels whose
  /// re-instantiation could re-open it, so they must be blamed (otherwise
  /// backjumping would unsoundly skip them).
  bool domain_on_trace(std::uint32_t leaf, TraceId trace, EventIndex& lo,
                       EventIndex& hi, std::uint64_t& blame,
                       std::uint64_t& setters) const;

  /// Binds attribute variables of `leaf` against `event`, pushing each
  /// newly bound variable on trail_.  On mismatch returns false with
  /// `blame` naming the binder.
  bool bind_attrs(std::uint32_t leaf, const Event& event, std::size_t depth,
                  std::uint64_t& blame);
  /// Unbinds the variables trail_ recorded above `mark`.
  void unwind_trail(std::size_t mark);

  /// Non-const: limited_ok may fault spilled history back in.
  [[nodiscard]] bool satisfied(std::uint32_t leaf, Role role, EventId me,
                               EventId other);

  /// Fig 1 limited precedence: a -> b holds and no event in `a_leaf`'s
  /// history is causally between them.  O(traces * log history).
  /// Non-const: faults spilled spans covering the checked windows.
  [[nodiscard]] bool limited_ok(std::uint32_t a_leaf, EventId a, EventId b);

  const EventStore& store_;
  pattern::CompiledPattern pattern_;
  MatcherConfig config_;
  MatchCallback on_match_;
  MatcherTelemetry telemetry_;
  bool telemetry_on_ = false;
  /// The table of a standalone matcher; null in a Monitor.
  std::unique_ptr<HistoryTable> own_table_;
  HistoryTable* table_ = nullptr;
  /// This pattern's index: the span key of the classes it declares first.
  std::uint32_t pattern_index_ = 0;

  /// Builds a selectivity-aware evaluation order (the pattern tree's Order
  /// attribute): starting from `seeds`, greedily append the leaf whose
  /// instantiation is cheapest given what is already bound — a partner
  /// target (singleton), a bound variable key (indexed probe), adjacency
  /// (Fig-4 restricted domain), a known process (single trace).
  [[nodiscard]] std::vector<std::uint32_t> make_order(
      std::vector<std::uint32_t> seeds) const;

  bool initialized_ = false;
  std::size_t traces_ = 0;
  std::vector<std::vector<Edge>> edges_;      // per leaf
  std::vector<KeyAttr> key_attr_;             // per leaf
  std::vector<std::vector<std::uint32_t>> orders_;  // per anchor leaf
  /// Pinned orders per (anchor, pinned leaf), anchor * k + leaf; each
  /// built on its first pin.
  std::vector<std::vector<std::uint32_t>> pin_orders_;
  /// One bit per terminating leaf.
  std::uint64_t terminating_mask_ = 0;
  /// Per leaf, its class's id in table_ and that class's history.
  std::vector<std::uint32_t> class_of_;
  std::vector<LeafHistory*> histories_;
  /// The distinct classes of the leaves, ascending.
  std::vector<std::uint32_t> classes_;
  /// Trace lookup for process attributes: (name, trace) pairs sorted.
  std::vector<std::pair<Symbol, TraceId>> trace_by_name_;

  // Search scratch.
  std::vector<EventId> binding_;             // per leaf; index==0: unbound
  std::vector<std::size_t> depth_of_leaf_;   // position in current order
  std::vector<Symbol> var_value_;            // per attribute variable
  std::vector<bool> var_bound_;
  std::vector<std::size_t> var_binder_;      // depth that bound the variable
  std::vector<std::uint32_t> trail_;         // variables in binding order
  /// (leaf, trace) pairs covered by the current anchor's matches: 1 + the
  /// number of the first match covering the pair, 0 when none does; and
  /// the entries set so far, in that order, so the next anchor clears
  /// only those.
  std::vector<std::uint32_t> local_covered_;
  std::vector<std::uint32_t> local_marked_;
  Match match_;  // the match being reported

  // Overload governance (docs/GOVERNANCE.md).
  PatternGovernor governor_;
  bool search_limited_ = false;  ///< a finite budget is armed this observe
  bool search_aborted_ = false;
  std::uint64_t search_steps_ = 0;
  std::uint64_t search_step_limit_ = 0;
  bool search_has_deadline_ = false;
  std::chrono::steady_clock::time_point search_deadline_{};

  RepresentativeSubset subset_;
  MatcherStats stats_;

  // Symmetric anchors (DESIGN.md §4 "Symmetric patterns").
  /// The terminating leaves that search: all but those an orbit's
  /// representative answers.
  std::uint64_t search_mask_ = 0;
  /// Per leaf: for an orbit representative, an automorphism onto each
  /// other anchor of its orbit (pattern::CompiledPattern::orbit_map);
  /// empty for every other leaf and in a pattern without symmetry.
  std::vector<std::vector<std::vector<std::uint32_t>>> images_;
  /// The bindings of each match run_anchor<true> reported, k per match.
  std::vector<EventId> found_;
};

}  // namespace ocep
