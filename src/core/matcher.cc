#include "core/matcher.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.h"
#include "common/error.h"
#include "poet/varint.h"

namespace ocep {
namespace {

constexpr std::uint64_t bit(std::size_t depth) noexcept {
  return 1ULL << depth;
}

/// Share of history_bytes_limit a byte-capped history is evicted down to.
constexpr double kHistoryLowFraction = 0.5;

}  // namespace

OcepMatcher::OcepMatcher(const EventStore& store,
                         pattern::CompiledPattern pattern,
                         MatcherConfig config, MatchCallback on_match)
    : store_(store),
      pattern_(std::move(pattern)),
      config_(config),
      on_match_(std::move(on_match)) {
  OCEP_ASSERT_MSG(pattern_.size() >= 1 && pattern_.size() <= 63,
                  "pattern size must be in [1, 63]");
  governor_.configure(config_.budget, config_.breaker);
}

void OcepMatcher::initialize() {
  initialized_ = true;
  traces_ = store_.trace_count();
  OCEP_ASSERT_MSG(traces_ > 0, "store has no traces");

  const std::size_t k = pattern_.size();
  edges_.assign(k, {});
  for (const pattern::Constraint& c : pattern_.constraints) {
    switch (c.op) {
      case pattern::ConstraintOp::kBefore:
        edges_[c.a].push_back(Edge{c.b, Role::kBeforeOther});
        edges_[c.b].push_back(Edge{c.a, Role::kAfterOther});
        break;
      case pattern::ConstraintOp::kBeforeLimited:
        edges_[c.a].push_back(Edge{c.b, Role::kBeforeOtherLim});
        edges_[c.b].push_back(Edge{c.a, Role::kAfterOtherLim});
        break;
      case pattern::ConstraintOp::kConcurrent:
        edges_[c.a].push_back(Edge{c.b, Role::kConcurrent});
        edges_[c.b].push_back(Edge{c.a, Role::kConcurrent});
        break;
      case pattern::ConstraintOp::kPartner:
        edges_[c.a].push_back(Edge{c.b, Role::kSendOfOther});
        edges_[c.b].push_back(Edge{c.a, Role::kReceiveOfOther});
        break;
    }
  }

  key_attr_.assign(k, KeyAttr::kNone);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    if (pattern_.leaves[leaf].text.kind == pattern::Attr::Kind::kVariable) {
      key_attr_[leaf] = KeyAttr::kText;
    } else if (pattern_.leaves[leaf].type.kind ==
               pattern::Attr::Kind::kVariable) {
      key_attr_[leaf] = KeyAttr::kType;
    }
  }

  orders_.resize(k);
  for (std::uint32_t anchor = 0; anchor < k; ++anchor) {
    orders_[anchor] = make_order({anchor});
  }
  pin_orders_.resize(k * k);

  terminating_mask_ = 0;
  for (const std::uint32_t leaf : pattern_.terminating) {
    terminating_mask_ |= bit(leaf);
  }

  // A leaf quantified by limited precedence ('a' in a -lim-> b) must keep
  // every occurrence: a merged-away event could be the intervening witness
  // that invalidates the limit.
  merge_allowed_.assign(k, true);
  for (const pattern::Constraint& c : pattern_.constraints) {
    if (c.op == pattern::ConstraintOp::kBeforeLimited) {
      merge_allowed_[c.a] = false;
    }
  }

  histories_.resize(k);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    histories_[leaf].reset(traces_, key_attr_[leaf] != KeyAttr::kNone);
  }

  // Sorted by (name, trace), so a lookup finds the lowest trace id of a
  // repeated name.
  trace_by_name_.clear();
  for (TraceId t = 0; t < traces_; ++t) {
    trace_by_name_.emplace_back(store_.trace_name(t), t);
  }
  std::sort(trace_by_name_.begin(), trace_by_name_.end());

  binding_.assign(k, EventId{});
  depth_of_leaf_.assign(k, 0);
  var_value_.assign(pattern_.variable_count, kEmptySymbol);
  var_bound_.assign(pattern_.variable_count, false);
  var_binder_.assign(pattern_.variable_count, 0);
  local_covered_.assign(k * traces_, 0);

  subset_.reset(k, traces_);
}

std::vector<std::uint32_t> OcepMatcher::make_order(
    std::vector<std::uint32_t> seeds) const {
  const std::size_t k = pattern_.size();
  std::vector<bool> chosen(k, false);
  std::vector<bool> var_known(pattern_.variable_count, false);
  std::vector<std::uint32_t> order;

  auto absorb = [&](std::uint32_t leaf) {
    chosen[leaf] = true;
    order.push_back(leaf);
    const pattern::Leaf& spec = pattern_.leaves[leaf];
    for (const pattern::Attr* attr :
         {&spec.process, &spec.type, &spec.text}) {
      if (attr->kind == pattern::Attr::Kind::kVariable) {
        var_known[attr->variable] = true;
      }
    }
  };
  for (const std::uint32_t seed : seeds) {
    if (!chosen[seed]) {
      absorb(seed);
    }
  }

  while (order.size() < k) {
    std::uint32_t best = 0;
    int best_score = -1;
    for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
      if (chosen[leaf]) {
        continue;
      }
      const pattern::Leaf& spec = pattern_.leaves[leaf];
      int score = 0;
      for (const Edge& edge : edges_[leaf]) {
        if (!chosen[edge.other]) {
          continue;
        }
        if (edge.role == Role::kReceiveOfOther ||
            edge.role == Role::kSendOfOther) {
          score = std::max(score, 8);  // partner target: singleton domain
        } else {
          score = std::max(score, 2);  // Fig-4 restricted interval
        }
      }
      const KeyAttr key = key_attr_[leaf];
      if ((key == KeyAttr::kText && var_known[spec.text.variable]) ||
          (key == KeyAttr::kType && var_known[spec.type.variable])) {
        score += 4;  // indexed equality probe on the bound variable
      }
      if (spec.process.kind == pattern::Attr::Kind::kLiteral ||
          (spec.process.kind == pattern::Attr::Kind::kVariable &&
           var_known[spec.process.variable])) {
        score += 1;  // single-trace sweep
      }
      if (score > best_score) {
        best_score = score;
        best = leaf;
      }
    }
    absorb(best);
  }
  return order;
}

bool OcepMatcher::leaf_accepts(const pattern::Leaf& leaf,
                               const Event& event) const {
  using Kind = pattern::Attr::Kind;
  if (leaf.type.kind == Kind::kLiteral && leaf.type.literal != event.type) {
    return false;
  }
  if (leaf.text.kind == Kind::kLiteral && leaf.text.literal != event.text) {
    return false;
  }
  if (leaf.process.kind == Kind::kLiteral &&
      leaf.process.literal != store_.trace_name(event.id.trace)) {
    return false;
  }
  return true;
}

void OcepMatcher::observe(const Event& event, std::uint64_t position) {
  OCEP_ASSERT_MSG(position >= stats_.events_observed,
                  "events must be observed in arrival order");
  advance(position);
  lazy_init();
  if (telemetry_on_) {
    // Snapshot for the per-observe telemetry deltas.
    const MatcherStats before = stats_;
    observe_next(event);
    publish_telemetry(before);
  } else {
    observe_next(event);
  }
}

void OcepMatcher::observe_next(const Event& event) {
  ++stats_.events_observed;
  const TraceId trace = event.id.trace;
  OCEP_ASSERT(trace < traces_);

  // The leaves that accept the event, found once: each appends it to its
  // history, and the terminating ones then anchor searches at it.
  std::uint64_t accepting = 0;
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    if (leaf_accepts(pattern_.leaves[leaf], event)) {
      accepting |= bit(leaf);
    }
  }
  if (accepting == 0) {
    return;
  }
  ++stats_.leaf_hits;
  const bool is_comm = is_communication(event.kind);
  const std::uint32_t comm = store_.comm_before(event.id);
  for (std::uint64_t rest = accepting; rest != 0; rest &= rest - 1) {
    const auto leaf = static_cast<std::uint32_t>(std::countr_zero(rest));
    const Symbol key =
        key_attr_[leaf] == KeyAttr::kText
            ? event.text
            : (key_attr_[leaf] == KeyAttr::kType ? event.type : kEmptySymbol);
    const bool merge = config_.merge_redundant_history && merge_allowed_[leaf];
    LeafHistory& history = histories_[leaf];
    if (history.append(trace, event.id.index, comm, is_comm, merge, key)) {
      ++stats_.history_entries;
    } else {
      ++stats_.history_merged;
    }
  }
  // The governor gates the whole search phase of this observe: an open
  // or quarantined breaker degrades it to the O(1) appends above, and an
  // admitted search runs under one shared budget across every anchor and
  // pin (at most one abort per observe).  The breaker clock is the
  // event's arrival count, so the outcome is identical across checkpoint
  // splits and the events a Monitor skips.
  const std::uint64_t anchors = accepting & terminating_mask_;
  if (anchors != 0) {
    SearchBudget effective;
    if (!governor_.admit(stats_.events_observed, effective)) {
      ++stats_.observes_shed;
    } else {
      begin_search_budget(effective);
      for (std::uint64_t rest = anchors; rest != 0; rest &= rest - 1) {
        run_anchor(static_cast<std::uint32_t>(std::countr_zero(rest)), event);
        if (search_aborted_) {
          break;
        }
      }
      if (search_aborted_) {
        ++stats_.searches_aborted;
      }
      governor_.on_search_result(stats_.events_observed, search_aborted_);
      stats_.breaker_trips = governor_.trips();
    }
  }
  if (config_.history_bytes_limit > 0) {
    enforce_history_budget();
  }
}

void OcepMatcher::refresh_history_stats() {
  stats_.history_entries = 0;
  stats_.history_merged = 0;
  stats_.history_evicted = 0;
  stats_.history_spilled = 0;
  for (const LeafHistory& history : histories_) {
    stats_.history_entries += history.total();
    stats_.history_merged += history.merged();
    stats_.history_evicted += history.evicted();
    stats_.history_spilled += history.spilled();
  }
}

void OcepMatcher::begin_search_budget(const SearchBudget& budget) {
  search_aborted_ = false;
  search_steps_ = 0;
  search_step_limit_ = budget.max_steps;
  search_has_deadline_ = budget.deadline_ns > 0;
  search_limited_ = search_step_limit_ > 0 || search_has_deadline_;
  if (search_has_deadline_) {
    search_deadline_ = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(budget.deadline_ns);
  }
}

bool OcepMatcher::budget_exhausted() {
  if (search_step_limit_ > 0 && search_steps_ > search_step_limit_) {
    return true;
  }
  return search_has_deadline_ && (search_steps_ & 255U) == 0 &&
         std::chrono::steady_clock::now() >= search_deadline_;
}

void OcepMatcher::enforce_history_budget() {
  std::size_t bytes = history_bytes();
  if (bytes <= config_.history_bytes_limit) {
    return;
  }
  const auto low = static_cast<std::size_t>(
      static_cast<double>(config_.history_bytes_limit) *
      kHistoryLowFraction);
  while (bytes > low) {
    std::uint32_t best_leaf = 0;
    TraceId best_trace = 0;
    std::size_t best_size = 0;
    for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
      TraceId trace = 0;
      const std::size_t size = histories_[leaf].largest_trace(trace);
      if (size > best_size) {
        best_size = size;
        best_leaf = leaf;
        best_trace = trace;
      }
    }
    if (best_size <= 1) {
      break;  // nothing evictable left without emptying a pair entirely
    }
    // With a sink attached the prefix spills (recoverable); eviction is
    // the fallback when the sink declines (e.g. degraded store).
    std::size_t freed = 0;
    if (span_sink_ != nullptr) {
      freed = spill_pair(best_leaf, best_trace, best_size / 2);
    }
    if (freed == 0) {
      freed = histories_[best_leaf].evict_front(best_trace, best_size / 2);
    }
    if (freed == 0) {
      break;
    }
    bytes -= std::min(bytes, freed);
  }
  refresh_history_stats();
}

std::size_t OcepMatcher::spill_pair(std::uint32_t leaf, TraceId trace,
                                    std::size_t keep) {
  const std::span<const HistoryEntry> entries =
      histories_[leaf].on_trace(trace);
  if (entries.size() <= keep) {
    return 0;
  }
  const std::size_t drop = entries.size() - keep;
  if (!span_sink_->spill(pattern_index_, leaf, trace, next_span_seq_,
                         entries.first(drop))) {
    return 0;
  }
  const std::size_t freed =
      histories_[leaf].spill_front(trace, keep, next_span_seq_);
  ++next_span_seq_;
  return freed;
}

bool OcepMatcher::fault_newest(std::uint32_t leaf, TraceId trace) {
  LeafHistory& history = histories_[leaf];
  OCEP_ASSERT(history.has_spilled(trace));
  const LeafHistory::SpanMeta meta = history.spilled_on(trace).back();
  std::vector<HistoryEntry> entries;
  bool valid =
      span_sink_ != nullptr &&
      span_sink_->fault(pattern_index_, leaf, trace, meta.seq, entries) &&
      entries.size() == meta.count;
  if (valid) {
    EventIndex prev = kNoEvent;
    for (const HistoryEntry& entry : entries) {
      if (entry.index == kNoEvent || entry.index > store_.trace_size(trace) ||
          (prev != kNoEvent && entry.index <= prev)) {
        valid = false;
        break;
      }
      prev = entry.index;
    }
    const std::span<const HistoryEntry> resident = history.on_trace(trace);
    if (valid && !resident.empty() &&
        entries.back().index >= resident.front().index) {
      valid = false;
    }
  }
  history.pop_spilled(trace);
  if (!valid) {
    // Unrecoverable (store degraded, record corrupt): proceed over what
    // remains, reported as permanent coverage loss.
    ++stats_.spans_lost;
    if (span_sink_ != nullptr) {
      span_sink_->release(pattern_index_, leaf, trace, meta.seq);
    }
    return false;
  }
  std::vector<Symbol> keys;
  if (history.keyed()) {
    keys.reserve(entries.size());
    for (const HistoryEntry& entry : entries) {
      const Event& event = store_.event(EventId{trace, entry.index});
      keys.push_back(key_attr_[leaf] == KeyAttr::kText ? event.text
                                                       : event.type);
    }
  }
  history.prepend_front(trace, entries, keys);
  stats_.history_faulted += entries.size();
  stats_.history_entries += entries.size();
  span_sink_->release(pattern_index_, leaf, trace, meta.seq);
  return true;
}

void OcepMatcher::ensure_history_loaded(std::uint32_t leaf, TraceId trace,
                                        EventIndex lo) {
  LeafHistory& history = histories_[leaf];
  while (history.has_spilled(trace)) {
    const std::span<const HistoryEntry> resident = history.on_trace(trace);
    if (!resident.empty() && resident.front().index <= lo) {
      return;  // the resident window already reaches the bound
    }
    if (history.spilled_on(trace).back().last_index < lo) {
      return;  // everything still spilled is older than needed
    }
    fault_newest(leaf, trace);  // consumes a meta either way: terminates
  }
}

void OcepMatcher::release_spilled(std::uint32_t leaf, TraceId trace) {
  for (const LeafHistory::SpanMeta& meta :
       histories_[leaf].take_spilled(trace)) {
    if (span_sink_ != nullptr) {
      span_sink_->release(pattern_index_, leaf, trace, meta.seq);
    }
  }
}

void OcepMatcher::fault_all_spans() {
  if (!initialized_ || span_sink_ == nullptr) {
    return;
  }
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    // Each fault consumes a meta; a trace leaves the list with its last.
    while (!histories_[leaf].spilled_traces().empty()) {
      fault_newest(leaf, histories_[leaf].spilled_traces().front());
    }
  }
}

void OcepMatcher::for_each_spilled(
    const std::function<void(std::uint32_t leaf, TraceId trace,
                             std::uint64_t seq)>& fn) const {
  if (!initialized_) {
    return;
  }
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    for (const TraceId t : histories_[leaf].spilled_traces()) {
      for (const LeafHistory::SpanMeta& meta :
           histories_[leaf].spilled_on(t)) {
        fn(leaf, t, meta.seq);
      }
    }
  }
}

std::size_t OcepMatcher::history_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const LeafHistory& history : histories_) {
    bytes += history.approx_bytes();
  }
  return bytes;
}

PatternHealth OcepMatcher::health() const {
  PatternHealth health;
  health.state = governor_.state();
  health.searches = stats_.searches;
  health.searches_aborted = stats_.searches_aborted;
  health.observes_shed = stats_.observes_shed;
  health.breaker_trips = governor_.trips();
  health.breaker_probes = governor_.probes();
  health.history_entries = stats_.history_entries;
  health.history_bytes = history_bytes();
  health.history_evicted = stats_.history_evicted;
  health.callback_errors = stats_.callback_errors;
  health.last_error = governor_.last_error();
  return health;
}

void OcepMatcher::publish_telemetry(const MatcherStats& before) {
  const auto bump = [](obs::Counter* counter, std::uint64_t delta) {
    if (counter != nullptr && delta != 0) {
      counter->add(delta);
    }
  };
  bump(telemetry_.events, 1);
  bump(telemetry_.leaf_hits, stats_.leaf_hits - before.leaf_hits);
  bump(telemetry_.searches, stats_.searches - before.searches);
  bump(telemetry_.matches, stats_.matches_reported - before.matches_reported);
  bump(telemetry_.nodes, stats_.nodes_explored - before.nodes_explored);
  bump(telemetry_.domain_prunes, stats_.domain_prunes - before.domain_prunes);
  bump(telemetry_.backjumps, stats_.backjumps - before.backjumps);
  bump(telemetry_.pins_run, stats_.pins_run - before.pins_run);
  bump(telemetry_.pins_skipped, stats_.pins_skipped - before.pins_skipped);
  bump(telemetry_.searches_aborted,
       stats_.searches_aborted - before.searches_aborted);
  bump(telemetry_.observes_shed, stats_.observes_shed - before.observes_shed);
  bump(telemetry_.breaker_trips, stats_.breaker_trips - before.breaker_trips);
  bump(telemetry_.history_evicted,
       stats_.history_evicted - before.history_evicted);
  bump(telemetry_.callback_errors,
       stats_.callback_errors - before.callback_errors);
  if (stats_.searches == before.searches) {
    return;  // not a terminating event: no search distributions to record
  }
  if (telemetry_.levels_visited != nullptr) {
    telemetry_.levels_visited->record(stats_.levels_entered -
                                      before.levels_entered);
  }
  if (telemetry_.candidates_scanned != nullptr) {
    telemetry_.candidates_scanned->record(stats_.nodes_explored -
                                          before.nodes_explored);
  }
  if (telemetry_.matches_found != nullptr) {
    telemetry_.matches_found->record(stats_.matches_reported -
                                     before.matches_reported);
  }
}

bool OcepMatcher::prepare(const std::vector<std::uint32_t>& order,
                          std::uint32_t anchor_leaf, const Event& event) {
  std::fill(binding_.begin(), binding_.end(), EventId{});
  std::fill(var_bound_.begin(), var_bound_.end(), false);
  for (std::size_t d = 0; d < order.size(); ++d) {
    depth_of_leaf_[order[d]] = d;
  }
  // Bind the anchor (depth 0).
  trail_.clear();
  std::uint64_t blame = 0;
  if (!bind_attrs(anchor_leaf, event, 0, blame)) {
    return false;  // e.g. class [$1, x, $1] with differing attributes
  }
  binding_[anchor_leaf] = event.id;
  return true;
}

void OcepMatcher::mark_local() {
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    const std::size_t pair =
        static_cast<std::size_t>(leaf) * traces_ + binding_[leaf].trace;
    if (local_covered_[pair] == 0) {
      local_covered_[pair] = 1;
      local_marked_.push_back(static_cast<std::uint32_t>(pair));
    }
  }
}

void OcepMatcher::run_anchor(std::uint32_t anchor_leaf, const Event& event) {
  if (!partner_kind_ok(anchor_leaf, event)) {
    return;  // e.g. a send cannot anchor the receive side of '<->'
  }
  const std::size_t k = pattern_.size();
  // Local coverage for this anchor (pairs covered by matches reported
  // now): clear what the previous anchor marked.
  for (const std::uint32_t pair : local_marked_) {
    local_covered_[pair] = 0;
  }
  local_marked_.clear();

  // --- Free search (Algorithm 1 anchored at the new event) -------------
  const std::vector<std::uint32_t>& order = orders_[anchor_leaf];
  OCEP_ASSERT(order.front() == anchor_leaf);
  if (!prepare(order, anchor_leaf, event)) {
    return;
  }
  ++stats_.searches;
  std::uint64_t conflicts = 0;
  if (!extend(order, 1, Pin{}, conflicts)) {
    if (search_aborted_) {
      return;  // budget blew mid-search: not a real conflict to record
    }
    if (telemetry_.conflict_set_size != nullptr) {
      telemetry_.conflict_set_size->record(
          static_cast<std::uint64_t>(std::popcount(conflicts)));
    }
    return;  // no match contains the anchor: nothing to cover
  }
  report();
  mark_local();

  if (!config_.pin_coverage) {
    return;
  }

  // --- Coverage pinning (§IV-B representative subset) -------------------
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    if (leaf == anchor_leaf) {
      continue;  // the anchor is fixed to this event's trace
    }
    if (config_.global_coverage && subset_.covered_traces(leaf) == traces_) {
      // Every pair of the leaf is covered: each pin below would be
      // skipped, so skip them all at once.
      if (search_aborted_) {
        return;
      }
      stats_.pins_skipped += traces_;
      continue;
    }
    // Walk the leaf's sweep set.  A trace outside it holds nothing, so its
    // pin is skipped: each gap counts as that many skipped pins.  Pins
    // never grow the set (DESIGN.md §4), so the view stays valid.
    const std::span<const TraceId> occupied = histories_[leaf].traces();
    TraceId next = 0;  // the first trace not yet accounted for
    for (std::size_t i = 0; i <= occupied.size(); ++i) {
      if (search_aborted_) {
        return;  // budget blew: skip the remaining pins this observe
      }
      const TraceId t =
          i < occupied.size() ? occupied[i] : static_cast<TraceId>(traces_);
      stats_.pins_skipped += t - next;
      if (i == occupied.size()) {
        break;
      }
      next = t + 1;
      if (local_covered_[static_cast<std::size_t>(leaf) * traces_ + t] != 0 ||
          (config_.global_coverage && subset_.covered(leaf, t)) ||
          (histories_[leaf].on_trace(t).empty() &&
           !histories_[leaf].has_spilled(t))) {
        ++stats_.pins_skipped;
        continue;
      }
      // Pinned order: the anchor, then the pinned leaf, then the greedy
      // selectivity order from both.
      std::vector<std::uint32_t>& pin_order =
          pin_orders_[anchor_leaf * k + leaf];
      if (pin_order.empty()) {
        pin_order = make_order({anchor_leaf, leaf});
      }
      if (!prepare(pin_order, anchor_leaf, event)) {
        continue;
      }
      ++stats_.pins_run;
      ++stats_.searches;
      std::uint64_t pin_conflicts = 0;
      if (extend(pin_order, 1, Pin{true, leaf, t}, pin_conflicts)) {
        report();
        mark_local();
      }
    }
  }
}

void OcepMatcher::report() {
  match_.bindings = binding_;
  const bool fresh = subset_.add(match_);
  ++stats_.matches_reported;
  if (!on_match_) {
    return;
  }
  // A throwing user callback must not unwind through the search: the
  // matcher's own state (subset, stats, histories) is already consistent
  // at this point, so count the error, keep its message for the health
  // report, and carry on matching.  Unwinding would also cut the
  // Monitor's dispatch loop short, so later patterns would never observe
  // the arrival.
  try {
    on_match_(match_, fresh);
  } catch (const std::exception& e) {
    ++stats_.callback_errors;
    governor_.record_error(std::string("match callback threw: ") + e.what());
  } catch (...) {
    ++stats_.callback_errors;
    governor_.record_error("match callback threw a non-standard exception");
  }
}

bool OcepMatcher::find_trace(Symbol name, TraceId& trace) const {
  const auto it =
      std::lower_bound(trace_by_name_.begin(), trace_by_name_.end(),
                       std::pair<Symbol, TraceId>{name, 0});
  if (it == trace_by_name_.end() || it->first != name) {
    return false;
  }
  trace = it->second;
  return true;
}

bool OcepMatcher::extend(const std::vector<std::uint32_t>& order,
                         std::size_t depth, const Pin& pin,
                         std::uint64_t& conflict_out) {
  if (depth == order.size()) {
    return true;
  }
  if (search_aborted_) {
    return false;
  }
  ++stats_.levels_entered;
  const std::uint32_t leaf = order[depth];
  const pattern::Leaf& spec = pattern_.leaves[leaf];
  const LeafHistory& history = histories_[leaf];

  // Trace selection: a pin, a literal process attribute, or a bound
  // process variable restrict the sweep to a single trace (this is what
  // isolates the relevant traces, §V-D).
  TraceId single = 0;
  bool have_single = false;
  std::uint64_t my_conflicts = 0;
  std::uint64_t trace_blame = 0;  // binder of a bound process variable
  if (pin.active && pin.leaf == leaf) {
    single = pin.trace;
    have_single = true;
  } else if (spec.process.kind == pattern::Attr::Kind::kLiteral) {
    if (!find_trace(spec.process.literal, single)) {
      return false;  // no such trace: unconditional failure
    }
    have_single = true;
  } else if (spec.process.kind == pattern::Attr::Kind::kVariable &&
             var_bound_[spec.process.variable]) {
    if (!find_trace(var_value_[spec.process.variable], single)) {
      conflict_out |= bit(var_binder_[spec.process.variable]);
      return false;
    }
    have_single = true;
    // Exhausting this trace must blame the variable's binder: a different
    // earlier choice selects a different trace.
    trace_blame = bit(var_binder_[spec.process.variable]);
  }

  // With the leaf's key variable already bound, probe the secondary
  // index: only occurrences with the matching attribute value.
  const LeafHistory::KeySlice* slice = nullptr;
  bool keyed_probe = false;
  Symbol probe_key = kEmptySymbol;
  std::uint64_t key_blame = 0;
  if (key_attr_[leaf] != KeyAttr::kNone) {
    const pattern::Attr& attr =
        key_attr_[leaf] == KeyAttr::kText ? spec.text : spec.type;
    if (var_bound_[attr.variable]) {
      probe_key = var_value_[attr.variable];
      slice = history.slice(probe_key);
      keyed_probe = true;
      key_blame = bit(var_binder_[attr.variable]);
    }
  }
  const auto fetch = [&](TraceId t) -> std::span<const HistoryEntry> {
    if (!keyed_probe) {
      return history.on_trace(t);
    }
    // A fault may have created the slice since the level began.
    return span_sink_ != nullptr ? history.on_trace_keyed(t, probe_key)
                                 : LeafHistory::on_trace_in(slice, t);
  };

  // The sweep (DESIGN.md §4): the single trace, else only the traces that
  // can yield a candidate, ascending.  A trace outside the leaf's set
  // holds nothing under any binding and needs no blame.  A bound key
  // narrows the sweep to its slice, unless the leaf has spilled spans:
  // their keys are unknown until faulted back, so the whole set is swept
  // (and no fault can change the slice under a slice sweep).  A trace in
  // the leaf's set but outside the sweep holds the leaf only under other
  // keys: it blames the key's binder, in sweep order, as visiting it
  // would have.
  const std::span<const TraceId> occupied = history.traces();
  std::span<const TraceId> sweep = occupied;
  if (have_single) {
    sweep = std::span<const TraceId>(&single, 1);
  } else if (keyed_probe && history.spilled_traces().empty()) {
    sweep = slice != nullptr ? std::span<const TraceId>(slice->traces)
                             : std::span<const TraceId>();
  }
  const bool key_gaps = keyed_probe && !have_single;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const TraceId t = sweep[i];
    // More of the leaf's set lies below t than of the sweep: a gap.
    if (key_gaps && (my_conflicts & key_blame) == 0 &&
        std::lower_bound(occupied.begin(), occupied.end(), t) >
            occupied.begin() + static_cast<std::ptrdiff_t>(i)) {
      my_conflicts |= key_blame;
    }
    EventIndex lo = 1;
    EventIndex hi = store_.trace_size(t);
    std::uint64_t setters = 0;
    if (config_.domain_pruning) {
      std::uint64_t blame = 0;
      if (!domain_on_trace(leaf, t, lo, hi, blame, setters)) {
        ++stats_.domain_prunes;
        my_conflicts |= blame;
        continue;
      }
    }
    // Fault spilled history covering [lo, hi] back in before taking the
    // entries view.  Afterwards every span still spilled on (leaf, t) is
    // strictly older than lo, so deeper faults (a limited_ok check can
    // prepend into this same history) only ever grow the view below
    // range.first — positions shift by exactly the growth.
    if (span_sink_ != nullptr) {
      ensure_history_loaded(leaf, t, lo);
    }
    std::span<const HistoryEntry> entries = fetch(t);
    LeafHistory::Range range = LeafHistory::range_of(entries, lo, hi);
    for (std::size_t pos = range.last; pos > range.first; --pos) {
      const EventId candidate{t, entries[pos - 1].index};
      const std::size_t size_before = entries.size();
      bool backjump = false;
      if (try_candidate(order, depth, pin, leaf, candidate, my_conflicts,
                        backjump)) {
        return true;
      }
      if (search_aborted_) {
        conflict_out |= my_conflicts;
        return false;
      }
      if (backjump) {
        // The failure below did not involve this level: skip its remaining
        // candidates and traces entirely.
        conflict_out |= my_conflicts;
        return false;
      }
      if (span_sink_ != nullptr) {
        // A deeper fault may have prepended older entries (all < lo) into
        // this view, reallocating it: re-fetch and shift positions.
        const std::span<const HistoryEntry> fresh = fetch(t);
        if (fresh.size() != size_before) {
          const std::size_t growth = fresh.size() - size_before;
          pos += growth;
          range.first += growth;
          range.last += growth;
        }
        entries = fresh;
      }
    }
    // This trace is exhausted.  The interval may have excluded stored
    // occurrences, and the key probe excluded other attribute values; the
    // levels that produced those restrictions must be blamed, or
    // backjumping could unsoundly skip re-instantiating them.
    my_conflicts |= setters | key_blame;
  }
  if (key_gaps && sweep.size() < occupied.size()) {
    my_conflicts |= key_blame;  // a gap after the last swept trace
  }
  conflict_out |= my_conflicts | trace_blame;
  return false;
}

// Returns true when a complete match was found below this candidate.  When
// returning false, `backjump` (via made_match) is set if the failure did
// not involve this level and remaining candidates must be skipped.
bool OcepMatcher::try_candidate(const std::vector<std::uint32_t>& order,
                                std::size_t depth, const Pin& pin,
                                std::uint32_t leaf, EventId candidate,
                                std::uint64_t& conflict_out,
                                bool& backjump) {
  ++stats_.nodes_explored;
  backjump = false;
  if (search_limited_) {
    ++search_steps_;
    if (budget_exhausted()) {
      search_aborted_ = true;
      return false;
    }
  }
  const Event& event = store_.event(candidate);

  // Without domain pruning (chronological baseline), constraints against
  // instantiated events are checked here, one relation at a time.
  if (!config_.domain_pruning) {
    for (const Edge& edge : edges_[leaf]) {
      if (binding_[edge.other].index == kNoEvent) {
        continue;
      }
      if (!satisfied(leaf, edge.role, candidate, binding_[edge.other])) {
        conflict_out |= bit(depth_of_leaf_[edge.other]);
        return false;
      }
    }
  } else {
    // Partner kinds are not captured by index intervals; enforce them.
    if (!partner_kind_ok(leaf, event)) {
      return false;
    }
    // Limited precedence needs a history check beyond the interval.
    for (const Edge& edge : edges_[leaf]) {
      const EventId other = binding_[edge.other];
      if (other.index == kNoEvent) {
        continue;
      }
      if (edge.role == Role::kBeforeOtherLim &&
          !limited_ok(leaf, candidate, other)) {
        conflict_out |= bit(depth_of_leaf_[edge.other]);
        return false;
      }
      if (edge.role == Role::kAfterOtherLim &&
          !limited_ok(edge.other, other, candidate)) {
        conflict_out |= bit(depth_of_leaf_[edge.other]);
        return false;
      }
    }
  }

  const std::size_t trail_mark = trail_.size();
  std::uint64_t blame = 0;
  if (!bind_attrs(leaf, event, depth, blame)) {
    unwind_trail(trail_mark);
    conflict_out |= blame;
    return false;
  }
  binding_[leaf] = candidate;

  std::uint64_t child_conflicts = 0;
  if (extend(order, depth + 1, pin, child_conflicts)) {
    return true;  // keep bindings; the caller reports the match
  }

  binding_[leaf] = EventId{};
  unwind_trail(trail_mark);

  if (search_aborted_) {
    return false;  // unwind without recording a backjump: not a conflict
  }
  if (config_.backjumping && (child_conflicts & bit(depth)) == 0) {
    // This level's choice is irrelevant to the failure below: jump past it
    // (the paper's goBackward with recorded conflict timestamps).
    ++stats_.backjumps;
    if (telemetry_.backjump_distance != nullptr) {
      // Levels the jump skips: down to the deepest blamed level below this
      // one (or to the anchor when nothing below is blamed).
      const std::uint64_t blamed_below = child_conflicts & (bit(depth) - 1);
      const std::size_t land =
          blamed_below == 0
              ? 0
              : static_cast<std::size_t>(std::bit_width(blamed_below)) - 1;
      telemetry_.backjump_distance->record(depth - land);
    }
    conflict_out |= child_conflicts;
    backjump = true;
    return false;
  }
  conflict_out |= child_conflicts & ~bit(depth);
  return false;
}

// NOLINTNEXTLINE(readability-function-cognitive-complexity)
bool OcepMatcher::domain_on_trace(std::uint32_t leaf, TraceId trace,
                                  EventIndex& lo, EventIndex& hi,
                                  std::uint64_t& blame,
                                  std::uint64_t& setters) const {
  // Track which depths supplied the binding lower/upper bounds so an empty
  // interval blames exactly the constraints that tightened it (sound for
  // backjumping: keeping those instantiations keeps the domain empty).
  std::uint64_t lo_setter = 0;
  std::uint64_t hi_setter = 0;
  for (const Edge& edge : edges_[leaf]) {
    const EventId other = binding_[edge.other];
    if (other.index == kNoEvent) {
      continue;
    }
    const std::uint64_t other_bit = bit(depth_of_leaf_[edge.other]);
    switch (edge.role) {
      case Role::kAfterOther:
      case Role::kAfterOtherLim: {  // other -> me: [LS(other, t), inf)
        const EventIndex ls = store_.least_successor(other, trace);
        if (ls == kInfiniteIndex) {
          blame |= other_bit | lo_setter | hi_setter;
          return false;
        }
        if (ls > lo) {
          lo = ls;
          lo_setter = other_bit;
        }
        break;
      }
      case Role::kBeforeOther:
      case Role::kBeforeOtherLim: {  // me -> other: (-inf, GP(other, t)]
        const EventIndex gp = store_.greatest_predecessor(other, trace);
        if (gp == kNoEvent) {
          blame |= other_bit | lo_setter | hi_setter;
          return false;
        }
        if (gp < hi) {
          hi = gp;
          hi_setter = other_bit;
        }
        break;
      }
      case Role::kConcurrent: {  // (GP(other, t), LS(other, t))
        if (trace == other.trace) {
          // Events on the instantiated event's own trace are totally
          // ordered with it: nothing there can be concurrent.
          blame |= other_bit;
          return false;
        }
        const EventIndex gp = store_.greatest_predecessor(other, trace);
        if (gp + 1 > lo) {
          lo = gp + 1;
          lo_setter = other_bit;
        }
        const EventIndex ls = store_.least_successor(other, trace);
        if (ls != kInfiniteIndex && ls - 1 < hi) {
          hi = ls - 1;
          hi_setter = other_bit;
        }
        break;
      }
      case Role::kReceiveOfOther:
      case Role::kSendOfOther: {
        const Event& other_event = store_.event(other);
        EventId target{};
        if (other_event.message != kNoMessage) {
          target = edge.role == Role::kReceiveOfOther
                       ? store_.receive_of(other_event.message)
                       : store_.send_of(other_event.message);
        }
        if (target.index == kNoEvent || target.trace != trace) {
          blame |= other_bit | lo_setter | hi_setter;
          return false;
        }
        if (target.index > lo) {
          lo = target.index;
          lo_setter = other_bit;
        }
        if (target.index < hi) {
          hi = target.index;
          hi_setter = other_bit;
        }
        break;
      }
    }
    if (lo > hi) {
      blame |= lo_setter | hi_setter | other_bit;
      return false;
    }
  }
  setters = lo_setter | hi_setter;
  return true;
}

bool OcepMatcher::bind_attrs(std::uint32_t leaf, const Event& event,
                             std::size_t depth, std::uint64_t& blame) {
  const pattern::Leaf& spec = pattern_.leaves[leaf];
  const Symbol values[3] = {store_.trace_name(event.id.trace), event.type,
                            event.text};
  const pattern::Attr* attrs[3] = {&spec.process, &spec.type, &spec.text};
  for (int i = 0; i < 3; ++i) {
    if (attrs[i]->kind != pattern::Attr::Kind::kVariable) {
      continue;
    }
    const std::uint32_t var = attrs[i]->variable;
    if (var_bound_[var]) {
      if (var_value_[var] != values[i]) {
        blame |= bit(var_binder_[var]);
        return false;
      }
      continue;
    }
    var_value_[var] = values[i];
    var_bound_[var] = true;
    var_binder_[var] = depth;
    trail_.push_back(var);
  }
  return true;
}

void OcepMatcher::unwind_trail(std::size_t mark) {
  while (trail_.size() > mark) {
    var_bound_[trail_.back()] = false;
    trail_.pop_back();
  }
}

bool OcepMatcher::limited_ok(std::uint32_t a_leaf, EventId a, EventId b) {
  // Violated iff some event x of a_leaf's class (by its stored history)
  // satisfies a -> x -> b: on each trace that is the index window
  // [LS(a, t), GP(b, t)].  Only traces in a_leaf's sweep set can hold x;
  // faults below refill traces already in the set, so the view is stable.
  for (const TraceId t : histories_[a_leaf].traces()) {
    const EventIndex ls = store_.least_successor(a, t);
    if (ls == kInfiniteIndex) {
      continue;
    }
    const EventIndex gp = store_.greatest_predecessor(b, t);
    if (gp == kNoEvent || ls > gp) {
      continue;
    }
    // The intervening witness may sit below the in-RAM window: fault the
    // spilled spans that could cover [ls, gp] back in first.
    if (span_sink_ != nullptr) {
      ensure_history_loaded(a_leaf, t, ls);
    }
    if (histories_[a_leaf].any_in(t, ls, gp)) {
      return false;
    }
  }
  return true;
}

bool OcepMatcher::partner_kind_ok(std::uint32_t leaf,
                                  const Event& event) const {
  for (const Edge& edge : edges_[leaf]) {
    if (edge.role == Role::kReceiveOfOther &&
        event.kind != EventKind::kReceive) {
      return false;
    }
    if (edge.role == Role::kSendOfOther && event.kind != EventKind::kSend) {
      return false;
    }
  }
  return true;
}

namespace {

/// The MatcherStats fields in checkpoint order.
template <typename Stats, typename Fn>
void for_each_stat(Stats& stats, Fn&& fn) {
  fn(stats.events_observed);
  fn(stats.leaf_hits);
  fn(stats.searches);
  fn(stats.matches_reported);
  fn(stats.nodes_explored);
  fn(stats.backjumps);
  fn(stats.history_entries);
  fn(stats.history_merged);
  fn(stats.levels_entered);
  fn(stats.domain_prunes);
  fn(stats.pins_run);
  fn(stats.pins_skipped);
}

}  // namespace

void OcepMatcher::checkpoint(std::ostream& out) {
  lazy_init();
  const std::size_t k = pattern_.size();
  for_each_stat(stats_,
                [&out](std::uint64_t field) { poet::put_varint(out, field); });
  // Governance counters.  breaker_trips and history_evicted are not
  // written: they are recomputed on restore from the governor blob and the
  // per-leaf evicted counters, keeping each figure stored exactly once.
  poet::put_varint(out, stats_.searches_aborted);
  poet::put_varint(out, stats_.observes_shed);
  poet::put_varint(out, stats_.callback_errors);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    const LeafHistory& history = histories_[leaf];
    poet::put_varint(out, history.merged());
    poet::put_varint(out, history.evicted());
    for (TraceId t = 0; t < traces_; ++t) {
      const std::span<const HistoryEntry> entries = history.on_trace(t);
      poet::put_varint(out, entries.size());
      for (const HistoryEntry& entry : entries) {
        poet::put_varint(out, entry.index);
        poet::put_varint(out, entry.comm_before);
      }
    }
  }
  for (const std::uint32_t slot : subset_.slots()) {
    poet::put_varint(out, slot);
  }
  const std::vector<Match>& matches = subset_.matches();
  poet::put_varint(out, matches.size());
  for (const Match& match : matches) {
    OCEP_ASSERT(match.bindings.size() == k);
    for (const EventId id : match.bindings) {
      poet::put_varint(out, id.trace);
      poet::put_varint(out, id.index);
    }
  }
  governor_.checkpoint(out);
  // Span-spill state: the spill sequence, fault counters, and the
  // per-(leaf, trace) spilled-span metas.  The entries themselves are not
  // written — they live in the tenant's log as span records, addressed by
  // the (pattern, leaf, trace, seq) fingerprints recorded here.
  poet::put_varint(out, next_span_seq_);
  poet::put_varint(out, stats_.history_faulted);
  poet::put_varint(out, stats_.spans_lost);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    poet::put_varint(out, histories_[leaf].spilled());
    for (TraceId t = 0; t < traces_; ++t) {
      const std::span<const LeafHistory::SpanMeta> metas =
          histories_[leaf].spilled_on(t);
      poet::put_varint(out, metas.size());
      for (const LeafHistory::SpanMeta& meta : metas) {
        poet::put_varint(out, meta.seq);
        poet::put_varint(out, meta.first_index);
        poet::put_varint(out, meta.last_index);
        poet::put_varint(out, meta.count);
      }
    }
  }
}

void OcepMatcher::restore(std::istream& in) {
  OCEP_ASSERT_MSG(stats_.events_observed == 0,
                  "restore requires a fresh matcher");
  lazy_init();
  const std::size_t k = pattern_.size();
  for_each_stat(stats_,
                [&in](std::uint64_t& field) { field = poet::get_varint(in); });
  stats_.searches_aborted = poet::get_varint(in);
  stats_.observes_shed = poet::get_varint(in);
  stats_.callback_errors = poet::get_varint(in);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    // Sequenced reads: as direct arguments their evaluation order would be
    // unspecified.
    const std::uint64_t merged = poet::get_varint(in);
    const std::uint64_t evicted = poet::get_varint(in);
    histories_[leaf].set_counters(merged, evicted);
    for (TraceId t = 0; t < traces_; ++t) {
      const std::uint64_t count = poet::get_varint(in);
      if (count > store_.trace_size(t)) {
        throw SerializationError("checkpoint history longer than its trace");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto index = static_cast<EventIndex>(poet::get_varint(in));
        const auto comm = static_cast<std::uint32_t>(poet::get_varint(in));
        if (index == kNoEvent || index > store_.trace_size(t)) {
          throw SerializationError("checkpoint history entry out of range");
        }
        const Event& event = store_.event(EventId{t, index});
        const Symbol key = key_attr_[leaf] == KeyAttr::kText
                               ? event.text
                               : (key_attr_[leaf] == KeyAttr::kType
                                      ? event.type
                                      : kEmptySymbol);
        histories_[leaf].restore_entry(t, index, comm, key);
      }
    }
  }
  std::vector<std::uint32_t> slots(k * traces_);
  for (std::uint32_t& slot : slots) {
    slot = static_cast<std::uint32_t>(poet::get_varint(in));
  }
  const std::uint64_t match_count = poet::get_varint(in);
  if (match_count > k * traces_) {
    throw SerializationError("checkpoint retains too many matches");
  }
  std::vector<Match> matches(match_count);
  for (Match& match : matches) {
    match.bindings.resize(k);
    for (EventId& id : match.bindings) {
      id.trace = static_cast<TraceId>(poet::get_varint(in));
      id.index = static_cast<EventIndex>(poet::get_varint(in));
      if (id.trace >= traces_ || id.index == kNoEvent ||
          id.index > store_.trace_size(id.trace)) {
        throw SerializationError("checkpoint match binding out of range");
      }
    }
  }
  for (const std::uint32_t slot : slots) {
    if (slot != RepresentativeSubset::kUnsetSlot && slot >= match_count) {
      throw SerializationError("checkpoint coverage slot out of range");
    }
  }
  subset_.restore(std::move(slots), std::move(matches));
  governor_.restore(in);
  next_span_seq_ = poet::get_varint(in);
  stats_.history_faulted = poet::get_varint(in);
  stats_.spans_lost = poet::get_varint(in);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    histories_[leaf].set_spilled_counter(poet::get_varint(in));
    for (TraceId t = 0; t < traces_; ++t) {
      const std::uint64_t meta_count = poet::get_varint(in);
      if (meta_count > store_.trace_size(t)) {
        throw SerializationError("checkpoint spans exceed the trace");
      }
      EventIndex prev_last = kNoEvent;
      for (std::uint64_t i = 0; i < meta_count; ++i) {
        LeafHistory::SpanMeta meta;
        meta.seq = poet::get_varint(in);
        meta.first_index = static_cast<EventIndex>(poet::get_varint(in));
        meta.last_index = static_cast<EventIndex>(poet::get_varint(in));
        meta.count = static_cast<std::uint32_t>(poet::get_varint(in));
        if (meta.count == 0 || meta.first_index == kNoEvent ||
            meta.first_index > meta.last_index ||
            meta.last_index > store_.trace_size(t) ||
            (prev_last != kNoEvent && meta.first_index <= prev_last)) {
          throw SerializationError("checkpoint span meta out of range");
        }
        prev_last = meta.last_index;
        histories_[leaf].restore_spilled(t, meta);
      }
      const std::span<const HistoryEntry> resident =
          histories_[leaf].on_trace(t);
      if (prev_last != kNoEvent && !resident.empty() &&
          prev_last >= resident.front().index) {
        throw SerializationError(
            "checkpoint span metas overlap resident history");
      }
    }
  }
  stats_.breaker_trips = governor_.trips();
  refresh_history_stats();
}

bool OcepMatcher::satisfied(std::uint32_t leaf, Role role, EventId me,
                            EventId other) {
  switch (role) {
    case Role::kAfterOther:
      return store_.happens_before(other, me);
    case Role::kBeforeOther:
      return store_.happens_before(me, other);
    case Role::kAfterOtherLim: {
      // other -lim-> me: the quantified class is the *other* leaf's.
      std::uint32_t other_leaf = 0;
      for (const Edge& edge : edges_[leaf]) {
        if (edge.role == Role::kAfterOtherLim &&
            binding_[edge.other] == other) {
          other_leaf = edge.other;
          break;
        }
      }
      return store_.happens_before(other, me) &&
             limited_ok(other_leaf, other, me);
    }
    case Role::kBeforeOtherLim:
      return store_.happens_before(me, other) && limited_ok(leaf, me, other);
    case Role::kConcurrent:
      return store_.relate(me, other) == Relation::kConcurrent;
    case Role::kReceiveOfOther: {
      const Event& mine = store_.event(me);
      const Event& theirs = store_.event(other);
      return mine.kind == EventKind::kReceive &&
             theirs.kind == EventKind::kSend &&
             mine.message != kNoMessage && mine.message == theirs.message;
    }
    case Role::kSendOfOther: {
      const Event& mine = store_.event(me);
      const Event& theirs = store_.event(other);
      return mine.kind == EventKind::kSend &&
             theirs.kind == EventKind::kReceive &&
             mine.message != kNoMessage && mine.message == theirs.message;
    }
  }
  return false;
}

}  // namespace ocep
