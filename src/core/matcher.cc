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

}  // namespace

OcepMatcher::OcepMatcher(const EventStore& store,
                         pattern::CompiledPattern pattern,
                         MatcherConfig config, MatchCallback on_match)
    : OcepMatcher(store, std::move(pattern), config, std::move(on_match),
                  nullptr, 0) {}

OcepMatcher::OcepMatcher(const EventStore& store,
                         pattern::CompiledPattern pattern,
                         MatcherConfig config, MatchCallback on_match,
                         HistoryTable* histories, std::uint32_t index)
    : store_(store),
      pattern_(std::move(pattern)),
      config_(config),
      on_match_(std::move(on_match)),
      table_(histories),
      pattern_index_(index) {
  OCEP_ASSERT_MSG(pattern_.size() >= 1 && pattern_.size() <= 63,
                  "pattern size must be in [1, 63]");
  if (table_ == nullptr) {
    own_table_ = std::make_unique<HistoryTable>(store_);
    table_ = own_table_.get();
  }
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

  key_attr_.resize(k);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    key_attr_[leaf] = key_attr_of(pattern_.leaves[leaf]);
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
  std::vector<bool> merge(k, config_.merge_redundant_history);
  for (const pattern::Constraint& c : pattern_.constraints) {
    if (c.op == pattern::ConstraintOp::kBeforeLimited) {
      merge[c.a] = false;
    }
  }
  class_of_.resize(k);
  histories_.resize(k);
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    class_of_[leaf] = table_->intern(
        LeafClass::of(pattern_.leaves[leaf], merge[leaf]), pattern_index_,
        leaf);
    histories_[leaf] = &table_->history(class_of_[leaf]);
  }
  classes_ = class_of_;
  std::sort(classes_.begin(), classes_.end());
  classes_.erase(std::unique(classes_.begin(), classes_.end()),
                 classes_.end());

  // Sorted by (name, trace), so a lookup finds the lowest trace id of a
  // repeated name.
  trace_by_name_.clear();
  for (TraceId t = 0; t < traces_; ++t) {
    trace_by_name_.emplace_back(store_.trace_name(t), t);
  }
  std::sort(trace_by_name_.begin(), trace_by_name_.end());

  // A terminating leaf that an automorphism maps its orbit's
  // representative onto runs no search: the representative's matches,
  // mapped, answer it (DESIGN.md §4 "Symmetric patterns").  Symmetric
  // leaves share a class, so both accept an arrival or neither does.
  search_mask_ = terminating_mask_;
  images_.assign(k, {});
  if (pattern_.orbit_rep.size() == k) {
    for (const std::uint32_t leaf : pattern_.terminating) {
      const std::uint32_t rep = pattern_.orbit_rep[leaf];
      if (rep != leaf) {
        OCEP_ASSERT(class_of_[rep] == class_of_[leaf]);
        images_[rep].push_back(pattern_.orbit_map[leaf]);
        search_mask_ &= ~bit(leaf);
      }
    }
  }

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

void OcepMatcher::observe(const Event& event, std::uint64_t position) {
  OCEP_ASSERT_MSG(position >= stats_.events_observed,
                  "events must be observed in arrival order");
  advance(position);
  lazy_init();
  if (own_table_ != nullptr) {
    own_table_->append(event, classes_);
  }
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

  // The leaves that accept the event are those whose class's history the
  // table appended it to; each counts the append as its own copy would,
  // and the terminating ones then anchor searches at it.
  std::uint64_t accepting = 0;
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    const LeafHistory::Outcome outcome = histories_[leaf]->outcome_of(event.id);
    if (outcome == LeafHistory::Outcome::kNone) {
      continue;
    }
    accepting |= bit(leaf);
    if (outcome == LeafHistory::Outcome::kStored) {
      ++stats_.history_entries;
    } else {
      ++stats_.history_merged;
    }
  }
  if (accepting == 0) {
    return;
  }
  ++stats_.leaf_hits;
  // The governor gates the whole search phase of this observe: an open
  // breaker degrades it to the O(1) appends above, and an admitted search
  // runs under one shared budget across every anchor and pin (at most one
  // abort per observe).  The breaker clock is the event's arrival count, so
  // the outcome is identical across checkpoint splits and the events a
  // Monitor skips.
  const std::uint64_t anchors = accepting & terminating_mask_;
  if (anchors != 0) {
    SearchBudget effective;
    if (!governor_.admit(stats_.events_observed, effective)) {
      ++stats_.observes_shed;
    } else {
      begin_search_budget(effective);
      // Only each orbit's representative searches; its images answer the
      // orbit's other anchors.  An abort ends the arrival's searches, but
      // the images of the matches found before it cost no step and are
      // still reported.  An anchor without images, as every anchor of a
      // pattern without symmetry is, runs run_anchor<false>: no image
      // test in its pins.
      for (std::uint64_t reps = anchors & search_mask_; reps != 0;
           reps &= reps - 1) {
        const auto rep = static_cast<std::uint32_t>(std::countr_zero(reps));
        if (images_[rep].empty()) {
          run_anchor<false>(rep, event);
        } else {
          run_anchor<true>(rep, event);
          report_images(rep);
        }
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
}

void OcepMatcher::refresh_history_stats() {
  stats_.history_entries = 0;
  stats_.history_merged = 0;
  stats_.history_evicted = 0;
  stats_.history_spilled = 0;
  stats_.history_faulted = 0;
  stats_.spans_lost = 0;
  for (const LeafHistory* history : histories_) {
    stats_.history_entries += history->total();
    stats_.history_merged += history->merged();
    stats_.history_evicted += history->evicted();
    stats_.history_spilled += history->spilled();
    stats_.history_faulted += history->faulted();
    stats_.spans_lost += history->spans_lost();
  }
}

void OcepMatcher::sync_history_stats() {
  const std::uint64_t evicted = stats_.history_evicted;
  refresh_history_stats();
  if (telemetry_.history_evicted != nullptr &&
      stats_.history_evicted > evicted) {
    telemetry_.history_evicted->add(stats_.history_evicted - evicted);
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

std::size_t OcepMatcher::history_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const std::uint32_t id : classes_) {
    bytes += table_->history(id).approx_bytes();
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

void OcepMatcher::mark_local(std::uint32_t match) {
  for (std::uint32_t leaf = 0; leaf < pattern_.size(); ++leaf) {
    const std::size_t pair =
        static_cast<std::size_t>(leaf) * traces_ + binding_[leaf].trace;
    if (local_covered_[pair] == 0) {
      local_covered_[pair] = match + 1;
      local_marked_.push_back(static_cast<std::uint32_t>(pair));
    }
  }
}

bool OcepMatcher::pin_covered(std::uint32_t anchor, std::uint32_t leaf,
                              TraceId t) const {
  if (!subset_.covered(leaf, t)) {
    return false;
  }
  for (const std::vector<std::uint32_t>& map : images_[anchor]) {
    if (!subset_.covered(map[leaf], t)) {
      return false;
    }
  }
  return true;
}

bool OcepMatcher::pins_covered(std::uint32_t anchor,
                               std::uint32_t leaf) const {
  if (subset_.covered_traces(leaf) != traces_) {
    return false;
  }
  for (const std::vector<std::uint32_t>& map : images_[anchor]) {
    if (subset_.covered_traces(map[leaf]) != traces_) {
      return false;
    }
  }
  return true;
}

template <bool kImages>
void OcepMatcher::run_anchor(std::uint32_t anchor_leaf, const Event& event) {
  if constexpr (kImages) {
    found_.clear();
  }
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
  mark_local(0);  // the free search's match
  if constexpr (kImages) {
    found_.insert(found_.end(), binding_.begin(), binding_.end());
  }

  // --- Coverage pinning (§IV-B representative subset) -------------------
  // A pair covered earlier in the run, by any anchor, needs no pin: this
  // bounds the total work, and per-anchor free searches still report
  // every violation occurrence.
  std::uint32_t matches = 1;  // this anchor's, so far
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    if (leaf == anchor_leaf) {
      continue;  // the anchor is fixed to this event's trace
    }
    if (kImages ? pins_covered(anchor_leaf, leaf)
                : subset_.covered_traces(leaf) == traces_) {
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
    const std::span<const TraceId> occupied = histories_[leaf]->traces();
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
          (kImages ? pin_covered(anchor_leaf, leaf, t)
                   : subset_.covered(leaf, t)) ||
          (histories_[leaf]->on_trace(t).empty() &&
           !histories_[leaf]->has_spilled(t))) {
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
        mark_local(matches++);
        if constexpr (kImages) {
          found_.insert(found_.end(), binding_.begin(), binding_.end());
        }
      }
    }
  }
}

void OcepMatcher::report_images(std::uint32_t rep) {
  if (found_.empty()) {
    return;  // no match holds the arrival at rep, so none at its images
  }
  const std::size_t k = pattern_.size();
  for (const std::vector<std::uint32_t>& map : images_[rep]) {
    // π(l) binds what l bound in the representative's match `m`.
    const auto report_image = [&](std::uint32_t m) {
      for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
        binding_[map[leaf]] = found_[m * k + leaf];
      }
      report();
    };
    // The free search's image: the anchor still reports its occurrence.
    report_image(0);
    // In the image anchor's pin loop, the pin of (π(l), t) would run when
    // the pair is uncovered, and find a match exactly when the
    // representative found one with l on t, which it pins while any image
    // of (l, t) is uncovered (DESIGN.md §4): report the image of the
    // first such match.  local_marked_ lists the
    // representative's pairs in the order its matches first covered
    // them, so a match already imaged covers the images of its pairs.
    std::uint32_t imaged = 0;
    for (const std::uint32_t pair : local_marked_) {
      const std::uint32_t m = local_covered_[pair] - 1;
      if (m == imaged ||
          subset_.covered(map[pair / traces_],
                          static_cast<TraceId>(pair % traces_))) {
        continue;
      }
      report_image(m);
      imaged = m;
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
  const LeafHistory& history = *histories_[leaf];

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
  const bool spills = table_->spills();
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
    return spills ? history.on_trace_keyed(t, probe_key)
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
    // Scan the resident entries in [lo, hi] latest-first.  Spilled spans
    // are older than every resident entry, so they are faulted only when
    // the scan runs off the resident ones (below): a search that succeeds
    // on resident entries faults nothing.  Any fault — that one, or a
    // deeper level's into this same history (a leaf of the same class, a
    // limited_ok check) — prepends older entries into this view,
    // reallocating it: re-fetch and shift positions by the growth.
    std::span<const HistoryEntry> entries = fetch(t);
    LeafHistory::Range range = LeafHistory::range_of(entries, lo, hi);
    while (true) {
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
          // The failure below did not involve this level: skip its
          // remaining candidates and traces entirely.
          conflict_out |= my_conflicts;
          return false;
        }
        if (spills) {
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
      if (!spills) {
        break;
      }
      // Every entry at or above range.first is scanned.  Scan what the
      // faults put below it in [lo, hi]; else fault the next-newest span
      // while one can still hold an index >= lo.
      const LeafHistory::Range now = LeafHistory::range_of(entries, lo, hi);
      if (now.first < range.first) {
        range.last = std::min(now.last, range.first);
        range.first = now.first;
        continue;
      }
      const std::size_t size_before = entries.size();
      if (!table_->fault_next(class_of_[leaf], t, lo)) {
        break;
      }
      entries = fetch(t);
      range.first += entries.size() - size_before;
      range.last = range.first;
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
  for (const TraceId t : histories_[a_leaf]->traces()) {
    const EventIndex ls = store_.least_successor(a, t);
    if (ls == kInfiniteIndex) {
      continue;
    }
    const EventIndex gp = store_.greatest_predecessor(b, t);
    if (gp == kNoEvent || ls > gp) {
      continue;
    }
    // A resident witness settles it.  Else one may sit in a spilled span
    // below the resident entries: fault them newest-first while one can
    // hold an index >= ls.
    if (histories_[a_leaf]->any_in(t, ls, gp)) {
      return false;
    }
    while (table_->spills() && table_->fault_next(class_of_[a_leaf], t, ls)) {
      if (histories_[a_leaf]->any_in(t, ls, gp)) {
        return false;
      }
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

/// The MatcherStats fields in checkpoint order.  The history counters are
/// not written: the histories are the table's, and restore() recomputes
/// them, keeping each figure stored exactly once.
template <typename Stats, typename Fn>
void for_each_stat(Stats& stats, Fn&& fn) {
  fn(stats.events_observed);
  fn(stats.leaf_hits);
  fn(stats.searches);
  fn(stats.matches_reported);
  fn(stats.nodes_explored);
  fn(stats.backjumps);
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
  // Governance counters.  breaker_trips is not written: it is recomputed
  // on restore from the governor blob.
  poet::put_varint(out, stats_.searches_aborted);
  poet::put_varint(out, stats_.observes_shed);
  poet::put_varint(out, stats_.callback_errors);
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
