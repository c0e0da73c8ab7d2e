#include "inputs.h"

#include <algorithm>
#include <stdexcept>

#include "apps/patterns.h"
#include "baseline/race_checker.h"
#include "random_computation.h"

namespace perfbench {

using namespace ocep;

Stream linearize(const EventStore& store) {
  Stream out;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    out.traces.push_back(store.trace_name(t));
  }
  out.events.reserve(store.event_count());
  out.clocks.reserve(store.event_count());
  for (const EventId id : store.arrival_order()) {
    out.events.push_back(store.event(id));
    out.clocks.push_back(store.clock(id));
  }
  return out;
}

std::uint64_t digest(const StringPool& pool, const Stream& stream) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((value >> (8 * byte)) & 0xffU)) * 1099511628211ULL;
    }
  };
  const auto mix_symbol = [&](Symbol symbol) {
    for (const char c : pool.view(symbol)) {
      mix(static_cast<unsigned char>(c));
    }
    mix(0x100);
  };
  for (const Symbol name : stream.traces) {
    mix_symbol(name);
  }
  for (std::size_t e = 0; e < stream.events.size(); ++e) {
    const Event& event = stream.events[e];
    mix((std::uint64_t{event.id.trace} << 32U) | event.id.index);
    mix(static_cast<std::uint64_t>(event.kind));
    mix_symbol(event.type);
    mix_symbol(event.text);
    mix(event.message);
    const VectorClock& clock = stream.clocks[e];
    for (TraceId t = 0; t < clock.size(); ++t) {
      mix(clock[t]);
    }
  }
  return hash;
}

Stream random_computation(StringPool& pool, std::uint32_t traces,
                          std::uint32_t events, std::uint64_t seed) {
  testing::RandomComputationOptions options;
  options.traces = traces;
  options.events = events;
  options.seed = seed;
  return linearize(testing::random_computation(pool, options));
}

namespace {

void expect_end(const CaseStudy& study, sim::EndReason want) {
  if (study.generated.run.reason != want) {
    throw std::runtime_error(
        study.name + ": the simulation ended " +
        std::to_string(static_cast<int>(study.generated.run.reason)) +
        ", not " + std::to_string(static_cast<int>(want)) +
        " (0 completed, 1 quiescent, 2 event cap)");
  }
}

/// True when some other trace's `type` event is concurrent with `id`.
bool has_concurrent_peer(const EventStore& store, Symbol type, EventId id) {
  for (const EventId other : store.arrival_order()) {
    if (other.trace != id.trace && store.event(other).type == type &&
        store.relate(id, other) == Relation::kConcurrent) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<CaseStudy> fig10_cases(std::uint64_t target_events,
                                   std::uint64_t seed) {
  constexpr std::uint32_t kTraces = 50;
  constexpr std::uint32_t kOrderingTraces = 500;
  std::vector<CaseStudy> cases(4);

  {
    CaseStudy& c = cases[0];
    c.name = "deadlock";
    c.pattern = apps::deadlock_pattern(4);
    c.generated = bench::make_deadlock_workload(kTraces, 4, target_events, seed);
    expect_end(c, sim::EndReason::kQuiescent);
    c.deadlock_cycle = c.generated.walk.cycle;
  }
  {
    CaseStudy& c = cases[1];
    c.name = "races";
    c.pattern = apps::race_pattern();
    c.generated = bench::make_race_workload(kTraces, target_events, seed + 1);
    expect_end(c, sim::EndReason::kCompleted);
    const EventStore& store = c.generated.sim->store();
    baseline::RaceChecker checker(
        store,
        [&c](const baseline::RaceChecker::Race& race) {
          c.racing_receives.insert(race.second_receive.index);
        },
        /*keep_pairs=*/false);
    for (const EventId id : store.arrival_order()) {
      checker.observe(store.event(id));
    }
  }
  {
    CaseStudy& c = cases[2];
    c.name = "atomicity";
    c.pattern = apps::atomicity_pattern();
    c.generated =
        bench::make_atomicity_workload(kTraces, target_events, seed + 2);
    expect_end(c, sim::EndReason::kCompleted);
    // A skipped acquire is a violation the pattern (E1 || E2) can witness
    // only if its section entry is concurrent with another worker's.  The
    // workers' periodic pings can order an entry after every other one:
    // when the last iteration pings, the chain of pings from worker to
    // worker puts the last workers' final sections after nearly all
    // others.
    const EventStore& store = c.generated.sim->store();
    Symbol enter{};
    if (!c.generated.pool->lookup("cs_enter", enter)) {
      throw std::runtime_error("atomicity: no cs_enter events");
    }
    for (const apps::AtomicityInjection& injection :
         *c.generated.atomicity.injections) {
      if (has_concurrent_peer(store, enter, injection.enter_event)) {
        c.skipped_enters.insert(injection.enter_event);
      } else {
        ++c.unmatchable_skips;
      }
    }
  }
  {
    CaseStudy& c = cases[3];
    c.name = "ordering";
    c.pattern = apps::ordering_pattern();
    c.generated = bench::make_ordering_workload(kOrderingTraces,
                                                target_events, seed + 3);
    expect_end(c, sim::EndReason::kCompleted);
    for (const apps::OrderingInjection& injection :
         *c.generated.ordering.injections) {
      c.stale_forwards.emplace(injection.snapshot_event,
                               injection.update_event,
                               injection.forward_event);
    }
  }
  for (CaseStudy& c : cases) {
    c.stream = linearize(c.generated.sim->store());
  }
  return cases;
}

std::string missing_violations(const CaseStudy& study, const EventStore& store,
                               const std::vector<Match>& reported) {
  if (study.name == "deadlock") {
    const std::set<TraceId> cycle(study.deadlock_cycle.begin(),
                                  study.deadlock_cycle.end());
    for (const Match& match : reported) {
      std::set<TraceId> members;
      for (const EventId id : match.bindings) {
        members.insert(id.trace);
      }
      if (members == cycle) {
        return {};
      }
    }
    return "the injected deadlock cycle was not reported";
  }
  if (study.name == "races") {
    std::set<EventIndex> detected;
    for (const Match& match : reported) {
      detected.insert(
          std::max(match.bindings[2].index, match.bindings[3].index));
    }
    for (const EventIndex receive : study.racing_receives) {
      if (!detected.contains(receive)) {
        return "racing receive " + std::to_string(receive) + " not reported";
      }
    }
    return {};
  }
  if (study.name == "atomicity") {
    std::set<EventId> matched;
    for (const Match& match : reported) {
      if (store.relate(match.bindings[0], match.bindings[1]) ==
          Relation::kConcurrent) {
        matched.insert(match.bindings[0]);
        matched.insert(match.bindings[1]);
      }
    }
    for (const EventId enter : study.skipped_enters) {
      if (!matched.contains(enter)) {
        return "skipped acquire on trace " + std::to_string(enter.trace) +
               " not reported";
      }
    }
    return {};
  }
  std::set<std::tuple<EventId, EventId, EventId>> detected;
  for (const Match& match : reported) {
    detected.emplace(match.bindings[1], match.bindings[2], match.bindings[3]);
  }
  for (const auto& triple : study.stale_forwards) {
    if (!detected.contains(triple)) {
      return "stale forward to trace " +
             std::to_string(std::get<2>(triple).trace) + " not reported";
    }
  }
  return {};
}

}  // namespace perfbench
