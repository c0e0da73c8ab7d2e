// Random partial-order computation generator for property-based tests.
//
// Generates a valid distributed computation directly (no simulator): at
// every step a random trace performs a random feasible action — a local
// event, a send to a random peer, or a receive of some in-flight message —
// with correctly maintained Fidge/Mattern clocks.  Event types and texts
// are drawn from small alphabets so patterns over them have plenty of
// matches.  Deterministic in the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_pool.h"
#include "poet/event_store.h"

namespace ocep::testing {

struct RandomComputationOptions {
  std::uint32_t traces = 4;
  std::uint32_t events = 200;
  std::uint64_t seed = 1;
  /// Relative weights of the three action kinds.
  std::uint32_t local_weight = 2;
  std::uint32_t send_weight = 2;
  std::uint32_t receive_weight = 2;
  /// Event types are drawn uniformly from {"A", "B", ...} of this size.
  std::uint32_t type_alphabet = 4;
  /// Timestamp backend of the produced store.
  ClockStorage storage = ClockStorage::kDense;
  /// Texts are drawn from {"", "x", "y", ...} of this size ("" = index 0).
  std::uint32_t text_alphabet = 3;
  /// Draws texts from {"", "T0", "T1", ...} — "" and the trace names —
  /// instead, so a variable can chain an event's text to another's
  /// process, as a deadlock cycle's blocked sends name their peers.
  bool trace_name_texts = false;
};

inline EventStore random_computation(StringPool& pool,
                                     const RandomComputationOptions& options) {
  Rng rng(options.seed);
  EventStore store(options.storage);
  std::vector<VectorClock> clocks;
  for (std::uint32_t t = 0; t < options.traces; ++t) {
    store.add_trace(pool.intern("T" + std::to_string(t)));
  }
  clocks.assign(options.traces, VectorClock(options.traces));

  std::vector<Symbol> types;
  for (std::uint32_t i = 0; i < options.type_alphabet; ++i) {
    types.push_back(pool.intern(std::string(1, static_cast<char>('A' + i))));
  }
  std::vector<Symbol> texts;
  texts.push_back(kEmptySymbol);
  if (options.trace_name_texts) {
    for (TraceId t = 0; t < options.traces; ++t) {
      texts.push_back(store.trace_name(t));
    }
  } else {
    for (std::uint32_t i = 1; i < options.text_alphabet; ++i) {
      texts.push_back(
          pool.intern(std::string(1, static_cast<char>('w' + i))));
    }
  }

  struct InFlight {
    TraceId to = 0;
    std::uint64_t message = 0;
    VectorClock clock;
  };
  std::vector<InFlight> in_flight;
  std::uint64_t next_message = 1;

  auto emit = [&](TraceId t, EventKind kind, std::uint64_t message,
                  const VectorClock* merge) {
    VectorClock& clock = clocks[t];
    if (merge != nullptr) {
      clock.merge(*merge);
    }
    clock.tick(t);
    Event event;
    event.id = EventId{t, clock[t]};
    event.kind = kind;
    event.type = types[rng.below(types.size())];
    event.text = texts[rng.below(texts.size())];
    event.message = message;
    store.append(event, clock);
  };

  for (std::uint32_t i = 0; i < options.events; ++i) {
    const auto t = static_cast<TraceId>(rng.below(options.traces));
    const std::uint32_t total = options.local_weight + options.send_weight +
                                options.receive_weight;
    std::uint64_t roll = rng.below(total);
    if (roll < options.local_weight) {
      emit(t, EventKind::kLocal, kNoMessage, nullptr);
      continue;
    }
    roll -= options.local_weight;
    if (roll < options.send_weight || options.traces < 2) {
      TraceId to = t;
      while (to == t) {
        to = static_cast<TraceId>(rng.below(options.traces));
      }
      const std::uint64_t message = next_message++;
      emit(t, EventKind::kSend, message, nullptr);
      in_flight.push_back(InFlight{to, message, clocks[t]});
      continue;
    }
    // Receive: pick a random in-flight message to this trace, else fall
    // back to a local event.
    std::vector<std::size_t> candidates;
    for (std::size_t k = 0; k < in_flight.size(); ++k) {
      if (in_flight[k].to == t) {
        candidates.push_back(k);
      }
    }
    if (candidates.empty()) {
      emit(t, EventKind::kLocal, kNoMessage, nullptr);
      continue;
    }
    const std::size_t pick = candidates[rng.below(candidates.size())];
    emit(t, EventKind::kReceive, in_flight[pick].message,
         &in_flight[pick].clock);
    in_flight.erase(in_flight.begin() +
                    static_cast<std::ptrdiff_t>(pick));
  }
  return store;
}

}  // namespace ocep::testing
