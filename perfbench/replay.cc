#include "replay.h"

#include <algorithm>
#include <limits>

#include "baseline/naive_matcher.h"
#include "poet/session.h"

namespace perfbench {

using namespace ocep;

void CoreCounts::add(const MatcherStats& stats) {
  events = std::max(events, stats.events_observed);
  leaf_hits += stats.leaf_hits;
  searches += stats.searches;
  matches_reported += stats.matches_reported;
  nodes_explored += stats.nodes_explored;
  backjumps += stats.backjumps;
  levels_entered += stats.levels_entered;
  domain_prunes += stats.domain_prunes;
  pins_run += stats.pins_run;
  pins_skipped += stats.pins_skipped;
  history_entries += stats.history_entries;
  history_merged += stats.history_merged;
  history_pruned += stats.history_pruned;
}

CoreCounts& CoreCounts::operator+=(const CoreCounts& other) {
  events += other.events;
  leaf_hits += other.leaf_hits;
  searches += other.searches;
  matches_reported += other.matches_reported;
  nodes_explored += other.nodes_explored;
  backjumps += other.backjumps;
  levels_entered += other.levels_entered;
  domain_prunes += other.domain_prunes;
  pins_run += other.pins_run;
  pins_skipped += other.pins_skipped;
  history_entries += other.history_entries;
  history_merged += other.history_merged;
  history_pruned += other.history_pruned;
  return *this;
}

void put_core_counts(std::map<std::string, double>& layer,
                     const CoreCounts& counts, std::uint64_t offered) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::pair<const char*, std::uint64_t> plain[] = {
      {"core.events", counts.events},
      {"core.searches", counts.searches},
      {"core.nodes_explored", counts.nodes_explored},
      {"core.backjumps", counts.backjumps},
      {"core.levels_entered", counts.levels_entered},
      {"core.domain_prunes", counts.domain_prunes},
      {"core.pins_run", counts.pins_run},
      {"core.pins_skipped", counts.pins_skipped},
      {"core.matches_reported", counts.matches_reported},
      {"core.leaf_hits", counts.leaf_hits},
      {"core.history_entries", counts.history_entries},
      {"core.history_merged", counts.history_merged},
      {"core.history_pruned", counts.history_pruned},
  };
  for (const auto& [name, value] : plain) {
    layer[name] = static_cast<double>(value);
  }
  layer["core.nodes_per_search"] =
      ratio(counts.nodes_explored, counts.searches);
  layer["core.matches_per_search"] =
      ratio(counts.matches_reported, counts.searches);
  layer["core.leaf_hit_ratio"] = ratio(counts.leaf_hits, offered);
}

Replayer::Replayer(StringPool& pool, const Stream& stream,
                   std::vector<std::string> patterns)
    : pool_(&pool), stream_(&stream), patterns_(std::move(patterns)) {
  all_.reserve(stream.events.size());
  searched_.reserve(stream.events.size());
}

namespace {

/// Set-ups timed per round (see Replayer::run).
constexpr std::size_t kSetups = 3;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
  return h;
}

double median(std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

RoundResult Replayer::run(const RoundCheck* check, bool time_compile,
                          std::string& error, Tracer* tracer,
                          std::uint32_t parent) {
  RoundResult result;
  std::uint64_t digest = 0;
  std::vector<std::vector<Match>> reported(patterns_.size());
  const bool collect = check != nullptr;

  // Set-up is timed kSetups times per round: the throwaway set-ups before
  // the real one run on warm caches, so the round's fastest set-up is
  // less at the mercy of what the previous round evicted.
  double fastest_setup = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < kSetups; ++k) {
    const std::int64_t start = now_ns();
    Monitor warm(*pool_);
    for (const std::string& source : patterns_) {
      warm.add_pattern(source);
    }
    warm.on_traces(stream_->traces);
    fastest_setup =
        std::min(fastest_setup, static_cast<double>(now_ns() - start));
  }
  const std::int64_t setup_start = now_ns();
  Monitor monitor(*pool_);
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    const std::int64_t start = time_compile ? now_ns() : 0;
    monitor.add_pattern(patterns_[i], MatcherConfig{},
                        [&digest, &reported, collect, i](const Match& match,
                                                         bool) {
                          digest = mix(digest, i);
                          for (const EventId id : match.bindings) {
                            digest = mix(digest, (std::uint64_t{id.trace}
                                                  << 32U) | id.index);
                          }
                          if (collect) {
                            reported[i].push_back(match);
                          }
                        });
    if (time_compile) {
      const std::int64_t end = now_ns();
      result.compile_ns.push_back(static_cast<double>(end - start));
      if (tracer != nullptr) {
        tracer->span("pattern.compile", start, end, parent);
      }
    }
  }
  monitor.on_traces(stream_->traces);
  const std::int64_t setup_end = now_ns();
  result.setup_ns =
      std::min(fastest_setup, static_cast<double>(setup_end - setup_start));
  if (tracer != nullptr) {
    tracer->span("monitor.setup", setup_start, setup_end, parent);
  }

  std::vector<const MatcherStats*> stats;
  for (std::size_t i = 0; i < monitor.pattern_count(); ++i) {
    stats.push_back(&monitor.matcher(i).stats());
  }
  all_.clear();
  searched_.clear();
  std::uint64_t searches = 0;
  std::int64_t inside = 0;
  const std::size_t n = stream_->events.size();
  for (std::size_t e = 0; e < n; ++e) {
    const std::int64_t start = now_ns();
    monitor.on_event(stream_->events[e], stream_->clocks[e]);
    const std::int64_t took = now_ns() - start;
    inside += took;
    all_.push_back(static_cast<double>(took));
    std::uint64_t now_searches = 0;
    for (const MatcherStats* s : stats) {
      now_searches += s->searches;
    }
    if (now_searches != searches) {
      searches = now_searches;
      searched_.push_back(static_cast<double>(took));
    }
  }
  if (tracer != nullptr) {
    tracer->span("core.on_event_loop", setup_end, now_ns(), parent);
  }
  result.on_event_ns = static_cast<double>(inside);
  result.digest = digest;
  for (const MatcherStats* s : stats) {
    result.counts.add(*s);
  }
  {
    std::vector<double> scratch = all_;
    result.all_p50_ns = median(scratch);
    scratch = searched_;
    result.searched_p50_ns = median(scratch);
  }

  if (collect) {
    for (std::size_t i = 0; i < patterns_.size() && error.empty(); ++i) {
      const pattern::CompiledPattern& compiled = monitor.matcher(i).pattern();
      for (const Match& match : reported[i]) {
        if (!baseline::is_valid_match(monitor.store(), compiled, match)) {
          error = "pattern " + std::to_string(i) +
                  " reported a match that violates it";
          break;
        }
      }
    }
    if (error.empty()) {
      error = (*check)(monitor, reported);
    }
  }
  return result;
}

namespace {

class MemorySink final : public ByteSink {
 public:
  void write(std::string_view bytes) override { data.append(bytes); }
  std::string data;
};

class CountingSink final : public EventSink {
 public:
  void on_event(const Event&, const VectorClock&) override { ++events; }
  std::uint64_t events = 0;
};

class CountingTransport final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest&) override { ++requests; }
  std::uint64_t requests = 0;
};

}  // namespace

PoetCost poet_cost(const StringPool& pool, const Stream& stream,
                   std::string& error) {
  PoetCost cost;
  const std::size_t n = stream.events.size();
  const double per = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  {
    EventStore store;
    for (const Symbol name : stream.traces) {
      store.add_trace(name);
    }
    const std::int64_t start = now_ns();
    for (std::size_t e = 0; e < n; ++e) {
      store.append(stream.events[e], stream.clocks[e]);
    }
    cost.append_ns = static_cast<double>(now_ns() - start) * per;
  }
  MemorySink wire;
  {
    const std::int64_t start = now_ns();
    SessionServer server(wire, pool, stream.traces);
    for (std::size_t e = 0; e < n; ++e) {
      server.write(stream.events[e], stream.clocks[e]);
    }
    server.finish();
    cost.encode_ns = static_cast<double>(now_ns() - start) * per;
  }
  {
    constexpr std::size_t kChunk = std::size_t{64} << 10U;
    StringPool scratch;
    CountingSink sink;
    CountingTransport transport;
    const std::string_view bytes = wire.data;
    const std::int64_t start = now_ns();
    SessionClient client(sink, scratch, transport);
    for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
      client.feed(bytes.substr(at, kChunk));
    }
    cost.decode_ns = static_cast<double>(now_ns() - start) * per;
    if (sink.events != n || transport.requests != 0 || !client.done()) {
      error = "session decode released " + std::to_string(sink.events) +
              " of " + std::to_string(n) + " events";
    }
  }
  return cost;
}

}  // namespace perfbench
