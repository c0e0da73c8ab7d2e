#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "apps/patterns.h"
#include "common/assert.h"
#include "common/error.h"
#include "metrics/stopwatch.h"

namespace ocep::bench {

BenchParams parse_params(Flags& flags) {
  BenchParams params;
  if (flags.get_bool("full", false)) {
    params.events = 1000000;  // the paper's methodology
    params.reps = 5;
  }
  params.events = static_cast<std::uint64_t>(
      flags.get_int("events", static_cast<std::int64_t>(params.events)));
  params.reps = static_cast<std::uint32_t>(
      flags.get_int("reps", params.reps));
  params.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  params.verbose = flags.get_bool("verbose", false);
  params.json_path = flags.get_string("json", "");
  return params;
}

namespace {

sim::SimConfig sim_config(std::uint64_t seed, std::uint64_t max_events) {
  sim::SimConfig config;
  config.seed = seed;
  config.channel_capacity = 2;
  // Cap well above the target so runs normally end by themselves; the cap
  // only backstops mis-sized workloads.
  config.max_events = max_events * 2;
  return config;
}

}  // namespace

Workload make_deadlock_workload(std::uint32_t traces,
                                std::uint32_t cycle_length,
                                std::uint64_t target_events,
                                std::uint64_t seed) {
  Workload w;
  w.pool = std::make_unique<StringPool>();
  w.sim = std::make_unique<sim::Sim>(*w.pool,
                                     sim_config(seed, target_events));
  apps::RandomWalkParams params;
  params.processes = traces;
  params.cycle_length = cycle_length;
  // ~9 events per process per step; the run quiesces shortly after the
  // cycle group deadlocks at steps / 2.
  params.steps = std::max<std::uint64_t>(
      8, 2 * target_events / (static_cast<std::uint64_t>(traces) * 9));
  w.walk = apps::setup_random_walk(*w.sim, params);
  w.run = w.sim->run();
  return w;
}

Workload make_race_workload(std::uint32_t traces,
                            std::uint64_t target_events, std::uint64_t seed) {
  Workload w;
  w.pool = std::make_unique<StringPool>();
  w.sim = std::make_unique<sim::Sim>(*w.pool,
                                     sim_config(seed, target_events));
  apps::RaceParams params;
  params.traces = traces;
  // ~2.3 events per message (send + receive + occasional token pair).
  params.messages_each = std::max<std::uint64_t>(
      4, (10 * target_events) / (23 * (traces - 1)));
  w.race = apps::setup_race_bench(*w.sim, params);
  w.run = w.sim->run();
  return w;
}

Workload make_atomicity_workload(std::uint32_t traces,
                                 std::uint64_t target_events,
                                 std::uint64_t seed) {
  Workload w;
  w.pool = std::make_unique<StringPool>();
  w.sim = std::make_unique<sim::Sim>(*w.pool,
                                     sim_config(seed, target_events));
  apps::AtomicityParams params;
  params.workers = traces - 1;  // the semaphore is its own trace
  // ~8.3 events per iteration: enter/exit + 6 semaphore events + pings.
  params.iterations = std::max<std::uint64_t>(
      4, (10 * target_events) / (83 * params.workers));
  w.atomicity = apps::setup_atomicity(*w.sim, params);
  w.run = w.sim->run();
  return w;
}

Workload make_ordering_workload(std::uint32_t traces,
                                std::uint64_t target_events,
                                std::uint64_t seed) {
  Workload w;
  w.pool = std::make_unique<StringPool>();
  w.sim = std::make_unique<sim::Sim>(*w.pool,
                                     sim_config(seed, target_events));
  apps::OrderingParams params;
  params.followers = traces - 1;  // plus the leader
  // ~6.3 events per request (synch send/recv, snapshot, occasional
  // updates, forward send/recv).
  params.requests_each = std::max<std::uint64_t>(
      2, (10 * target_events) / (63 * params.followers));
  w.ordering = apps::setup_leader_follower(*w.sim, params);
  w.run = w.sim->run();
  return w;
}

void time_pattern(const EventStore& store, StringPool& pool,
                  const std::string& pattern_text, MatcherConfig config,
                  Populations& populations, MatchTotals& totals) {
  pattern::CompiledPattern compiled = pattern::compile(pattern_text, pool);
  OcepMatcher matcher(store, std::move(compiled), config);

  std::uint64_t last_hits = 0;
  MatcherStats last;
  MatcherStats worst;  // the worst arrival's deltas
  metrics::Stopwatch watch;
  for (const EventId id : store.arrival_order()) {
    const Event& event = store.event(id);
    watch.restart();
    matcher.observe(event);
    const double us = watch.elapsed_us();
    populations.all.add(us);
    const MatcherStats& stats = matcher.stats();
    if (stats.leaf_hits != last_hits) {
      last_hits = stats.leaf_hits;
      populations.hits.add(us);
    }
    if (stats.searches != last.searches) {
      populations.searched.add(us);
      if (stats.searches - last.searches > worst.searches) {
        worst.searches = stats.searches - last.searches;
        worst.pins_run = stats.pins_run - last.pins_run;
        worst.nodes_explored = stats.nodes_explored - last.nodes_explored;
      }
      last = stats;
    }
  }
  if (worst.searches > totals.worst_searches) {
    totals.worst_searches = worst.searches;
    totals.worst_pins_run = worst.pins_run;
    totals.worst_nodes = worst.nodes_explored;
  }
  const MatcherStats& stats = matcher.stats();
  totals.events += stats.events_observed;
  totals.matches_reported += stats.matches_reported;
  totals.subset_size += matcher.subset().matches().size();
  totals.searches += stats.searches;
  totals.nodes_explored += stats.nodes_explored;
  totals.backjumps += stats.backjumps;
  totals.history_entries += stats.history_entries;
  totals.history_merged += stats.history_merged;
}

void print_header(const std::string& title, const std::string& label_name,
                  const BenchParams& params) {
  std::printf("# %s\n", title.c_str());
  std::printf("# population: terminating (pattern-relevant) events; "
              "reps=%u, target events/run=%" PRIu64 "\n",
              params.reps, params.events);
  std::printf("%-10s %12s %10s %10s %10s %10s %12s %10s %10s\n",
              label_name.c_str(), "events", "samples", "Q1_us", "median_us",
              "Q3_us", "topwhisk_us", "max_us", "matches");
}

void print_row(const std::string& label, std::uint64_t events,
               metrics::LatencyRecorder& recorder, std::uint64_t matches) {
  const metrics::Boxplot box = recorder.summarize();
  std::printf("%-10s %12" PRIu64 " %10zu %10.2f %10.2f %10.2f %12.2f "
              "%10.2f %10" PRIu64 "\n",
              label.c_str(), events, box.count, box.q1, box.median, box.q3,
              box.top_whisker, box.max, matches);
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// Nearest-rank quantile over an ascending-sorted sample vector.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank < sorted.size() ? rank : sorted.size() - 1];
}

}  // namespace

JsonReport::JsonReport(std::string bench, const BenchParams& params)
    : bench_(std::move(bench)), path_(params.json_path) {
  params_json_ = "{\"events\": " + std::to_string(params.events) +
                 ", \"reps\": " + std::to_string(params.reps) +
                 ", \"seed\": " + std::to_string(params.seed) + "}";
}

void JsonReport::begin_row(const std::string& label) {
  if (path_.empty()) {
    return;
  }
  if (row_open_) {
    rows_.push_back(current_ + "}");
  }
  current_ = "{\"label\": \"" + json_escape(label) + "\"";
  row_open_ = true;
}

void JsonReport::field_sep() { current_ += ", "; }

void JsonReport::add(const std::string& key, std::uint64_t value) {
  if (!row_open_) {
    return;
  }
  field_sep();
  current_ += "\"" + json_escape(key) + "\": " + std::to_string(value);
}

void JsonReport::add(const std::string& key, std::int64_t value) {
  if (!row_open_) {
    return;
  }
  field_sep();
  current_ += "\"" + json_escape(key) + "\": " + std::to_string(value);
}

void JsonReport::add(const std::string& key, double value) {
  if (!row_open_) {
    return;
  }
  field_sep();
  current_ += "\"" + json_escape(key) + "\": " + json_double(value);
}

void JsonReport::add(const std::string& key, const std::string& value) {
  if (!row_open_) {
    return;
  }
  field_sep();
  current_ +=
      "\"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
}

void JsonReport::add_latency(const std::string& prefix,
                             metrics::LatencyRecorder& recorder) {
  if (!row_open_) {
    return;
  }
  const metrics::Boxplot box = recorder.summarize();  // sorts in place
  const std::vector<double>& sorted = recorder.samples();
  add(prefix + "_samples", static_cast<std::uint64_t>(box.count));
  add(prefix + "_p50_us", box.median);
  add(prefix + "_p95_us", sorted_quantile(sorted, 0.95));
  add(prefix + "_p99_us", sorted_quantile(sorted, 0.99));
  add(prefix + "_q1_us", box.q1);
  add(prefix + "_q3_us", box.q3);
  add(prefix + "_top_whisker_us", box.top_whisker);
  add(prefix + "_mean_us", box.mean);
  add(prefix + "_max_us", box.max);
}

void JsonReport::add_totals(const MatchTotals& totals) {
  if (!row_open_) {
    return;
  }
  add("events", totals.events);
  add("matches", totals.matches_reported);
  add("subset_size", totals.subset_size);
  add("searches", totals.searches);
  add("nodes_explored", totals.nodes_explored);
  add("backjumps", totals.backjumps);
  add("history_entries", totals.history_entries);
  add("history_merged", totals.history_merged);
}

bool JsonReport::write() {
  if (path_.empty()) {
    return false;
  }
  if (row_open_) {
    rows_.push_back(current_ + "}");
    row_open_ = false;
    current_.clear();
  }
  // Schema header first, so a reader can detect format drift before
  // interpreting any row.  The git revision comes from the environment
  // (OCEP_GIT_SHA); "unknown" when unset.
  const char* sha = std::getenv("OCEP_GIT_SHA");
  std::string doc = "{\n  \"schema\": \"ocep-bench-v1\",\n  \"bench\": \"" +
                    json_escape(bench_) + "\",\n  \"git\": \"" +
                    json_escape(sha != nullptr ? sha : "unknown") + "\",\n" +
                    "  \"params\": " + params_json_ + ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    doc += i == 0 ? "\n    " : ",\n    ";
    doc += rows_[i];
  }
  doc += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    throw Error("cannot write '" + path_ + "'");
  }
  std::fwrite(doc.data(), 1, doc.size(), out);
  std::fclose(out);
  return true;
}

}  // namespace ocep::bench
