// Multi-pattern throughput — one Monitor, 1 to 16 registered patterns.
//
// Each row replays the same random computation through a Monitor holding
// the first N of sixteen two-leaf precedence patterns, times the replay,
// and reports events/second.  An event is offered only to the patterns
// whose leaves accept its type (core/dispatch.h), so the cost per event
// grows with the patterns that share its type, not with N alone.
// `--metrics` measures the telemetry layer's own cost.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "core/monitor.h"
#include "metrics/stopwatch.h"
#include "poet/replay.h"
#include "random_computation.h"

using namespace ocep;
using namespace ocep::bench;

namespace {

/// Sixteen two-leaf precedence patterns over the type alphabet A..D.
std::vector<std::string> make_patterns() {
  std::vector<std::string> patterns;
  for (char x = 'A'; x <= 'D'; ++x) {
    for (char y = 'A'; y <= 'D'; ++y) {
      std::string text;
      text += "P := ['', ";
      text += x;
      text += ", '']; Q := ['', ";
      text += y;
      text += ", ''];\npattern := P -> Q;\n";
      patterns.push_back(text);
    }
  }
  return patterns;
}

/// Seconds spent replaying `source` `reps` times through a Monitor holding
/// the first `pattern_count` patterns.
double run_config(const EventStore& source, StringPool& pool,
                  const std::vector<std::string>& patterns,
                  std::size_t pattern_count, std::uint32_t reps,
                  bool metrics) {
  double seconds = 0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    MonitorConfig config;
    config.metrics = metrics;
    Monitor monitor(pool, config, source.storage());
    for (std::size_t i = 0; i < pattern_count; ++i) {
      monitor.add_pattern(patterns[i]);
    }
    metrics::Stopwatch watch;
    replay(source, monitor);
    seconds += watch.elapsed_us() / 1e6;
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    BenchParams params = parse_params(flags);
    const auto traces =
        static_cast<std::uint32_t>(flags.get_int("traces", 8));
    // Measure the telemetry layer's own cost (off by default, like
    // MonitorConfig::metrics).
    const bool metrics = flags.get_bool("metrics", false);
    flags.check_unused();
    if (traces < 2) {
      // The generator needs a send peer; one trace would spin forever.
      std::fprintf(stderr, "pipeline: --traces must be >= 2\n");
      return 1;
    }

    StringPool pool;
    testing::RandomComputationOptions options;
    options.traces = traces;
    options.events = static_cast<std::uint32_t>(params.events);
    options.seed = params.seed;
    const EventStore source = testing::random_computation(pool, options);
    const std::vector<std::string> patterns = make_patterns();

    const std::vector<std::size_t> pattern_counts = {1, 2, 4, 8, 16};

    std::printf("# Multi-pattern throughput (random computation, %u traces, "
                "%" PRIu64 " events, %u reps)\n",
                traces, static_cast<std::uint64_t>(options.events),
                params.reps);
    std::printf("%-9s %14s\n", "patterns", "events/s");

    JsonReport report("pipeline", params);
    for (const std::size_t pattern_count : pattern_counts) {
      const double seconds = run_config(source, pool, patterns, pattern_count,
                                        params.reps, metrics);
      const double rate =
          static_cast<double>(options.events) * params.reps / seconds;
      std::printf("%-9zu %14.0f\n", pattern_count, rate);
      report.begin_row("patterns=" + std::to_string(pattern_count));
      report.add("patterns", static_cast<std::uint64_t>(pattern_count));
      report.add("events_per_sec", rate);
      report.add("seconds", seconds);
    }
    report.write();
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "pipeline: %s\n", error.what());
    return 1;
  }
}
