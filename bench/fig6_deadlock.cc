// Fig 6 — Execution time for deadlock detection vs number of traces.
//
// Parallel random walk with an injected send-receive cycle (§V-C.1); the
// monitor matches a cycle of pairwise-concurrent blocked sends of the
// configured length.  The paper sweeps 10 / 20 / 50 traces and observes
// millisecond-scale, heavy-tailed detection times — the backtracking is
// exponential in the pattern length, and the trace sweep grows with n.
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "apps/patterns.h"
#include "bench_util.h"
#include "common/error.h"

using namespace ocep;
using namespace ocep::bench;

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    BenchParams params = parse_params(flags);
    const auto cycle = static_cast<std::uint32_t>(
        flags.get_int("cycle", 4));
    std::vector<std::uint32_t> trace_counts;
    for (const std::int64_t t : {flags.get_int("traces1", 10),
                                 flags.get_int("traces2", 20),
                                 flags.get_int("traces3", 50)}) {
      trace_counts.push_back(static_cast<std::uint32_t>(t));
    }
    flags.check_unused();

    print_header("Fig 6: deadlock detection time (random walk, cycle "
                 "length " + std::to_string(cycle) + ")",
                 "traces", params);
    JsonReport report("fig6_deadlock", params);
    for (const std::uint32_t traces : trace_counts) {
      Populations populations;
      MatchTotals totals;
      std::uint64_t deadlocks_found = 0;
      for (std::uint32_t rep = 0; rep < params.reps; ++rep) {
        Workload w = make_deadlock_workload(traces, cycle, params.events,
                                            params.seed + rep);
        MatchTotals rep_totals;
        time_pattern(w.sim->store(), *w.pool, apps::deadlock_pattern(cycle),
                     MatcherConfig{}, populations, rep_totals);
        if (rep_totals.subset_size > 0) {
          ++deadlocks_found;
        }
        totals.events += rep_totals.events;
        totals.matches_reported += rep_totals.matches_reported;
        totals.searches += rep_totals.searches;
        totals.nodes_explored += rep_totals.nodes_explored;
        if (rep_totals.worst_searches > totals.worst_searches) {
          totals.worst_searches = rep_totals.worst_searches;
          totals.worst_pins_run = rep_totals.worst_pins_run;
          totals.worst_nodes = rep_totals.worst_nodes;
        }
        if (params.verbose) {
          std::printf("#   rep %u: events=%" PRIu64 " searches=%" PRIu64
                      " nodes=%" PRIu64 " matches=%" PRIu64 "\n",
                      rep, rep_totals.events, rep_totals.searches,
                      rep_totals.nodes_explored,
                      rep_totals.matches_reported);
        }
      }
      if (params.verbose) {
        std::printf("#   %u traces, worst arrival: searches=%" PRIu64
                    " pins_run=%" PRIu64 " nodes=%" PRIu64 "\n",
                    traces, totals.worst_searches, totals.worst_pins_run,
                    totals.worst_nodes);
      }
      print_row(std::to_string(traces), totals.events, populations.searched,
                totals.matches_reported);
      report.begin_row(std::to_string(traces));
      report.add("traces", static_cast<std::uint64_t>(traces));
      report.add("cycle", static_cast<std::uint64_t>(cycle));
      report.add("deadlocks_found", deadlocks_found);
      report.add_totals(totals);
      report.add("worst_searches", totals.worst_searches);
      report.add("worst_pins_run", totals.worst_pins_run);
      report.add("worst_nodes", totals.worst_nodes);
      report.add_latency("searched", populations.searched);
      report.add_latency("all", populations.all);
      if (deadlocks_found != params.reps) {
        std::printf("# WARNING: deadlock detected in %" PRIu64 "/%u runs\n",
                    deadlocks_found, params.reps);
      }
    }
    report.write();
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "fig6_deadlock: %s\n", error.what());
    return 1;
  }
}
