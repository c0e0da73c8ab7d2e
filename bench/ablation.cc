// Ablation — what each design choice buys (DESIGN.md §4).
//
//   full        GP/LS domain pruning + backjumping + history merging
//   no-prune    chronological candidate scans with post-hoc checks (the
//               paper's "not very efficient in practice" strawman)
//   no-jump     domain pruning but plain chronological backtracking
//   no-merge    pruning + jumping, but every occurrence kept in history
//
// Reported per configuration: per-terminating-event median/max, search
// nodes explored, and history size.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/patterns.h"
#include "bench_util.h"
#include "common/error.h"

using namespace ocep;
using namespace ocep::bench;

namespace {

struct Config {
  const char* name;
  MatcherConfig config;
};

std::vector<Config> configurations() {
  std::vector<Config> out;
  out.push_back({"full", MatcherConfig{}});
  MatcherConfig no_prune;
  no_prune.domain_pruning = false;
  out.push_back({"no-prune", no_prune});
  MatcherConfig no_jump;
  no_jump.backjumping = false;
  out.push_back({"no-jump", no_jump});
  MatcherConfig no_merge;
  no_merge.merge_redundant_history = false;
  out.push_back({"no-merge", no_merge});
  MatcherConfig neither;
  neither.domain_pruning = false;
  neither.backjumping = false;
  out.push_back({"no-prune-no-jump", neither});
  return out;
}

void run_case(const char* case_name,
              const std::vector<Workload>& workloads,
              const std::string& pattern_text, JsonReport& report) {
  for (const Config& config : configurations()) {
    Populations populations;
    MatchTotals totals;
    for (const Workload& w : workloads) {
      time_pattern(w.sim->store(), *w.pool, pattern_text, config.config,
                   populations, totals);
    }
    const metrics::Boxplot box = populations.searched.summarize();
    std::printf("%-10s %-18s %10.2f %10.2f %12" PRIu64 " %12" PRIu64
                " %12" PRIu64 "\n",
                case_name, config.name, box.median, box.max,
                totals.nodes_explored, totals.history_entries,
                totals.matches_reported);
    report.begin_row(std::string(case_name) + "/" + config.name);
    report.add("case", std::string(case_name));
    report.add("config", std::string(config.name));
    report.add_totals(totals);
    report.add_latency("searched", populations.searched);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    BenchParams params = parse_params(flags);
    const auto traces = static_cast<std::uint32_t>(
        flags.get_int("traces", 20));
    flags.check_unused();

    std::printf("# Ablation: per-terminating-event cost by matcher "
                "configuration (%u traces)\n", traces);
    std::printf("%-10s %-18s %10s %10s %12s %12s %12s\n", "case", "config",
                "med_us", "max_us", "nodes", "history", "matches");

    JsonReport report("ablation", params);
    {
      std::vector<Workload> workloads;
      for (std::uint32_t rep = 0; rep < params.reps; ++rep) {
        workloads.push_back(make_ordering_workload(traces, params.events,
                                                   params.seed + rep));
      }
      run_case("ordering", workloads, apps::ordering_pattern(), report);
    }
    {
      std::vector<Workload> workloads;
      for (std::uint32_t rep = 0; rep < params.reps; ++rep) {
        workloads.push_back(make_atomicity_workload(traces, params.events,
                                                    params.seed + rep));
      }
      run_case("atomicity", workloads, apps::atomicity_pattern(), report);
    }
    {
      std::vector<Workload> workloads;
      for (std::uint32_t rep = 0; rep < params.reps; ++rep) {
        workloads.push_back(make_deadlock_workload(traces, 4, params.events,
                                                   params.seed + rep));
      }
      run_case("deadlock", workloads, apps::deadlock_pattern(4), report);
    }
    report.write();
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "ablation: %s\n", error.what());
    return 1;
  }
}
