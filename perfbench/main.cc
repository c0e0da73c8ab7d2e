// ocep_perfbench: the repository benchmark's measuring program.  run.py
// builds and runs it; see README.md for the workloads and metrics.
//
//   ocep_perfbench --workload fig10|multi_pattern|serve_durable --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//                  [--trace-file FILE] [--source JSON]
//
// Prints a report line (provenance, work counts, populations, flags) and,
// last, the result line the benchmark contract defines.
#include <malloc.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer entries, in
// the same units (test_bench.py checks).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"events_per_s", "1/s"},
    {"term_p50_us", "us"},     {"ingest_p50_us", "us"},
    {"rss_peak_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"pattern.compile_us", "us"},
    {"core.search_us.deadlock.p50", "us"},
    {"core.search_us.deadlock.p99", "us"},
    {"core.search_us.deadlock.n", "count"},
    {"core.search_us.races.p50", "us"},
    {"core.search_us.races.p99", "us"},
    {"core.search_us.races.n", "count"},
    {"core.search_us.atomicity.p50", "us"},
    {"core.search_us.atomicity.p99", "us"},
    {"core.search_us.atomicity.n", "count"},
    {"core.search_us.ordering.p50", "us"},
    {"core.search_us.ordering.p99", "us"},
    {"core.search_us.ordering.n", "count"},
    {"core.on_event_ns", "ns"},
    {"core.on_event_ns.p99", "ns"},
    {"core.on_event_ns.n", "count"},
    {"core.events", "count"},
    {"core.searches", "count"},
    {"core.nodes_explored", "count"},
    {"core.backjumps", "count"},
    {"core.levels_entered", "count"},
    {"core.domain_prunes", "count"},
    {"core.pins_run", "count"},
    {"core.pins_skipped", "count"},
    {"core.matches_reported", "count"},
    {"core.nodes_per_search", "ratio"},
    {"core.matches_per_search", "ratio"},
    {"core.leaf_hits", "count"},
    {"core.leaf_hit_ratio", "ratio"},
    {"core.history_entries", "count"},
    {"core.history_merged", "count"},
    {"core.history_pruned", "count"},
    {"poet.append_ns", "ns"},
    {"poet.encode_ns_per_event", "ns"},
    {"poet.decode_ns_per_event", "ns"},
    {"store.appends", "count"},
    {"store.syncs", "count"},
    {"store.bytes_appended", "bytes"},
    {"store.delta_records", "count"},
    {"store.base_records", "count"},
    {"store.bytes_per_event", "bytes"},
    {"store.events_per_sync", "ratio"},
    {"store.scan_ms", "ms"},
    {"store.group_commit_ms", "ms"},
    {"net.handshake_us", "us"},
    {"net.write_blocked_ms", "ms"},
    {"net.fin_wait_us", "us"},
    {"net.daemon_cpu_us_per_event", "us"},
    {"net.ingest_p99_us", "us"},
    {"gen.late_p50_us", "us"},
    {"gen.late_p99_us", "us"},
    {"net.bytes_in_total", "bytes"},
    {"net.handshakes", "count"},
    {"net.conn_migrations", "count"},
    {"net.tenants_restored", "count"},
    {"net.events_restored", "count"},
    {"fail_ratio", "ratio"},
    {"overhead.setup_s", "s"},
    {"overhead.events_per_s", "1/s"},
    {"overhead.term_p50_us", "us"},
    {"overhead.ingest_p50_us", "us"},
    {"overhead.rss_peak_mb", "MB"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
  std::string source = "{}";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "ocep_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    if (key.substr(0, 2) != "--") {
      usage("unexpected argument " + std::string(key));
    }
    args[std::string(key.substr(2))] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    usage("every flag takes one value");
  }
  const auto take = [&args](const char* name, bool required) {
    const auto it = args.find(name);
    if (it == args.end()) {
      if (required) {
        usage(std::string("missing --") + name);
      }
      return std::string();
    }
    std::string value = it->second;
    args.erase(it);
    return value;
  };
  try {
    options.workload = take("workload", true);
    options.seed = std::stoull(take("seed", true));
    options.seconds = std::stod(take("seconds", true));
    options.trace = take("trace", true) == "1";
    options.work_dir = take("work-dir", true);
    options.trace_file = take("trace-file", false);
    const std::string source = take("source", false);
    if (!source.empty()) {
      options.source = source;
    }
  } catch (const std::logic_error&) {
    usage("malformed flag value");
  }
  if (!args.empty()) {
    usage("unknown flag --" + args.begin()->first);
  }
  if (options.seconds <= 0) {
    usage("--seconds must be positive");
  }
  return options;
}

/// Refuses builds whose timings mean nothing: unoptimised, assertion-on,
/// or sanitizer-instrumented.
void refuse_unfit_build() {
  const std::string type = OCEP_PERFBENCH_BUILD_TYPE;
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#ifndef NDEBUG
  sanitized = true;
#endif
  if (sanitized || (type != "Release" && type != "RelWithDebInfo")) {
    usage("refusing to measure a '" + type +
          "' build with assertions or sanitizers; configure "
          "CMAKE_BUILD_TYPE=Release");
  }
}

/// Keeps memory the program frees inside the process instead of handing it
/// back to the kernel.  Every round builds its system from fresh state, so
/// without this each round would page-fault its heap in again, and on a
/// virtual machine whose host reclaims the guest's free pages that cost
/// swings with the host's memory pressure, not with the program (README.md,
/// "Host noise").  A long-lived daemon reaches the same steady state.
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string provenance(const Options& options) {
  utsname uts{};
  ::uname(&uts);
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  return Json()
      .raw("source", options.source)
      .str("build_type", OCEP_PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .u64("seed", options.seed)
      .num("seconds", options.seconds)
      .u64("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .str("l2", read_first_line(cache + "index2/size"))
      .str("l3", read_first_line(cache + "index3/size"))
      .str("kernel", std::string(uts.sysname) + " " + uts.release)
      .str("work_dir_fs", fs_type(options.work_dir))
      .dump();
}

/// The CPU time of the whole guest so far, and the part of it the host
/// gave to others (steal), in clock ticks, from /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  in >> label;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) {
      return {};
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

/// Share of the guest's CPU time the host stole between two readings: a
/// sign of a busy host, reported next to each pass's figures.
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

std::string metrics_json(const std::vector<std::pair<Metric, double>>& values) {
  Json metrics;
  for (const auto& [metric, value] : values) {
    metrics.raw(metric.name,
                Json().num("value", value).str("unit", metric.unit).dump());
  }
  return metrics.dump();
}

std::string work_json(const std::map<std::string, std::uint64_t>& work) {
  Json out;
  for (const auto& [key, value] : work) {
    out.u64(key, value);
  }
  return out.dump();
}

std::string failures_json(const std::vector<std::string>& failures) {
  std::string out = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(failures[i]);
  }
  return out + "]";
}

std::vector<std::pair<Metric, double>> end_to_end(const EndToEnd& e) {
  const double values[] = {e.setup_s, e.events_per_s, e.term_p50_us,
                           e.ingest_p50_us, e.rss_peak_mb};
  std::vector<std::pair<Metric, double>> out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.emplace_back(kEndToEnd[i], values[i]);
  }
  return out;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "fig10") {
    workload = make_fig10(options.seed);
  } else if (options.workload == "multi_pattern") {
    workload = make_multi_pattern(options.seed);
  } else if (options.workload == "serve_durable") {
    workload = make_serve_durable(options.seed, options.work_dir);
  } else {
    usage("unknown workload '" + options.workload + "'");
  }

  Json report;
  report.str("workload", options.workload);
  report.raw("provenance", provenance(options));
  report.raw("inputs", workload->inputs().dump());
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<Metric, double>> metrics;

  Tracer untraced(false);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  CpuTicks ticks = cpu_ticks();
  Pass plain = workload->measure(budget, untraced);
  CpuTicks after = cpu_ticks();
  plain.notes.num("host_steal_share", steal_share(ticks, after));
  attempted += plain.attempted;
  failed += plain.failed;
  report.raw("work", work_json(plain.work));
  report.raw("notes", plain.notes.dump());
  report.raw("end_to_end", metrics_json(end_to_end(plain.e2e)));
  if (!options.trace) {
    metrics = end_to_end(plain.e2e);
    report.raw("failures", failures_json(plain.failures));
  } else {
    Tracer tracer(true);
    ticks = cpu_ticks();
    Pass traced = workload->measure(budget, tracer);
    after = cpu_ticks();
    traced.notes.num("host_steal_share", steal_share(ticks, after));
    attempted += traced.attempted;
    failed += traced.failed;
    if (traced.work != plain.work) {
      ++failed;
      traced.failures.push_back(
          "the traced pass did other work than the untraced pass");
    }
    std::vector<std::string> failures = plain.failures;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    report.raw("failures", failures_json(failures));
    report.raw("traced_end_to_end", metrics_json(end_to_end(traced.e2e)));
    report.raw("traced_notes", traced.notes.dump());
    report.raw("populations", traced.populations.dump());
    const auto plain_e2e = end_to_end(plain.e2e);
    const auto traced_e2e = end_to_end(traced.e2e);
    for (std::size_t i = 0; i < plain_e2e.size(); ++i) {
      traced.layer[std::string("overhead.") + plain_e2e[i].first.name] =
          traced_e2e[i].second - plain_e2e[i].second;
    }
    traced.layer["fail_ratio"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    for (const Metric& metric : kPerLayer) {
      const auto it = traced.layer.find(metric.name);
      metrics.emplace_back(metric,
                           it == traced.layer.end() ? 0.0 : it->second);
    }
    if (!options.trace_file.empty()) {
      tracer.write(options.trace_file);
      report.str("trace_file", options.trace_file);
      report.u64("spans", tracer.size());
    }
  }
  report.num("fail_ratio",
             static_cast<double>(failed) / static_cast<double>(attempted));

  std::printf("%s\n", Json().raw("report", report.dump()).dump().c_str());
  std::printf("%s\n", Json()
                          .boolean("correct", failed == 0)
                          .u64("attempted", attempted)
                          .u64("failed", failed)
                          .raw("metrics", metrics_json(metrics))
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  refuse_unfit_build();
  keep_freed_memory();
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ocep_perfbench: %s\n", error.what());
    return 1;
  }
}
