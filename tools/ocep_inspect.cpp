// ocep_inspect — summarize a recorded computation: traces, event kinds,
// message statistics, and a sampled concurrency profile.
//
//   ocep_inspect --dump FILE [--relate T1:I1 T2:I2]
//                [--metrics [--pattern TEXT] [--metrics-format FMT]]
//   ocep_inspect --store DIR [--compare DIR] [--spans]
//                [--health [--health-format text|json]
//                 [--budget-steps N] [--budget-ns N] [--breaker-trip K]
//                 [--breaker-window N] [--breaker-cooldown N]
//                 [--history-bytes N]]
//
// With --relate, prints the exact causal relationship between two events
// (the two-integer-comparison query of §III-A).  With --metrics, the
// computation is replayed through a metrics-enabled Monitor (matching
// --pattern when given) and the telemetry registry is printed in
// Prometheus text format (--metrics-format prom|json|text).  With
// --health, the replay additionally reports the governance snapshot
// (docs/GOVERNANCE.md) — breaker states, budget aborts, evictions — under
// the budget/breaker/byte-cap flags above (all unlimited by default).
// --history-bytes caps the replay Monitor's leaf histories as a whole, as
// ocep_served's flag of that name caps each tenant's.
//
// With --store, verifies a tenant store directory (a daemon's --store-dir
// root, or one shard-N log inside it) without touching it: per-tenant
// record counts (including spilled leaf-history span records, whose
// payloads are decode-verified), torn-tail report, and CRC/structure
// failures with positioned offsets.  Exit status 1 when any fatal
// corruption is found (a torn tail alone — the expected SIGKILL image —
// is healthy).  --spans additionally dumps every span record: its
// {pattern, leaf, trace, seq} fingerprint, entry count, and index range.
//
// With --store A --compare B, additionally byte-prefix-compares the two
// store roots (docs/ROBUSTNESS.md "Replication"): every segment present
// in both must agree on its common prefix — a replica is a prefix of its
// primary, so any mismatch is divergence (exit 1).  Segments or shards
// on only one side are lag/compaction skew and only noted.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/monitor.h"
#include "poet/dump.h"
#include "poet/linearizer.h"
#include "poet/replay.h"
#include "store/replication.h"
#include "store/segment_log.h"
#include "store/tenant_store.h"

using namespace ocep;

namespace {

EventId parse_event(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    throw Error("expected TRACE:INDEX, got '" + text + "'");
  }
  EventId id;
  id.trace = static_cast<TraceId>(std::stoul(text.substr(0, colon)));
  id.index = static_cast<EventIndex>(std::stoul(text.substr(colon + 1)));
  return id;
}

const char* relation_name(Relation relation) {
  switch (relation) {
    case Relation::kEqual: return "equal";
    case Relation::kBefore: return "happens-before";
    case Relation::kAfter: return "happens-after";
    case Relation::kConcurrent: return "concurrent";
  }
  return "?";
}

/// Verifies one segment-log directory; returns whether it is free of
/// fatal corruption.
bool inspect_store_log(const std::string& dir, bool dump_spans) {
  const store::VerifyReport report = store::verify_log(dir);
  std::printf("%s:\n", dir.c_str());
  std::printf("  segments %" PRIu64 "   records %" PRIu64
              "   record bytes %" PRIu64 "   torn tail bytes %" PRIu64 "\n",
              report.segments, report.records, report.record_bytes,
              report.torn_tail_bytes);
  for (const auto& [name, counts] : report.tenants) {
    std::printf("  tenant %-24s genesis %" PRIu64 "  bases %" PRIu64
                "  deltas %" PRIu64 "  tombstones %" PRIu64
                "  spans %" PRIu64 "  bytes %" PRIu64 "  epoch %" PRIu64 "\n",
                name.c_str(), counts.genesis, counts.bases, counts.deltas,
                counts.tombstones, counts.spans, counts.bytes,
                counts.last_epoch);
  }
  for (const store::VerifyIssue& issue : report.issues) {
    std::printf("  %s: %s at byte %" PRId64 ": %s\n",
                issue.fatal ? "CORRUPT" : "note", issue.file.c_str(),
                static_cast<std::int64_t>(issue.offset),
                issue.message.c_str());
  }
  if (report.issues.empty()) {
    std::printf("  clean\n");
  }
  if (dump_spans) {
    // A second, read-only pass in append order; records that fail CRC
    // were already reported above, so this scan only sees valid frames.
    try {
      store::LogConfig config;
      config.dir = dir;
      config.read_only = true;
      const store::SegmentLog log(
          std::move(config),
          [](const store::Record& record, const store::RecordRef& ref) {
            if (record.type != store::RecordType::kSpan) {
              return;
            }
            store::SpanPayload span;
            if (!store::decode_span_payload(record.payload, span)) {
              std::printf("  span %-24s seg %u offset %" PRIu64
                          "  (payload does not decode)\n",
                          record.name.c_str(), ref.segment, ref.offset);
              return;
            }
            const std::uint64_t first =
                span.entries.empty() ? 0 : span.entries.front().first;
            const std::uint64_t last =
                span.entries.empty() ? 0 : span.entries.back().first;
            std::printf("  span %-24s pattern %u  leaf %u  trace %" PRIu64
                        "  seq %" PRIu64 "  entries %zu  indices %" PRIu64
                        "..%" PRIu64 "  epoch %" PRIu64 "\n",
                        record.name.c_str(), span.key.pattern, span.key.leaf,
                        span.key.trace, span.key.seq, span.entries.size(),
                        first, last, record.epoch);
          });
    } catch (const Error& error) {
      std::printf("  span dump failed: %s\n", error.what());
    }
  }
  return report.ok();
}

/// --store DIR: a daemon store root (shard-N subdirectories) or a single
/// log directory.  Exit code 1 on any fatal finding.
int inspect_store(const std::string& root, bool dump_spans) {
  namespace fs = std::filesystem;
  std::vector<std::string> logs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      logs.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw Error("cannot read store directory '" + root + "'");
  }
  if (logs.empty()) {
    logs.push_back(root);  // a single shard log named directly
  }
  std::sort(logs.begin(), logs.end());
  bool ok = true;
  for (const std::string& dir : logs) {
    ok = inspect_store_log(dir, dump_spans) && ok;
  }
  std::printf("store %s: %s\n", root.c_str(), ok ? "OK" : "CORRUPT");
  return ok ? 0 : 1;
}

/// --store A --compare B: byte-prefix divergence check.
int compare_stores(const std::string& a, const std::string& b) {
  const store::CompareReport report = store::compare_store_dirs(a, b);
  std::printf("compare %s vs %s:\n", a.c_str(), b.c_str());
  std::printf("  logs %" PRIu64 "   segments %" PRIu64
              "   bytes compared %" PRIu64 "\n",
              report.logs, report.segments, report.bytes_compared);
  for (const store::CompareIssue& issue : report.issues) {
    std::printf("  DIVERGED %s: %s\n", issue.path.c_str(),
                issue.message.c_str());
  }
  std::printf("compare: %s\n", report.ok() ? "MATCH" : "DIVERGED");
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const std::string store_dir = flags.get_string("store", "");
    const std::string compare_dir = flags.get_string("compare", "");
    const bool dump_spans = flags.get_bool("spans", false);
    const std::string dump_path = flags.get_string("dump", "");
    const std::string relate_a = flags.get_string("relate", "");
    const std::string relate_b = flags.get_string("with", "");
    const bool metrics = flags.get_bool("metrics", false);
    const std::string pattern_text = flags.get_string("pattern", "");
    const std::string metrics_format =
        flags.get_string("metrics-format", "prom");
    const bool health = flags.get_bool("health", false);
    const std::string health_format =
        flags.get_string("health-format", "text");
    MatcherConfig matcher_config;
    matcher_config.budget.max_steps =
        static_cast<std::uint64_t>(flags.get_int("budget-steps", 0));
    matcher_config.budget.deadline_ns =
        static_cast<std::uint64_t>(flags.get_int("budget-ns", 0));
    matcher_config.breaker.trip_failures =
        static_cast<std::uint32_t>(flags.get_int("breaker-trip", 0));
    matcher_config.breaker.window_observes =
        static_cast<std::uint64_t>(flags.get_int("breaker-window", 1024));
    matcher_config.breaker.cooldown_observes =
        static_cast<std::uint64_t>(flags.get_int("breaker-cooldown", 256));
    const auto history_bytes =
        static_cast<std::size_t>(flags.get_int("history-bytes", 0));
    flags.check_unused();
    if (!compare_dir.empty()) {
      if (store_dir.empty()) {
        throw Error("--compare requires --store");
      }
      return compare_stores(store_dir, compare_dir);
    }
    if (!store_dir.empty()) {
      return inspect_store(store_dir, dump_spans);
    }
    if (dump_path.empty()) {
      throw Error("--dump FILE or --store DIR is required");
    }

    StringPool pool;
    std::ifstream in(dump_path, std::ios::binary);
    if (!in) {
      throw Error("cannot read '" + dump_path + "'");
    }
    const EventStore store = reload_store(in, pool);

    std::printf("traces: %zu   events: %zu   approx memory: %.1f MiB\n",
                store.trace_count(), store.event_count(),
                static_cast<double>(store.approx_bytes()) / (1024 * 1024));

    std::uint64_t kinds[4] = {0, 0, 0, 0};
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      for (EventIndex i = 1; i <= store.trace_size(t); ++i) {
        kinds[static_cast<int>(store.event(EventId{t, i}).kind)] += 1;
      }
    }
    std::printf("kinds: local %" PRIu64 "  send %" PRIu64 "  receive %"
                PRIu64 "  blocked_send %" PRIu64 "\n",
                kinds[0], kinds[1], kinds[2], kinds[3]);

    std::printf("%-12s %10s   first/last event types\n", "trace", "events");
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      const EventIndex size = store.trace_size(t);
      std::string first = "-", last = "-";
      if (size > 0) {
        first = pool.view(store.event(EventId{t, 1}).type);
        last = pool.view(store.event(EventId{t, size}).type);
      }
      std::printf("%-12s %10u   %s .. %s\n",
                  std::string(pool.view(store.trace_name(t))).c_str(), size,
                  first.c_str(), last.c_str());
      if (t >= 19 && store.trace_count() > 20) {
        std::printf("... (%zu more traces)\n", store.trace_count() - 20);
        break;
      }
    }

    // Sampled concurrency profile: how much genuine parallelism the
    // computation has.
    if (store.event_count() >= 2 && store.trace_count() >= 2) {
      Rng rng(12345);
      std::uint64_t concurrent = 0, total = 0;
      for (int i = 0; i < 10000; ++i) {
        const auto t1 = static_cast<TraceId>(rng.below(store.trace_count()));
        const auto t2 = static_cast<TraceId>(rng.below(store.trace_count()));
        if (store.trace_size(t1) == 0 || store.trace_size(t2) == 0 ||
            t1 == t2) {
          continue;
        }
        const EventId a{t1, static_cast<EventIndex>(
                                1 + rng.below(store.trace_size(t1)))};
        const EventId b{t2, static_cast<EventIndex>(
                                1 + rng.below(store.trace_size(t2)))};
        ++total;
        concurrent +=
            store.relate(a, b) == Relation::kConcurrent ? 1U : 0U;
      }
      if (total > 0) {
        std::printf("sampled cross-trace concurrency: %.1f%%\n",
                    100.0 * static_cast<double>(concurrent) /
                        static_cast<double>(total));
      }
    }

    if (!relate_a.empty() && !relate_b.empty()) {
      const EventId a = parse_event(relate_a);
      const EventId b = parse_event(relate_b);
      std::printf("(%u,%u) is %s (%u,%u)\n", a.trace, a.index,
                  relation_name(store.relate(a, b)), b.trace, b.index);
    }

    if (metrics || health) {
      // Replay the computation through a Monitor, going through a
      // Linearizer so delivery/ingest telemetry is populated too.
      MonitorConfig config;
      config.metrics = metrics;
      config.history_bytes_limit = history_bytes;
      Monitor monitor(pool, config, store.storage());
      if (!pattern_text.empty()) {
        monitor.add_pattern(pattern_text, matcher_config);
      }
      std::vector<Symbol> names;
      names.reserve(store.trace_count());
      for (TraceId t = 0; t < store.trace_count(); ++t) {
        names.push_back(store.trace_name(t));
      }
      monitor.on_traces(names);
      Linearizer linearizer(store.trace_count(), monitor);
      if (metrics) {
        linearizer.bind_metrics(monitor.metrics());
      }
      monitor.set_ingest_source(
          [&linearizer] { return linearizer.ingest_stats(); });
      for_each_linearized(store,
                          [&linearizer](const Event& event,
                                        const VectorClock& clock) {
                            linearizer.offer(event, clock);
                          });
      if (metrics) {
        std::string rendered;
        if (metrics_format == "json") {
          rendered = monitor.metrics().to_json();
        } else if (metrics_format == "text") {
          rendered = monitor.metrics().to_text();
        } else if (metrics_format == "prom") {
          rendered = monitor.metrics().to_prometheus();
        } else {
          throw Error("unknown --metrics-format '" + metrics_format +
                      "' (expected prom, json, or text)");
        }
        std::fputs(rendered.c_str(), stdout);
      }
      if (health) {
        const HealthReport report = monitor.health();
        if (health_format == "json") {
          std::string rendered = report.to_json();
          rendered += '\n';
          std::fputs(rendered.c_str(), stdout);
        } else if (health_format == "text") {
          std::fputs(report.to_text().c_str(), stdout);
        } else {
          throw Error("unknown --health-format '" + health_format +
                      "' (expected text or json)");
        }
      }
    }
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "ocep_inspect: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ocep_inspect: %s\n", error.what());
    return 1;
  }
}
