// ocep_chaos — replay a recorded computation through the lossy session
// stack under seeded fault injection and check the outcome against a
// clean-channel run.
//
//   ocep_chaos --dump FILE (--pattern FILE | --pattern-text 'SRC')
//              [--seed N] [--drop N] [--dup N] [--reorder N] [--bitflip N]
//              [--truncate N] [--disconnect-every N] [--disconnect-burst N]
//              [--feed-chunk N] [--quiet]
//
// Fault rates are per-frame, in parts per thousand.  Exit status: 0 when
// the faulty run recovered (identical matches) or degraded consistently
// (a reported subset of the clean matches); 2 on silent divergence or a
// livelocked client; 1 on usage/input errors.
//
// Live mode: `--serve HOST:PORT --tenant NAME` injects the same faults
// into a real TCP stream feeding a running ocep_served daemon; the
// verdict then comes from the server's FIN (clean vs degraded).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "net/client.h"
#include "poet/dump.h"
#include "testing/chaos_harness.h"

using namespace ocep;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::pair<std::string, std::uint16_t> split_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    throw Error("--serve expects HOST:PORT, got '" + spec + "'");
  }
  const int port = std::stoi(spec.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw Error("--serve port out of range in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Streams `source` to a live daemon through a FaultyChannel, answering
/// resyncs over the reverse channel.  Returns the process exit status.
int run_serve(const EventStore& source, const StringPool& pool,
              const std::string& serve, const std::string& tenant,
              const std::string& pattern_text,
              const testing::FaultSpec& faults) {
  net::ConnectorConfig config;
  std::tie(config.host, config.port) = split_endpoint(serve);
  config.tenant = tenant;
  if (!pattern_text.empty()) {
    config.patterns.push_back(pattern_text);
  }
  net::Connector connector(config);
  if (connector.ack().status == net::AckStatus::kRejected) {
    throw Error("server rejected the handshake: " + connector.ack().message);
  }
  testing::FaultyChannel channel(connector, faults);
  std::vector<Symbol> names;
  for (TraceId t = 0; t < source.trace_count(); ++t) {
    names.push_back(source.trace_name(t));
  }
  SessionServer session(channel, pool, names);
  const std::uint64_t total = source.event_count();
  for (std::uint64_t pos = 0; pos < total; ++pos) {
    const EventId id = source.arrival(pos);
    session.write(source.event(id), source.clock(id));
    if ((pos + 1) % 32 == 0) {
      connector.poll_reverse(&session, 0);
    }
  }
  session.finish();
  channel.flush();
  // The forward direction stays open while waiting: a dropped BYE (or any
  // tail loss the injector caused) is recovered by a server resync whose
  // snapshot answer travels forward.
  const bool fin = connector.wait_fin(&session, 30000);
  std::printf("events: %" PRIu64 "   faults injected: %" PRIu64
              "   resyncs answered: %" PRIu64 "\n",
              total, channel.stats().faults(), connector.resyncs_answered());
  if (!fin) {
    std::printf("FAIL: no FIN from the server\n");
    return 2;
  }
  if (connector.fin().degraded) {
    std::printf("OK: server reported a degraded (but consistent) stream%s%s\n",
                connector.fin().message.empty() ? "" : ": ",
                connector.fin().message.c_str());
  } else {
    std::printf("OK: server recovered a clean stream\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const std::string dump_path = flags.get_string("dump", "");
    const std::string pattern_path = flags.get_string("pattern", "");
    std::string pattern_text = flags.get_string("pattern-text", "");

    testing::ChaosOptions options;
    testing::FaultSpec& faults = options.faults;
    faults.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    faults.drop_per_1000 =
        static_cast<std::uint32_t>(flags.get_int("drop", 0));
    faults.duplicate_per_1000 =
        static_cast<std::uint32_t>(flags.get_int("dup", 0));
    faults.reorder_per_1000 =
        static_cast<std::uint32_t>(flags.get_int("reorder", 0));
    faults.bitflip_per_1000 =
        static_cast<std::uint32_t>(flags.get_int("bitflip", 0));
    faults.truncate_per_1000 =
        static_cast<std::uint32_t>(flags.get_int("truncate", 0));
    faults.disconnect_every =
        static_cast<std::uint32_t>(flags.get_int("disconnect-every", 0));
    faults.disconnect_burst =
        static_cast<std::uint32_t>(flags.get_int("disconnect-burst", 16));
    options.feed_chunk =
        static_cast<std::size_t>(flags.get_int("feed-chunk", 0));
    const bool quiet = flags.get_bool("quiet", false);
    const std::string serve = flags.get_string("serve", "");
    const std::string tenant = flags.get_string("tenant", "chaos");
    flags.check_unused();

    if (dump_path.empty()) {
      throw Error("--dump FILE is required");
    }
    if (pattern_text.empty()) {
      if (pattern_path.empty()) {
        throw Error("one of --pattern FILE or --pattern-text is required");
      }
      pattern_text = read_file(pattern_path);
    }

    StringPool pool;
    std::ifstream in(dump_path, std::ios::binary);
    if (!in) {
      throw Error("cannot read '" + dump_path + "'");
    }
    const EventStore source = reload_store(in, pool);

    if (!serve.empty()) {
      return run_serve(source, pool, serve, tenant, pattern_text, faults);
    }

    const std::vector<std::string> clean =
        testing::clean_matches(source, pool, pattern_text);
    const testing::ChaosResult result =
        testing::run_chaos(source, pool, pattern_text, options);

    const IngestStats& ingest = result.ingest;
    std::printf("events: %" PRIu64 "/%" PRIu64
                "   faults injected: %" PRIu64 "   done: %s   degraded: %s\n",
                result.events_delivered, source.event_count(),
                result.faults.faults(), result.done ? "yes" : "no",
                result.degraded ? "yes" : "no");
    std::printf("frames: corrupt %" PRIu64 "  gap %" PRIu64
                "  skipped bytes %" PRIu64 "\n",
                ingest.frames_corrupt, ingest.frames_gap,
                ingest.bytes_skipped);
    std::printf("recovery: resyncs %" PRIu64 " (failed %" PRIu64
                ")  snapshots %" PRIu64 "  recoveries %" PRIu64
                "  ticks-to-recover %" PRIu64 "\n",
                ingest.resyncs, ingest.resync_failures, ingest.snapshots,
                ingest.recoveries, ingest.recovery_ticks);
    std::printf("linearizer: duplicates %" PRIu64 "  sheds %" PRIu64 "\n",
                ingest.duplicates, ingest.sheds);
    std::printf("matches: clean %zu  faulty %zu\n", clean.size(),
                result.matches.size());
    if (!quiet) {
      for (const std::string& sig : result.matches) {
        const bool in_clean = testing::is_subset_of({sig}, clean);
        std::printf("  %s %s\n", in_clean ? " " : "!", sig.c_str());
      }
    }

    if (!result.done) {
      std::printf("FAIL: client never reached a terminal state\n");
      return 2;
    }
    if (result.matches == clean) {
      std::printf("OK: match set identical to the clean run\n");
      return 0;
    }
    if (result.degraded && testing::is_subset_of(result.matches, clean)) {
      std::printf("OK: degraded run reported a consistent subset "
                  "(%zu of %zu matches)\n",
                  result.matches.size(), clean.size());
      return 0;
    }
    std::printf("FAIL: silent divergence from the clean run\n");
    return 2;
  } catch (const Error& error) {
    std::fprintf(stderr, "ocep_chaos: %s\n", error.what());
    return 1;
  }
}
