// ocep_record — run one of the instrumented case-study applications and
// save the collected trace-event data as a POET-style dump (paper §V-B).
//
//   ocep_record --app deadlock|race|atomicity|ordering
//               [--traces N] [--events E] [--seed S] --out FILE
//
// The dump can then be inspected with ocep_inspect and matched offline
// with ocep_match, mirroring the paper's collect-once / replay-many
// methodology.
//
// Live mode: `--serve HOST:PORT --tenant NAME [--pattern FILE]
// [--pattern-text SRC] [--write-chunk N]` streams the recorded computation
// to a running ocep_served daemon over the session protocol instead of
// writing a dump, and waits for the server's FIN verdict.  The tenant
// registers the --pattern file's pattern, then the --pattern-text one,
// when given.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "common/error.h"
#include "common/flags.h"
#include "net/client.h"
#include "poet/dump.h"
#include "sim/sim.h"

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

/// Splits "HOST:PORT" (throws on a malformed spec).
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

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const std::string app = flags.get_string("app", "ordering");
    const auto traces =
        static_cast<std::uint32_t>(flags.get_int("traces", 10));
    const auto events =
        static_cast<std::uint64_t>(flags.get_int("events", 50000));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::string out_path = flags.get_string("out", "computation.poet");
    const std::string serve = flags.get_string("serve", "");
    const std::string tenant = flags.get_string("tenant", app);
    const std::string pattern_path = flags.get_string("pattern", "");
    const std::string pattern_text = flags.get_string("pattern-text", "");
    const auto write_chunk =
        static_cast<std::size_t>(flags.get_int("write-chunk", 0));
    flags.check_unused();

    StringPool pool;
    sim::SimConfig config;
    config.seed = seed;
    config.channel_capacity = 2;
    config.max_events = events;
    sim::Sim sim(pool, config);

    if (app == "deadlock") {
      apps::RandomWalkParams params;
      params.processes = traces;
      params.steps = std::max<std::uint64_t>(8, 2 * events / (traces * 9));
      apps::setup_random_walk(sim, params);
    } else if (app == "race") {
      apps::RaceParams params;
      params.traces = traces;
      params.messages_each =
          std::max<std::uint64_t>(4, (10 * events) / (23 * (traces - 1)));
      apps::setup_race_bench(sim, params);
    } else if (app == "atomicity") {
      apps::AtomicityParams params;
      params.workers = traces - 1;
      params.iterations =
          std::max<std::uint64_t>(4, (10 * events) / (83 * params.workers));
      apps::setup_atomicity(sim, params);
    } else if (app == "ordering") {
      apps::OrderingParams params;
      params.followers = traces - 1;
      params.requests_each =
          std::max<std::uint64_t>(2, (10 * events) / (63 * params.followers));
      apps::setup_leader_follower(sim, params);
    } else {
      throw Error("unknown --app '" + app +
                  "' (expected deadlock|race|atomicity|ordering)");
    }

    const sim::RunResult result = sim.run();

    if (!serve.empty()) {
      net::ConnectorConfig connector;
      std::tie(connector.host, connector.port) = split_endpoint(serve);
      connector.tenant = tenant;
      if (!pattern_path.empty()) {
        connector.patterns.push_back(read_file(pattern_path));
      }
      if (!pattern_text.empty()) {
        connector.patterns.push_back(pattern_text);
      }
      connector.write_chunk = write_chunk;
      const net::StreamResult streamed =
          net::stream_store(sim.store(), pool, connector);
      if (streamed.ack.status == net::AckStatus::kRejected) {
        throw Error("server rejected the handshake: " + streamed.ack.message);
      }
      std::printf("%s: streamed %llu events as tenant '%s' -> %s "
                  "(fin: %s%s%s)\n",
                  app.c_str(),
                  static_cast<unsigned long long>(streamed.events_sent),
                  tenant.c_str(), serve.c_str(),
                  streamed.fin_received
                      ? (streamed.fin.degraded ? "degraded" : "clean")
                      : "none",
                  streamed.fin.message.empty() ? "" : ": ",
                  streamed.fin.message.c_str());
      return streamed.fin_received && !streamed.fin.degraded ? 0 : 2;
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      throw Error("cannot open '" + out_path + "' for writing");
    }
    dump(sim.store(), pool, out);
    out.flush();
    std::printf("%s: recorded %llu events on %zu traces -> %s\n",
                app.c_str(), static_cast<unsigned long long>(result.events),
                sim.store().trace_count(), out_path.c_str());
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "ocep_record: %s\n", error.what());
    return 1;
  }
}
