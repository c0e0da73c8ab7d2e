// ocep_served — run the monitor as a network daemon (docs/SERVER.md).
//
//   ocep_served [--host H] [--port P] [--admin-port P] [--shards N]
//               [--store-dir DIR]
//               [--flush-interval-ms N] [--spill-bytes N]
//               [--pool-bytes N] [--rebase-bytes N] [--idle-timeout-ms N]
//               [--linger-ms N] [--max-tenant-bytes N]
//               [--max-corrupt-frames N] [--max-tenants N] [--max-conns N]
//               [--budget-steps N] [--budget-ns N] [--breaker-trip K]
//               [--breaker-window N] [--breaker-cooldown N]
//               [--history-bytes N]
//               [--rebalance] [--rebalance-interval-ms N]
//               [--replicate-to HOST:PORT] [--standby]
//
// The ingest plane accepts handshaking producers (ocep_record --serve,
// ocep_chaos --serve) and multiplexes their session streams into
// per-tenant monitors; with --shards N it runs N reactor threads behind
// SO_REUSEPORT listeners with tenant-affinity placement (docs/SERVER.md).
// The admin plane answers GET /metrics (Prometheus, merged across the
// shard registries), GET /healthz (JSON), and POST /checkpoint.
//
// Durability (docs/ROBUSTNESS.md "Durability"): with --store-dir every
// shard group-commits its tenants' input each --flush-interval-ms (and
// at once on SIGINT/SIGTERM or POST /checkpoint, which answers 503 when
// a commit failed), so a SIGKILL loses at most one window, which the
// producer's resume heals, and a restart on the same directory resumes
// mid-stream tenants exactly — even at a different shard count.  A
// tenant whose delta chain outgrows --rebase-bytes is re-based in that
// same commit.  Without --store-dir nothing reaches disk, and the
// store-only flags (--spill-bytes, --pool-bytes, --replicate-to) are
// refused.  Both ports are printed on stdout at startup (pass 0 for
// ephemeral — handy under test harnesses).
//
// Warm-standby replication (docs/ROBUSTNESS.md "Replication"):
// --replicate-to streams every shard's segment log to a follower daemon
// started with --standby, which mirrors the store on disk and, on POST
// /promote (or SIGUSR1), restarts itself as a full primary over the
// replicated store — clients reconnect and resume via the session
// resync path, exactly as after a crash restart of the old primary.
//
// Governance (docs/GOVERNANCE.md): the --budget-* and --breaker-* flags
// apply to every pattern of every tenant; --history-bytes caps each
// tenant's leaf histories, which the tenant's patterns share, as one
// budget per tenant (docs/SERVER.md).
#include <csignal>
#include <cstdio>
#include <string>

#include "common/error.h"
#include "common/flags.h"
#include "net/server.h"
#include "net/standby.h"

using namespace ocep;

namespace {

net::Server* g_server = nullptr;
net::Standby* g_standby = nullptr;

void handle_signal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->request_shutdown();  // async-signal-safe: flag + self-pipe
  }
  if (g_standby != nullptr) {
    g_standby->request_shutdown();
  }
}

void handle_promote(int /*sig*/) {
  if (g_standby != nullptr) {
    g_standby->request_promote();
  }
}

/// Splits "host:port"; throws on a malformed value.
void parse_host_port(const std::string& value, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size()) {
    throw Error("--replicate-to wants HOST:PORT, got '" + value + "'");
  }
  host = value.substr(0, colon);
  const int parsed = std::stoi(value.substr(colon + 1));
  if (parsed <= 0 || parsed > 65535) {
    throw Error("--replicate-to port out of range in '" + value + "'");
  }
  port = static_cast<std::uint16_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    net::ServerConfig config;
    config.host = flags.get_string("host", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(flags.get_int("port", 7440));
    config.admin_port =
        static_cast<std::uint16_t>(flags.get_int("admin-port", 7441));
    config.shards = static_cast<std::size_t>(flags.get_int("shards", 1));
    config.store_dir = flags.get_string("store-dir", "");
    config.flush_interval_ms =
        static_cast<std::uint64_t>(flags.get_int("flush-interval-ms", 50));
    config.spill_bytes =
        static_cast<std::uint64_t>(flags.get_int("spill-bytes", 0));
    // Span storage tier (docs/ROBUSTNESS.md "Durability"): --pool-bytes
    // budgets the shared buffer pool, turns matcher history eviction into
    // span spill/fault-back, and starts the compactor that relocates live
    // spans out of dead segments.  Default off.
    config.pool_bytes =
        static_cast<std::uint64_t>(flags.get_int("pool-bytes", 0));
    config.store_rebase_bytes = static_cast<std::uint64_t>(
        flags.get_int("rebase-bytes", 1 << 20));
    config.idle_timeout_ms =
        static_cast<std::uint64_t>(flags.get_int("idle-timeout-ms", 30000));
    config.detach_linger_ms =
        static_cast<std::uint64_t>(flags.get_int("linger-ms", 2000));
    config.max_tenant_bytes =
        static_cast<std::uint64_t>(flags.get_int("max-tenant-bytes", 0));
    config.max_corrupt_frames =
        static_cast<std::uint64_t>(flags.get_int("max-corrupt-frames", 4096));
    config.max_tenants =
        static_cast<std::size_t>(flags.get_int("max-tenants", 256));
    config.max_connections =
        static_cast<std::size_t>(flags.get_int("max-conns", 1024));
    MatcherConfig& matcher = config.tenant.matcher;
    matcher.budget.max_steps =
        static_cast<std::uint64_t>(flags.get_int("budget-steps", 0));
    matcher.budget.deadline_ns =
        static_cast<std::uint64_t>(flags.get_int("budget-ns", 0));
    matcher.breaker.trip_failures =
        static_cast<std::uint32_t>(flags.get_int("breaker-trip", 0));
    matcher.breaker.window_observes =
        static_cast<std::uint32_t>(flags.get_int("breaker-window", 1024));
    matcher.breaker.cooldown_observes =
        static_cast<std::uint32_t>(flags.get_int("breaker-cooldown", 256));
    // One cap per tenant: it bounds the tenant Monitor's shared leaf
    // histories, whatever the number of patterns reading them.
    config.tenant.monitor.history_bytes_limit =
        static_cast<std::size_t>(flags.get_int("history-bytes", 0));
    // Live rebalancing (docs/SERVER.md "Rebalancing"): with --rebalance
    // the admin thread migrates hot tenants between shards and the
    // manual trigger POST /rebalance is useful even at the default
    // interval.  A no-op at --shards 1.
    config.rebalance = flags.get_bool("rebalance", false);
    config.rebalance_interval_ms = static_cast<std::uint64_t>(
        flags.get_int("rebalance-interval-ms", 500));
    const std::string replicate_to = flags.get_string("replicate-to", "");
    if (!replicate_to.empty()) {
      parse_host_port(replicate_to, config.replicate_host,
                      config.replicate_port);
    }
    const bool standby = flags.get_bool("standby", false);
    flags.check_unused();

    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    if (standby) {
      if (config.store_dir.empty()) {
        throw Error("--standby requires --store-dir");
      }
      net::StandbyConfig standby_config;
      standby_config.host = config.host;
      standby_config.port = config.port;
      standby_config.admin_port = config.admin_port;
      standby_config.store_dir = config.store_dir;
      net::Standby follower(std::move(standby_config));
      g_standby = &follower;
      struct sigaction promote {};
      promote.sa_handler = handle_promote;
      ::sigaction(SIGUSR1, &promote, nullptr);
      // Reuse the exact ports after promotion, whatever was bound.
      config.port = follower.port();
      config.admin_port = follower.admin_port();
      std::printf("ocep_served: standby ingest port %u admin port %u\n",
                  static_cast<unsigned>(follower.port()),
                  static_cast<unsigned>(follower.admin_port()));
      std::fflush(stdout);
      const net::StandbyExit exit_reason = follower.run();
      g_standby = nullptr;
      if (exit_reason == net::StandbyExit::kShutdown) {
        std::printf("ocep_served: standby shut down\n");
        return 0;
      }
      std::printf("ocep_served: promoting\n");
      std::fflush(stdout);
      // Fall through: construct the Server on the replicated store —
      // the same replay a crash-restarted primary performs.
    }

    net::Server server(std::move(config));
    g_server = &server;

    std::printf("ocep_served: ingest port %u admin port %u shards %zu\n",
                static_cast<unsigned>(server.port()),
                static_cast<unsigned>(server.admin_port()),
                server.shard_count());
    std::fflush(stdout);
    server.run();
    std::printf("ocep_served: shut down (%zu tenants)\n",
                server.tenant_count());
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "ocep_served: %s\n", error.what());
    return 1;
  }
}
