// Serving-layer bench — throughput and send-to-observe latency of a live
// ocep_served reactor under N concurrent loopback producers.
//
// One in-process Server (ephemeral ports) is hammered by --clients
// producer threads, each streaming the same random computation as its own
// tenant over real TCP.  Every event is timestamped just before it is
// encoded (StreamOptions::before_write) and again when the tenant monitor
// observes it (ServerConfig::observe_hook, on the reactor thread); the
// difference is the full pipe — session encode, socket, epoll wakeup,
// frame reassembly, linearization — reported as a per-event latency
// population.  Throughput is aggregate released events over the wall
// clock of the whole fan-in.  `--shards N` sizes the reactor pool
// (latency samples are recorded per client — each tenant's hook runs
// serially on its owning shard, so per-client recorders stay
// single-writer — and merged before reporting).  `--json FILE` records
// rows for trend tracking; CI floors the reported throughput.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "net/client.h"
#include "net/server.h"
#include "random_computation.h"
#include "testing/chaos_harness.h"

using namespace ocep;
using namespace ocep::bench;

namespace {

constexpr const char* kPattern =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    BenchParams params = parse_params(flags);
    const auto clients =
        static_cast<std::uint32_t>(flags.get_int("clients", 8));
    const auto traces = static_cast<std::uint32_t>(flags.get_int("traces", 4));
    const auto shards =
        static_cast<std::size_t>(flags.get_int("shards", 1));
    flags.check_unused();
    if (clients == 0) {
      std::fprintf(stderr, "net_serve: --clients must be >= 1\n");
      return 1;
    }

    StringPool pool;
    ocep::testing::RandomComputationOptions options;
    options.traces = traces;
    options.events = static_cast<std::uint32_t>(params.events);
    options.seed = params.seed;
    const EventStore source = ocep::testing::random_computation(pool, options);
    const std::uint64_t per_client = source.event_count();

    std::printf("# net_serve (random computation, %u traces, %" PRIu64
                " events/client, %u clients, %zu shards, %u reps)\n",
                traces, per_client, clients, shards, params.reps);
    std::printf("%-6s %12s %11s %9s %9s %9s %8s\n", "rep", "events/s",
                "wall_ms", "p50_us", "p99_us", "max_us", "resyncs");

    JsonReport report("net_serve", params);
    for (std::uint32_t rep = 0; rep < params.reps; ++rep) {
      // Per-(tenant, position) send timestamps, written by the producer
      // threads and read by the reactor's observe hook.
      std::vector<std::unique_ptr<std::atomic<std::int64_t>[]>> sent;
      sent.reserve(clients);
      for (std::uint32_t c = 0; c < clients; ++c) {
        auto stamps =
            std::make_unique<std::atomic<std::int64_t>[]>(per_client);
        for (std::uint64_t i = 0; i < per_client; ++i) {
          stamps[i].store(0, std::memory_order_relaxed);
        }
        sent.push_back(std::move(stamps));
      }
      // With --shards the hook fires concurrently from shard threads,
      // but always serially per tenant — so one recorder per client is
      // single-writer.  Merged after the server stopped.
      std::vector<metrics::LatencyRecorder> latencies(clients);
      std::atomic<std::uint64_t> observed{0};

      net::ServerConfig config;
      config.shards = shards;
      config.observe_hook = [&](std::string_view tenant,
                                std::uint64_t position) {
        // Tenant names are "c<index>".
        const std::size_t idx =
            static_cast<std::size_t>(std::stoul(std::string(tenant.substr(1))));
        if (idx < latencies.size() && position < per_client) {
          const std::int64_t at =
              sent[idx][position].load(std::memory_order_acquire);
          if (at != 0) {
            latencies[idx].add(static_cast<double>(now_ns() - at) / 1000.0);
          }
        }
        observed.fetch_add(1, std::memory_order_relaxed);
      };
      net::Server server(std::move(config));
      std::thread reactor([&server] { server.run(); });

      const std::int64_t start_ns = now_ns();
      std::vector<std::thread> producers;
      std::vector<net::StreamResult> results(clients);
      std::atomic<std::uint32_t> failures{0};
      producers.reserve(clients);
      for (std::uint32_t c = 0; c < clients; ++c) {
        producers.emplace_back([&, c] {
          try {
            StringPool client_pool;
            ocep::testing::RandomComputationOptions copy = options;
            const EventStore client_source =
                ocep::testing::random_computation(client_pool, copy);
            net::ConnectorConfig cc;
            cc.port = server.port();
            cc.tenant = "c" + std::to_string(c);
            cc.patterns = {kPattern};
            net::StreamOptions so;
            so.before_write = [&sent, c](std::uint64_t pos) {
              sent[c][pos].store(now_ns(), std::memory_order_release);
            };
            results[c] = net::stream_store(client_source, client_pool, cc, so);
            if (!results[c].fin_received || results[c].fin.degraded) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const Error&) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& t : producers) {
        t.join();
      }
      const double wall_s =
          static_cast<double>(now_ns() - start_ns) / 1e9;
      server.request_shutdown();
      reactor.join();

      if (failures.load() != 0) {
        std::fprintf(stderr,
                     "net_serve: %u of %u clients failed to stream cleanly\n",
                     failures.load(), clients);
        return 1;
      }
      std::uint64_t resyncs = 0;
      for (const net::StreamResult& result : results) {
        resyncs += result.session.resyncs_served;
      }
      const double throughput =
          static_cast<double>(observed.load()) / wall_s;
      metrics::LatencyRecorder latency;
      for (const metrics::LatencyRecorder& r : latencies) {
        for (const double sample : r.samples()) {
          latency.add(sample);
        }
      }
      const metrics::Boxplot box = latency.summarize();
      // summarize() sorted the samples; index quantiles directly.
      const std::vector<double>& samples = latency.samples();
      const auto quantile = [&samples](double q) {
        if (samples.empty()) {
          return 0.0;
        }
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(samples.size() - 1));
        return samples[idx];
      };
      std::printf("%-6u %12.0f %11.1f %9.1f %9.1f %9.1f %8" PRIu64 "\n", rep,
                  throughput, wall_s * 1e3, quantile(0.50), quantile(0.99),
                  box.max, resyncs);

      report.begin_row("rep" + std::to_string(rep));
      report.add("clients", static_cast<std::uint64_t>(clients));
      report.add("shards", static_cast<std::uint64_t>(shards));
      report.add("events_per_client", per_client);
      report.add("events_observed", observed.load());
      report.add("wall_ms", wall_s * 1e3);
      report.add("throughput_eps", throughput);
      report.add("latency_p50_us", quantile(0.50));
      report.add("latency_p99_us", quantile(0.99));
      report.add("latency_max_us", box.max);
      report.add("resyncs", resyncs);
    }
    report.write();
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "net_serve: %s\n", error.what());
    return 1;
  }
}
