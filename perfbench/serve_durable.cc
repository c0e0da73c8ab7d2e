// serve_durable: an in-process net::Server in store mode fed over loopback
// by producer threads, then restarted on the store it wrote (README.md).
//
// A run repeats cycles of identical work.  Each cycle starts a fresh
// server on an empty store and runs rounds: in every round each producer
// streams one tenant over its own connection, both wait for their FIN, and
// the group commit is triggered through the admin plane (POST
// /checkpoint).  Timed flushes are pushed out of the run, so every tenant
// lands in the store as exactly one delta record plus, past the re-base
// threshold, one base record: the store's work is the same in every cycle
// however the rounds are timed.  The first rounds are paced open-loop, the
// rest run flat out.  The server then shuts down and is constructed again
// on its store several times; each construction is one restart.
#include <barrier>
#include <atomic>
#include <ctime>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/placement.h"
#include "net/server.h"
#include "net/socket.h"
#include "replay.h"
#include "store/tenant_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ocep;
namespace fs = std::filesystem;

constexpr std::size_t kShards = 2;
/// Producers; producer p's tenants are named so they live on shard p.
constexpr std::size_t kProducers = 2;
constexpr std::uint32_t kTenantTraces = 4;
/// Tenants per producer per cycle in the paced and the flat-out phase.
constexpr std::size_t kOpenTenants = 4;
constexpr std::size_t kFlatTenants = 8;
/// Flat-out tenants are large enough to be re-based at their group commit,
/// paced ones are not, so the store holds both record kinds and a restart
/// reads both.  Large flat-out tenants also keep the per-round fixed costs
/// (connect, handshake, FIN, group commit) a small share of a round.
constexpr std::uint32_t kOpenEvents = 1000;
constexpr std::uint32_t kFlatEvents = 6000;
constexpr std::uint64_t kRebaseBytes = std::uint64_t{128} << 10U;
/// The fixed offered rate of the paced phase: one event every 40 us per
/// producer (2 x 25k ev/s), under a fifth of what the daemon sustains flat
/// out and well inside what one producer thread can send while its CPU is
/// in a slow phase.  A constant of the workload, never derived from a
/// measured capacity.
constexpr std::int64_t kPeriodNs = 40000;
/// A paced tenant's first event is due this long after its round starts,
/// which leaves room for the connect and handshake.
constexpr std::int64_t kLeadNs = 2'000'000;
/// Pacing sleeps until this close to the due time, then spins.
constexpr std::int64_t kSpinNs = 100'000;
/// A flat-out producer buffers its frames and writes them this many bytes
/// at a time, as a client with a userspace write buffer would.  A write per
/// frame would make the phase time the host's cross-CPU wake-ups: on the
/// virtual machine this benchmark was built on, that swung flat-out rounds
/// over 5x within one run (README.md).  Paced frames go out one by one.
constexpr std::size_t kFlatWriteBytes = std::size_t{16} << 10U;
constexpr std::size_t kRestarts = 4;
/// The per-run value of a serve_durable timing: this quantile across its
/// rounds (restarts, flat-out rounds, paced tenants).  Unlike a Monitor
/// replay, these rounds span several threads or a working set larger than
/// L2.  A varying minority of them catch the whole host quiet and run well
/// below the rest, so the 5th percentile (kFastQuantile) follows how many
/// such rounds a run happened to get; the 25th takes the fast edge of the
/// main body of rounds (README.md, "Host noise").
constexpr double kServeQuantile = 0.25;
double serve_state(const std::vector<double>& rounds) {
  return quantile(rounds, kServeQuantile);
}

/// Share of a pass spent on the offline replays (replay_offline) after the
/// cycles, and the CPU stint of its rounds.
constexpr double kReplayShare = 0.1;
constexpr std::int64_t kReplayStintNs = 250'000'000;
/// Longer than any run: the benchmark triggers every group commit itself.
constexpr std::uint64_t kNoTimedFlushMs = 3'600'000;
constexpr int kIoTimeoutMs = 30000;

const std::vector<std::string>& patterns() {
  static const std::vector<std::string> kPatterns = {
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n",
      "P := ['', C, '']; Q := ['', D, ''];\npattern := P -> Q;\n",
  };
  return kPatterns;
}

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void pace_until(std::int64_t due) {
  const std::int64_t ahead = due - now_ns();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (now_ns() < due) {
  }
}

/// Triggers the daemon's group commit through its admin plane and waits
/// for the answer (every shard has appended and synced by then).
void post_checkpoint(std::uint16_t admin_port) {
  net::OwnedFd fd = net::tcp_connect("127.0.0.1", admin_port);
  net::write_all(fd.get(),
                 "POST /checkpoint HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
                 kIoTimeoutMs);
  std::string response;
  char buf[512];
  while (net::wait_readable(fd.get(), kIoTimeoutMs)) {
    const net::IoResult got = net::read_some(fd.get(), buf, sizeof buf);
    if (got.status == net::IoStatus::kOk) {
      response.append(buf, got.bytes);
    } else if (got.status != net::IoStatus::kWouldBlock) {
      break;
    }
  }
  if (response.rfind("HTTP/1.0 200", 0) != 0) {
    throw std::runtime_error("POST /checkpoint answered '" +
                             response.substr(0, response.find('\r')) + "'");
  }
}

/// Content fingerprint of every file under `dir` (path, size, FNV-1a).
std::string fingerprint(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::uint64_t hash = 1469598103934665603ULL;
    std::uint64_t size = 0;
    char buf[65536];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        hash = (hash ^ static_cast<unsigned char>(buf[i])) * 1099511628211ULL;
      }
      size += static_cast<std::uint64_t>(in.gcount());
    }
    files[entry.path().string()] =
        std::to_string(size) + ":" + std::to_string(hash);
  }
  std::string out;
  for (const auto& [path, digest] : files) {
    out += path + "=" + digest + "\n";
  }
  return out;
}

/// The producer's side of a connection: frames go to Connector::write
/// one by one, or `batch` bytes at a time (flush() sends the rest).  With
/// `timed`, the time spent in Connector::write, the producer's wait on the
/// socket, is summed.
class ProducerSink final : public ByteSink {
 public:
  ProducerSink(net::Connector& connector, std::size_t batch, bool timed)
      : connector_(connector), batch_(batch), timed_(timed) {}
  void write(std::string_view bytes) override {
    if (batch_ == 0) {
      send(bytes);
      return;
    }
    buffer_.append(bytes);
    if (buffer_.size() >= batch_) {
      flush();
    }
  }
  void flush() {
    if (!buffer_.empty()) {
      send(buffer_);
      buffer_.clear();
    }
  }
  std::int64_t blocked_ns = 0;

 private:
  void send(std::string_view bytes) {
    const std::int64_t start = timed_ ? now_ns() : 0;
    connector_.write(bytes);
    if (timed_) {
      blocked_ns += now_ns() - start;
    }
  }

  net::Connector& connector_;
  std::size_t batch_;
  bool timed_;
  std::string buffer_;
};

struct Tenant {
  std::string name;
  std::size_t producer = 0;
  bool paced = false;
  Stream stream;
  std::vector<std::vector<Match>> subset;  ///< reference final subsets
  CoreCounts counts;                       ///< reference matcher counts
  // Written by the observe hook during a cycle (one shard thread per
  // tenant), read after the server stopped.
  std::vector<std::uint8_t> seen;
  std::vector<double> latency_us;
  std::uint64_t stray = 0;
  std::atomic<std::int64_t> origin_ns{0};
};

/// Runs once per barrier phase, before the waiting threads resume.
struct Completion {
  std::function<void()> fn;
  void operator()() noexcept { fn(); }
};
using Barrier = std::barrier<Completion>;

/// What a producer thread measured in one cycle.
struct ProducerLog {
  std::vector<double> late_ns;  ///< traced runs only
  std::uint64_t late_events = 0;  ///< sent more than one period late
  std::vector<double> handshake_ns;
  std::vector<double> fin_ns;
  std::int64_t write_blocked_ns = 0;
  std::int64_t flat_cpu_ns = 0;
  std::vector<std::string> failures;
};

/// Samples across the cycles of one pass.
struct PassSamples {
  std::vector<double> restart_ns, scan_ns;
  /// Per flat-out round: streaming (round start to both FINs) per event,
  /// and the group commit that follows it.
  std::vector<double> flat_ns_per_event, commit_ns;
  std::vector<double> tenant_ingest_p50_us;
  std::vector<double> ingest_us, late_ns;  ///< traced runs only
  std::uint64_t late_events = 0;
  std::vector<double> handshake_ns, fin_ns, write_blocked_ns, daemon_cpu_ns;
  /// Connections the kernel handed to the wrong shard (last cycle); the
  /// one count that varies between identical cycles.
  std::uint64_t conn_migrations = 0;
  /// The daemon's matcher counters, summed over tenants (last cycle).
  CoreCounts core;
};

class ServeDurable final : public Workload {
 public:
  ServeDurable(std::uint64_t seed, std::string work_dir);
  Pass measure(double budget_s, Tracer& tracer) override;

 private:
  void cycle(std::size_t index, Pass& pass, PassSamples& samples,
             Tracer& tracer, std::map<std::string, std::uint64_t>& work);
  void produce(std::size_t producer, std::uint16_t port, bool traced,
               const std::int64_t& origin, Barrier& start, Barrier& end,
               ProducerLog& log);
  void replay_offline(double budget_s, Pass& pass, bool traced);
  [[nodiscard]] std::vector<Tenant*> tenants_of(std::size_t producer);

  std::string store_dir_;
  /// Read before any thread of this workload is pinned.
  const Cpus cpus_;
  StringPool pool_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, Tenant*, std::less<>> by_name_;
  std::uint64_t events_ = 0;
  std::uint64_t flat_events_ = 0;
};

ServeDurable::ServeDurable(std::uint64_t seed, std::string work_dir)
    : store_dir_(std::move(work_dir) + "/store") {
  std::uint64_t stream_seed = seed * 1000;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t k = 0; k < kOpenTenants + kFlatTenants; ++k) {
      auto tenant = std::make_unique<Tenant>();
      tenant->producer = p;
      tenant->paced = k < kOpenTenants;
      const std::string stem = "p" + std::to_string(p) +
                               (tenant->paced ? "o" : "f") +
                               std::to_string(k) + "-";
      for (int salt = 0;; ++salt) {
        tenant->name = stem + std::to_string(salt);
        if (net::shard_for(tenant->name, kShards) == p) {
          break;
        }
      }
      tenant->stream = random_computation(
          pool_, kTenantTraces, tenant->paced ? kOpenEvents : kFlatEvents,
          ++stream_seed);
      events_ += tenant->stream.events.size();
      flat_events_ += tenant->paced ? 0 : tenant->stream.events.size();
      by_name_[tenant->name] = tenant.get();
      tenants_.push_back(std::move(tenant));
    }
  }
  // The reference every cycle's daemon output is compared with: the same
  // input replayed through an in-process Monitor, every match validated.
  for (const auto& tenant : tenants_) {
    Replayer replayer(pool_, tenant->stream, patterns());
    Tenant& t = *tenant;
    const RoundCheck check = [&t](Monitor& monitor,
                                  const std::vector<std::vector<Match>>&) {
      for (std::size_t i = 0; i < monitor.pattern_count(); ++i) {
        t.subset.push_back(monitor.matcher(i).subset().matches());
      }
      return std::string();
    };
    std::string error;
    const RoundResult r = replayer.run(&check, false, error);
    if (!error.empty()) {
      throw std::runtime_error("reference replay of " + t.name + ": " + error);
    }
    t.counts = r.counts;
  }
  std::uint64_t all = 0;
  for (const auto& tenant : tenants_) {
    all = all * 1099511628211ULL ^ digest(pool_, tenant->stream);
  }
  about_inputs_.str("tenants.digest", hex(all))
      .u64("tenants", tenants_.size())
      .u64("events", events_);
}

std::vector<Tenant*> ServeDurable::tenants_of(std::size_t producer) {
  std::vector<Tenant*> out;
  for (const auto& tenant : tenants_) {
    if (tenant->producer == producer) {
      out.push_back(tenant.get());
    }
  }
  return out;
}

void ServeDurable::produce(std::size_t producer, std::uint16_t port,
                           bool traced, const std::int64_t& origin,
                           Barrier& start, Barrier& end, ProducerLog& log) {
  const std::vector<Tenant*> mine = tenants_of(producer);
  std::int64_t cpu_start = 0;
  for (std::size_t round = 0; round < mine.size(); ++round) {
    start.arrive_and_wait();
    Tenant& t = *mine[round];
    if (round == kOpenTenants) {
      cpu_start = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    }
    try {
      net::ConnectorConfig cc;
      cc.port = port;
      cc.tenant = t.name;
      cc.patterns = patterns();
      cc.io_timeout_ms = kIoTimeoutMs;
      const std::int64_t connect = now_ns();
      net::Connector connector(cc);
      log.handshake_ns.push_back(static_cast<double>(now_ns() - connect));
      if (connector.ack().status != net::AckStatus::kFresh) {
        throw std::runtime_error("handshake answered '" +
                                 connector.ack().message + "'");
      }
      ProducerSink sink(connector, t.paced ? 0 : kFlatWriteBytes,
                        traced && !t.paced);
      SessionServer session(sink, pool_, t.stream.traces);
      const std::int64_t first_due = origin + kLeadNs;
      t.origin_ns.store(first_due, std::memory_order_release);
      const std::size_t n = t.stream.events.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (t.paced) {
          const std::int64_t due =
              first_due + static_cast<std::int64_t>(i) * kPeriodNs;
          pace_until(due);
          const std::int64_t late = now_ns() - due;
          log.late_events += late > kPeriodNs ? 1 : 0;
          if (traced) {
            log.late_ns.push_back(static_cast<double>(late));
          }
        }
        session.write(t.stream.events[i], t.stream.clocks[i]);
        if ((i + 1) % 64 == 0) {
          connector.poll_reverse(&session, 0);
        }
      }
      session.finish();
      sink.flush();
      const std::int64_t bye = now_ns();
      const bool fin = connector.wait_fin(&session, kIoTimeoutMs);
      log.fin_ns.push_back(static_cast<double>(now_ns() - bye));
      log.write_blocked_ns += sink.blocked_ns;
      if (!fin || connector.fin().degraded) {
        throw std::runtime_error(fin ? "FIN reports a degraded stream: " +
                                           connector.fin().message
                                     : "no FIN");
      }
    } catch (const std::exception& error) {
      log.failures.push_back(t.name + ": " + error.what());
    }
    end.arrive_and_wait();
  }
  log.flat_cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

void ServeDurable::cycle(std::size_t index, Pass& pass, PassSamples& samples,
                         Tracer& tracer,
                         std::map<std::string, std::uint64_t>& work) {
  const bool traced = tracer.on();
  // Producers get a CPU each and the daemon's threads (admin plane and
  // shards, which inherit the reactor thread's mask) share the other two;
  // the layout rotates every cycle.
  const Cpus& cpus = cpus_;
  fs::remove_all(store_dir_);
  fs::create_directories(store_dir_);
  for (const auto& tenant : tenants_) {
    tenant->seen.assign(tenant->stream.events.size(), 0);
    tenant->latency_us.assign(tenant->paced ? tenant->stream.events.size() : 0,
                              0.0);
    tenant->stray = 0;
  }

  net::ServerConfig config;
  config.shards = kShards;
  config.store_dir = store_dir_;
  config.flush_interval_ms = kNoTimedFlushMs;
  config.store_rebase_bytes = kRebaseBytes;
  net::ServerConfig restart_config = config;
  config.observe_hook = [this](std::string_view name, std::uint64_t pos) {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      return;
    }
    Tenant& t = *it->second;
    if (pos >= t.seen.size()) {
      ++t.stray;
      return;
    }
    ++t.seen[pos];
    if (t.paced) {
      const std::int64_t due =
          t.origin_ns.load(std::memory_order_acquire) +
          static_cast<std::int64_t>(pos) * kPeriodNs;
      t.latency_us[pos] = static_cast<double>(now_ns() - due) / 1e3;
    }
  };

  const std::int64_t cycle_start = now_ns();
  const std::uint32_t cycle_span = tracer.span("cycle", cycle_start, cycle_start);
  auto server = std::make_unique<net::Server>(config);
  std::string reactor_error;
  std::thread reactor([&server, &reactor_error, &cpus, index] {
    cpus.pin_range(index + kProducers, kShards);
    try {
      server->run();
    } catch (const std::exception& error) {
      reactor_error = error.what();
    }
  });

  const std::size_t rounds = kOpenTenants + kFlatTenants;
  std::size_t round = 0;
  std::int64_t origin = 0;
  std::int64_t process_cpu_start = 0;
  std::int64_t process_cpu_end = 0;
  std::vector<std::string> flush_errors;
  Barrier start_barrier(kProducers, Completion{[&] {
    origin = now_ns();
    if (round == kOpenTenants) {
      process_cpu_start = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    }
  }});
  const std::uint16_t admin_port = server->admin_port();
  Barrier end_barrier(kProducers, Completion{[&] {
    const std::int64_t flush_start = now_ns();
    try {
      post_checkpoint(admin_port);
    } catch (const std::exception& error) {
      flush_errors.push_back(error.what());
    }
    const std::int64_t done = now_ns();
    tracer.span(round < kOpenTenants ? "round.paced" : "round.flat", origin,
                done, cycle_span);
    tracer.span("store.group_commit", flush_start, done, cycle_span);
    if (round >= kOpenTenants) {
      samples.flat_ns_per_event.push_back(
          static_cast<double>(flush_start - origin) /
          static_cast<double>(kProducers * kFlatEvents));
      samples.commit_ns.push_back(static_cast<double>(done - flush_start));
    }
    if (round + 1 == rounds) {
      process_cpu_end = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    }
    ++round;
  }});
  std::vector<ProducerLog> logs(kProducers);
  std::vector<std::thread> producers;
  const std::uint16_t port = server->port();
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([this, p, port, traced, index, &cpus, &origin,
                            &start_barrier, &end_barrier, &logs] {
      cpus.pin(index + p);
      produce(p, port, traced, origin, start_barrier, end_barrier, logs[p]);
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  server->request_shutdown();
  reactor.join();

  std::int64_t producer_cpu = 0;
  for (const ProducerLog& log : logs) {
    for (const std::string& failure : log.failures) {
      pass.fail(failure);
    }
    samples.late_ns.insert(samples.late_ns.end(), log.late_ns.begin(),
                           log.late_ns.end());
    samples.late_events += log.late_events;
    samples.handshake_ns.insert(samples.handshake_ns.end(),
                                log.handshake_ns.begin(),
                                log.handshake_ns.end());
    samples.fin_ns.insert(samples.fin_ns.end(), log.fin_ns.begin(),
                          log.fin_ns.end());
    producer_cpu += log.flat_cpu_ns;
  }
  for (const std::string& error : flush_errors) {
    pass.fail("group commit: " + error);
  }
  if (!reactor_error.empty()) {
    pass.fail("server: " + reactor_error);
  }
  double blocked = 0;
  for (const ProducerLog& log : logs) {
    blocked += static_cast<double>(log.write_blocked_ns);
  }
  samples.write_blocked_ns.push_back(blocked);
  samples.daemon_cpu_ns.push_back(
      static_cast<double>(process_cpu_end - process_cpu_start - producer_cpu) /
      static_cast<double>(flat_events_));

  // Output checks: every event observed once, every tenant complete, and
  // its final matches equal to the in-process reference.
  CoreCounts counts;
  for (const auto& tenant : tenants_) {
    Tenant& t = *tenant;
    pass.attempted += 1;
    net::Tenant* live = server->find_tenant(t.name);
    if (live == nullptr) {
      pass.fail(t.name + ": unknown to the server");
      continue;
    }
    if (live->state() != net::TenantState::kComplete) {
      pass.fail(t.name + ": ended " + net::to_string(live->state()));
      continue;
    }
    std::size_t wrong = t.stray;
    for (const std::uint8_t seen : t.seen) {
      wrong += seen == 1 ? 0 : 1;
    }
    if (wrong != 0) {
      pass.fail(t.name + ": " + std::to_string(wrong) +
                " events not observed exactly once");
      continue;
    }
    CoreCounts live_counts;
    bool same = live->monitor().pattern_count() == t.subset.size();
    for (std::size_t i = 0; same && i < t.subset.size(); ++i) {
      const OcepMatcher& matcher = live->monitor().matcher(i);
      live_counts.add(matcher.stats());
      const std::vector<Match>& got = matcher.subset().matches();
      same = got.size() == t.subset[i].size();
      for (std::size_t m = 0; same && m < got.size(); ++m) {
        same = got[m].bindings == t.subset[i][m].bindings;
      }
    }
    if (!same || !(live_counts == t.counts)) {
      pass.fail(t.name + ": final matches differ from the in-process replay");
    }
    counts += live_counts;
    if (t.paced) {
      samples.tenant_ingest_p50_us.push_back(quantile(t.latency_us, 0.5));
      if (traced) {
        samples.ingest_us.insert(samples.ingest_us.end(),
                                 t.latency_us.begin(), t.latency_us.end());
      }
    }
  }

  obs::Registry merged;
  server->merge_metrics(merged);
  std::uint64_t handshakes = 0;
  for (const auto& [key, value] : merged.counter_values()) {
    if (key.rfind("net.handshakes", 0) == 0) {
      handshakes += value;
    }
  }
  std::map<std::string, std::uint64_t> cycle_work = {
      {"events", events_},
      {"tenants", tenants_.size()},
      {"searches", counts.searches},
      {"nodes_explored", counts.nodes_explored},
      {"matches_reported", counts.matches_reported},
      {"store.appends", server->counter_value("store.appends")},
      {"store.syncs", server->counter_value("store.syncs")},
      {"store.bytes_appended", server->counter_value("store.bytes_appended")},
      {"store.delta_records", server->counter_value("store.delta_records")},
      {"store.base_records", server->counter_value("store.base_records")},
      {"store.genesis_records",
       server->counter_value("store.genesis_records")},
      {"net.bytes_in_total", server->counter_value("net.bytes_in_total")},
      {"net.handshakes", handshakes},
  };
  const std::uint64_t migrations =
      server->counter_value("net.conn_migrations");
  server.reset();
  if (cycle_work["store.base_records"] == 0 ||
      cycle_work["store.base_records"] >= tenants_.size()) {
    pass.fail("expected some but not all tenants re-based, got " +
              std::to_string(cycle_work["store.base_records"]));
  }

  // Restarts: construct the server on the store again; nothing may write.
  const std::string before = fingerprint(store_dir_);
  std::uint64_t restored = 0;
  std::uint64_t events_restored = 0;
  for (std::size_t r = 0; r < kRestarts; ++r) {
    pass.attempted += 1;
    cpus.pin(index);
    const std::int64_t begin = now_ns();
    auto again = std::make_unique<net::Server>(restart_config);
    const std::int64_t ready = now_ns();
    samples.restart_ns.push_back(static_cast<double>(ready - begin));
    tracer.span("restart", begin, ready, cycle_span);
    restored = again->counter_value("net.tenants_restored");
    events_restored = 0;
    std::string problem;
    for (const auto& tenant : tenants_) {
      net::Tenant* live = again->find_tenant(tenant->name);
      if (live == nullptr || live->state() != net::TenantState::kComplete ||
          live->monitor().events_seen() != tenant->stream.events.size()) {
        problem = tenant->name + " not restored with its events";
        break;
      }
      events_restored += live->monitor().events_seen();
    }
    again.reset();
    if (restored != tenants_.size() || !problem.empty()) {
      pass.fail("restart: " + (problem.empty() ? std::string("tenant count")
                                               : problem));
    }
    if (traced) {
      const std::int64_t scan = now_ns();
      for (std::size_t s = 0; s < kShards; ++s) {
        static_cast<void>(store::TenantStore::read_images(
            store_dir_ + "/shard-" + std::to_string(s)));
      }
      const std::int64_t scanned = now_ns();
      samples.scan_ns.push_back(static_cast<double>(scanned - scan));
      tracer.span("store.scan", scan, scanned, cycle_span);
    }
  }
  if (fingerprint(store_dir_) != before) {
    pass.fail("a restart wrote to the store");
  }
  cycle_work["net.tenants_restored"] = restored;
  cycle_work["net.events_restored"] = events_restored;

  cpus.unpin();
  tracer.close(cycle_span, now_ns());

  if (work.empty()) {
    work = cycle_work;
  } else if (work != cycle_work) {
    pass.fail("a cycle did other work than the first");
  }
  samples.conn_migrations = migrations;
  samples.core = counts;
}

void ServeDurable::replay_offline(double budget_s, Pass& pass, bool traced) {
  // The daemon's matcher cost cannot be timed from outside, so
  // term_p50_us (and, traced, core.on_event_ns, pattern.compile_us and the
  // poet costs) stand in with the tenants' inputs replayed through an
  // in-process Monitor: figures of the Monitor, not of serving.
  std::vector<double> term_ns, all_ns, compile_ns, append_ns, encode_ns,
      decode_ns;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t round = 0; round < 2 || now_ns() < deadline; ++round) {
    cpus_.pin(static_cast<std::size_t>((now_ns() - start) / kReplayStintNs));
    for (const auto& tenant : tenants_) {
      Replayer replayer(pool_, tenant->stream, patterns());
      std::string error;
      const RoundResult r = replayer.run(nullptr, traced, error);
      term_ns.push_back(r.searched_p50_ns);
      all_ns.push_back(r.all_p50_ns);
      if (!traced) {
        continue;
      }
      compile_ns.insert(compile_ns.end(), r.compile_ns.begin(),
                        r.compile_ns.end());
      const PoetCost cost = poet_cost(pool_, tenant->stream, error);
      if (!error.empty()) {
        pass.fail(tenant->name + ": " + error);
      }
      append_ns.push_back(cost.append_ns);
      encode_ns.push_back(cost.encode_ns);
      decode_ns.push_back(cost.decode_ns);
    }
  }
  cpus_.unpin();
  pass.e2e.term_p50_us = fast_state(term_ns) / 1e3;
  if (traced) {
    std::map<std::string, double>& l = pass.layer;
    l["core.on_event_ns"] = fast_state(all_ns);
    l["pattern.compile_us"] = fast_state(compile_ns) / 1e3;
    l["poet.append_ns"] = fast_state(append_ns);
    l["poet.encode_ns_per_event"] = fast_state(encode_ns);
    l["poet.decode_ns_per_event"] = fast_state(decode_ns);
  }
}

Pass ServeDurable::measure(double budget_s, Tracer& tracer) {
  Pass pass;
  PassSamples samples;
  PeakMemory memory;
  memory.reset();
  const double cycles_s = budget_s * (1 - kReplayShare);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cycles_s * 1e9);
  std::size_t cycles = 0;
  do {
    cycle(cycles, pass, samples, tracer, pass.work);
    ++cycles;
    memory.sample();
  } while (now_ns() < deadline);
  fs::remove_all(store_dir_);
  replay_offline(budget_s - cycles_s, pass, tracer.on());

  pass.e2e.setup_s = serve_state(samples.restart_ns) / 1e9;
  pass.e2e.events_per_s = 1e9 / serve_state(samples.flat_ns_per_event);
  pass.e2e.ingest_p50_us = serve_state(samples.tenant_ingest_p50_us);
  pass.e2e.rss_peak_mb = memory.peak_mb();

  const Tail late = summarize(samples.late_ns);
  const Tail ingest = summarize(samples.ingest_us);
  const std::uint64_t paced_events =
      cycles * kProducers * kOpenTenants * kOpenEvents;
  pass.notes.u64("cycles", cycles)
      .num("group_commit_ms", serve_state(samples.commit_ns) / 1e6)
      .num("offered_rate_per_producer", 1e9 / static_cast<double>(kPeriodNs))
      .u64("events_late_by_more_than_a_period", samples.late_events)
      .boolean("generator_fell_behind",
               samples.late_events * 100 > paced_events);
  pass.populations.raw("net.ingest_us", tail_json(ingest, "us"))
      .raw("gen.late_ns", tail_json(late, "ns"))
      .raw("net.handshake_ns", tail_json(summarize(samples.handshake_ns), "ns"))
      .raw("net.fin_wait_ns", tail_json(summarize(samples.fin_ns), "ns"))
      .raw("restart_ns", tail_json(summarize(samples.restart_ns), "ns"));

  if (tracer.on()) {
    std::map<std::string, double>& l = pass.layer;
    const auto count = [&pass](const char* key) {
      return static_cast<double>(pass.work[key]);
    };
    for (const char* key :
         {"store.appends", "store.syncs", "store.bytes_appended",
          "store.delta_records", "store.base_records", "net.bytes_in_total",
          "net.handshakes", "net.tenants_restored", "net.events_restored"}) {
      l[key] = count(key);
    }
    put_core_counts(l, samples.core, events_ * patterns().size());
    l["store.bytes_per_event"] = count("store.bytes_appended") / count("events");
    l["store.events_per_sync"] = count("events") / count("store.syncs");
    l["store.scan_ms"] = serve_state(samples.scan_ns) / 1e6;
    l["store.group_commit_ms"] = serve_state(samples.commit_ns) / 1e6;
    l["net.handshake_us"] = quantile(samples.handshake_ns, 0.5) / 1e3;
    l["net.fin_wait_us"] = quantile(samples.fin_ns, 0.5) / 1e3;
    l["net.write_blocked_ms"] = serve_state(samples.write_blocked_ns) / 1e6;
    l["net.daemon_cpu_us_per_event"] =
        serve_state(samples.daemon_cpu_ns) / 1e3;
    l["net.ingest_p99_us"] = ingest.p99;
    l["gen.late_p50_us"] = late.p50 / 1e3;
    l["gen.late_p99_us"] = late.p99 / 1e3;
    l["net.conn_migrations"] = static_cast<double>(samples.conn_migrations);
  }
  return pass;
}

}  // namespace

std::unique_ptr<Workload> make_serve_durable(std::uint64_t seed,
                                             const std::string& work_dir) {
  return std::make_unique<ServeDurable>(seed, work_dir);
}

}  // namespace perfbench
