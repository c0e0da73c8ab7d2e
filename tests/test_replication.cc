// Warm-standby replication tests (src/net/replicator, src/net/standby,
// src/store/replication): a real primary Server streaming its segment
// logs to a real Standby over loopback TCP, checked with the offline
// byte-prefix divergence report (the same code behind
// `ocep_inspect --store A --compare B`).  Labeled `net` in ctest, so the
// whole file runs under ASan in CI.
//
// The failover case forks the actual ocep_served binary (path injected
// via OCEP_SERVED_BIN) so the primary can be SIGKILLed mid-flight like a
// real daemon — promoting an in-process Standby over the replicated
// store must then serve the tenant to golden equivalence with zero
// acknowledged-durable bytes lost.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/string_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/standby.h"
#include "poet/dump.h"
#include "store/replication.h"
#include "testing/chaos_harness.h"
#include "testing/faulty_channel.h"

namespace ocep {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string golden_bytes() {
  return read_file(std::string(OCEP_SOURCE_DIR) + "/tools/zk962_golden.poet");
}

std::string golden_pattern() {
  return read_file(std::string(OCEP_SOURCE_DIR) + "/tools/zk962.ocep");
}

EventStore golden_store(StringPool& pool) {
  std::istringstream in(golden_bytes());
  return reload_store(in, pool);
}

std::vector<std::string> golden_clean() {
  StringPool pool;
  const EventStore store = golden_store(pool);
  return testing::clean_matches(store, pool, golden_pattern());
}

net::ServerConfig base_config() {
  net::ServerConfig config;
  if (const char* env = std::getenv("OCEP_TEST_SHARDS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      config.shards = static_cast<std::size_t>(n);
    }
  }
  return config;
}

net::ServerConfig store_config(const std::string& dir) {
  net::ServerConfig config = base_config();
  config.store_dir = dir;
  config.flush_interval_ms = 10;
  return config;
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ocep_repl_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

class ServerThread {
 public:
  explicit ServerThread(net::ServerConfig config)
      : server(std::move(config)) {
    thread_ = std::thread([this] { server.run(); });
  }
  ~ServerThread() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server.request_shutdown();
      thread_.join();
    }
  }

  net::Server server;

 private:
  std::thread thread_;
};

/// Runs a Standby event loop on its own thread.  promote() makes run()
/// return and hands back the exit reason; stop() is the shutdown path.
class StandbyThread {
 public:
  explicit StandbyThread(net::StandbyConfig config)
      : standby(std::move(config)) {
    thread_ = std::thread([this] { exit_ = standby.run(); });
  }
  ~StandbyThread() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      standby.request_shutdown();
      thread_.join();
    }
  }

  [[nodiscard]] net::StandbyExit promote() {
    standby.request_promote();
    thread_.join();
    return exit_;
  }

  net::Standby standby;

 private:
  net::StandbyExit exit_ = net::StandbyExit::kShutdown;
  std::thread thread_;
};

bool wait_until(const std::function<bool()>& condition,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= until) {
      return condition();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool wait_counter(net::Server& server, const std::string& key,
                  std::uint64_t at_least) {
  return wait_until([&server, &key, at_least] {
    return server.counter_value(key) >= at_least;
  });
}

net::StreamResult stream_golden(std::uint16_t port, const std::string& tenant,
                                const net::StreamOptions& options = {}) {
  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig config;
  config.port = port;
  config.tenant = tenant;
  config.patterns = {golden_pattern()};
  for (int attempt = 0; attempt < 200; ++attempt) {
    const net::StreamResult result =
        net::stream_store(store, pool, config, options);
    if (result.ack.status != net::AckStatus::kRejected ||
        (result.ack.message.find("attached") == std::string::npos &&
         result.ack.message.find("migrating") == std::string::npos)) {
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "tenant '" << tenant << "' never detached";
  return {};
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

/// Steady-state convergence: the replica is a non-empty byte prefix of
/// the primary AND holds exactly as many bytes — i.e. the two store
/// roots are byte-identical.  Safe to poll while the primary is live
/// (an in-flight replica can only lag, never diverge).
bool stores_converged(const std::string& primary, const std::string& replica) {
  try {
    const store::CompareReport report =
        store::compare_store_dirs(primary, replica);
    return report.ok() && report.bytes_compared > 0 &&
           dir_bytes(primary) == dir_bytes(replica);
  } catch (const std::exception&) {
    // A live compactor can collect a segment between the directory
    // scan and its stat; a torn snapshot just means "poll again".
    return false;
  }
}

/// Minimal HTTP/1.0 request against an admin port; empty string on any
/// connection failure (the caller polls).
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path) {
  try {
    net::OwnedFd fd = net::tcp_connect("127.0.0.1", port);
    net::write_all(fd.get(), method + " " + path + " HTTP/1.0\r\n\r\n",
                   2000);
    std::string out;
    char buf[4096];
    while (net::wait_readable(fd.get(), 2000)) {
      const ssize_t n = ::read(fd.get(), buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  } catch (const Error&) {
    return {};
  }
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET", path);
}

// ===================================================================
// Codec: the replication wire grammar round-trips and rejects damage.
// ===================================================================

TEST(ReplCodec, HelloAndStateRoundTripIncrementally) {
  store::ReplHello hello;
  hello.shard_index = 3;
  hello.shard_count = 4;
  const std::string wire = store::encode_repl_hello(hello);

  store::ReplHello decoded;
  // Byte-at-a-time: 0 (need more) until the whole preface is buffered.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    ASSERT_EQ(store::try_decode_repl_hello(wire.substr(0, cut), decoded), 0)
        << "cut " << cut;
  }
  ASSERT_EQ(store::try_decode_repl_hello(wire, decoded),
            static_cast<std::int64_t>(wire.size()));
  EXPECT_EQ(decoded.proto, store::kReplProtoVersion);
  EXPECT_EQ(decoded.shard_index, 3U);
  EXPECT_EQ(decoded.shard_count, 4U);

  std::vector<store::ReplSegmentState> segments(2);
  segments[0] = {1, 16, 0xDEADBEEF};
  segments[1] = {7, 4096, 42};
  const std::string state = store::encode_repl_state(segments);
  std::vector<store::ReplSegmentState> back;
  ASSERT_EQ(store::try_decode_repl_state(state, back),
            static_cast<std::int64_t>(state.size()));
  ASSERT_EQ(back.size(), 2U);
  EXPECT_EQ(back[0].id, 1U);
  EXPECT_EQ(back[0].bytes, 16U);
  EXPECT_EQ(back[0].crc, 0xDEADBEEFU);
  EXPECT_EQ(back[1].id, 7U);
  EXPECT_EQ(back[1].bytes, 4096U);

  // One flipped body byte must read as corruption, not a frame.
  std::string bad = wire;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  EXPECT_EQ(store::try_decode_repl_hello(bad, decoded), -1);
}

TEST(ReplCodec, StreamFramesRoundTripAndRejectCorruption) {
  const std::string raw = "raw segment bytes \x00\x01\x02 with binary";
  const std::string wire = store::encode_repl_open(9) +
                           store::encode_repl_append(9, 16, raw) +
                           store::encode_repl_commit(77) +
                           store::encode_repl_drop(4) +
                           store::encode_repl_ack({77, 9, 16 + raw.size(), 5});

  std::string_view rest = wire;
  store::ReplFrameType type{};
  std::string payload;

  auto next = [&rest, &type, &payload] {
    const std::int64_t used = store::try_decode_repl_frame(rest, type, payload);
    ASSERT_GT(used, 0);
    rest.remove_prefix(static_cast<std::size_t>(used));
  };

  next();
  ASSERT_EQ(type, store::ReplFrameType::kOpenSegment);
  std::uint32_t id = 0;
  ASSERT_TRUE(store::decode_repl_open(payload, id));
  EXPECT_EQ(id, 9U);

  next();
  ASSERT_EQ(type, store::ReplFrameType::kAppend);
  std::uint64_t offset = 0;
  std::string_view bytes;
  ASSERT_TRUE(store::decode_repl_append(payload, id, offset, bytes));
  EXPECT_EQ(id, 9U);
  EXPECT_EQ(offset, 16U);
  EXPECT_EQ(bytes, raw);

  next();
  ASSERT_EQ(type, store::ReplFrameType::kCommit);
  std::uint64_t seq = 0;
  ASSERT_TRUE(store::decode_repl_commit(payload, seq));
  EXPECT_EQ(seq, 77U);

  next();
  ASSERT_EQ(type, store::ReplFrameType::kDrop);
  ASSERT_TRUE(store::decode_repl_drop(payload, id));
  EXPECT_EQ(id, 4U);

  next();
  ASSERT_EQ(type, store::ReplFrameType::kAck);
  store::ReplAck ack;
  ASSERT_TRUE(store::decode_repl_ack(payload, ack));
  EXPECT_EQ(ack.seq, 77U);
  EXPECT_EQ(ack.segment, 9U);
  EXPECT_EQ(ack.offset, 16U + raw.size());
  EXPECT_EQ(ack.records, 5U);
  EXPECT_TRUE(rest.empty());

  // A truncated buffer is need-more, a flipped payload byte is corrupt.
  const std::string one = store::encode_repl_commit(1);
  EXPECT_EQ(store::try_decode_repl_frame(
                std::string_view(one).substr(0, one.size() - 1), type,
                payload),
            0);
  std::string bad = one;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x10);
  EXPECT_EQ(store::try_decode_repl_frame(bad, type, payload), -1);
  // So is a flipped type byte, even one that names another valid type
  // ('S' ^ 1 is 'R', a reset that would wipe the replica).
  std::string retyped = store::encode_repl_open(9);
  retyped[0] = static_cast<char>(retyped[0] ^ 0x01);
  EXPECT_EQ(store::try_decode_repl_frame(retyped, type, payload), -1);
}

TEST(ReplCodec, RecordFrameCountCarriesSplitFrames) {
  // Two segment-log record frames (u32 len | u32 crc | body), shipped in
  // chunks that split both headers and bodies — the carry buffer must
  // keep the count exact.
  auto frame = [](const std::string& body) {
    std::string out;
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    out.append(4, '\0');  // count_record_frames walks lengths, not CRCs
    out += body;
    return out;
  };
  const std::string stream = frame("hello") + frame("second record body");

  std::string pending;
  std::uint64_t count = 0;
  // Feed in 3-byte chunks: every header and body gets split.
  for (std::size_t pos = 0; pos < stream.size(); pos += 3) {
    count += store::count_record_frames(
        pending, std::string_view(stream).substr(pos, 3));
  }
  EXPECT_EQ(count, 2U);
  EXPECT_TRUE(pending.empty());

  // An implausible length (zero) stops the walk instead of buffering
  // garbage forever.
  std::string zeros(8, '\0');
  EXPECT_EQ(store::count_record_frames(pending, zeros), 0U);
}

// ===================================================================
// Live replication: primary Server -> Standby over loopback TCP.
// ===================================================================

TEST(ReplStandby, GoldenStreamReplicatesByteIdentical) {
  const std::string primary_dir = temp_dir("basic_p");
  const std::string replica_dir = temp_dir("basic_f");

  net::StandbyConfig sc;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));

  net::ServerConfig config = store_config(primary_dir);
  config.replicate_host = "127.0.0.1";
  config.replicate_port = sb.standby.port();
  ServerThread st(std::move(config));

  const net::StreamResult result = stream_golden(st.server.port(), "repl");
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);

  // The disk log is the replication buffer: the follower must converge
  // to a byte-identical copy of every shard's store.
  ASSERT_TRUE(wait_until(
      [&] { return stores_converged(primary_dir, replica_dir); },
      std::chrono::milliseconds(15000)));

  // Lag is visible (and zero at steady state) through /healthz.
  ASSERT_TRUE(wait_until([&st] {
    const std::string health = st.server.healthz_json();
    return health.find("\"connected\":true") != std::string::npos &&
           health.find("\"lag_bytes\":0") != std::string::npos &&
           health.find("\"lag_records\":0") != std::string::npos;
  }));
  EXPECT_GE(st.server.counter_value("repl.connects"), 1U);
  EXPECT_GT(st.server.counter_value("repl.bytes_shipped"), 0U);
  EXPECT_GT(st.server.counter_value("repl.acks"), 0U);

  st.stop();
  sb.stop();

  const store::CompareReport report =
      store::compare_store_dirs(primary_dir, replica_dir);
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().message);
  EXPECT_GT(report.bytes_compared, 0U);
}

// The standby's admin plane answers /metrics as Prometheus text, like the
// primary's, with its own standby.* counters in it.
TEST(ReplStandby, MetricsAreServedAsPrometheusText) {
  const std::string primary_dir = temp_dir("metrics_p");
  const std::string replica_dir = temp_dir("metrics_f");

  net::StandbyConfig sc;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));

  net::ServerConfig config = store_config(primary_dir);
  config.replicate_host = "127.0.0.1";
  config.replicate_port = sb.standby.port();
  ServerThread st(std::move(config));

  std::string metrics;
  ASSERT_TRUE(wait_until([&] {
    metrics = http_get(sb.standby.admin_port(), "/metrics");
    return metrics.find("\nocep_standby_hellos ") != std::string::npos;
  })) << metrics;
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0U) << metrics;
  EXPECT_NE(metrics.find("\r\nContent-Type: text/plain; version=0.0.4\r\n"),
            std::string::npos)
      << metrics;

  st.stop();
  sb.stop();
}

// An unreachable follower must never degrade the serving path: the
// primary retries with bounded backoff while tenants stream normally,
// and a follower that appears later catches up from offset zero.
TEST(ReplStandby, UnreachableFollowerThenLateJoinCatchesUp) {
  const std::string primary_dir = temp_dir("late_p");
  const std::string replica_dir = temp_dir("late_f");

  // Reserve a port the standby will occupy later: bind ephemeral, note
  // the number, release it.
  std::uint16_t standby_port = 0;
  {
    net::OwnedFd probe = net::tcp_listen("127.0.0.1", standby_port);
  }

  net::ServerConfig config = store_config(primary_dir);
  config.replicate_host = "127.0.0.1";
  config.replicate_port = standby_port;
  ServerThread st(std::move(config));

  // Full golden stream with nobody listening on the replication target.
  const net::StreamResult result = stream_golden(st.server.port(), "lonely");
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);
  {
    const std::string health = st.server.healthz_json();
    EXPECT_NE(health.find("\"connected\":false"), std::string::npos);
  }

  // Start the follower on the advertised port: the primary's retry loop
  // finds it (backoff caps at 2 s) and replays the whole log.
  net::StandbyConfig sc;
  sc.port = standby_port;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));
  ASSERT_TRUE(wait_until(
      [&] { return stores_converged(primary_dir, replica_dir); },
      std::chrono::milliseconds(15000)));
  ASSERT_TRUE(wait_until([&st] {
    return st.server.healthz_json().find("\"connected\":true") !=
           std::string::npos;
  }));

  st.stop();
  sb.stop();
  EXPECT_TRUE(store::compare_store_dirs(primary_dir, replica_dir).ok());
}

// The span storage tier on the primary — spills through the buffer pool,
// inline rebases, span relocation out of dead segments, fully-dead
// segment collection — all happens as ordinary log
// appends plus segment drops, which is exactly what the replication
// stream carries.  A follower mirroring a compacting primary must
// therefore converge byte-identically, and the tenant must still match
// to golden equivalence (spill-then-fault-back loses nothing).
TEST(ReplStandby, CompactingPrimaryStaysDivergenceFree) {
  const std::string primary_dir = temp_dir("compact_p");
  const std::string replica_dir = temp_dir("compact_f");

  net::StandbyConfig sc;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));

  net::ServerConfig config = store_config(primary_dir);
  config.replicate_host = "127.0.0.1";
  config.replicate_port = sb.standby.port();
  // Aggressive span tier: tiny history cap so leaf histories spill,
  // small segments and rebase threshold so the group commit re-bases and
  // the compactor has dead segments to rewrite while replication is live.
  config.pool_bytes = 64 << 10;
  config.store_segment_bytes = 16 << 10;
  config.store_rebase_bytes = 2048;
  config.tenant.matcher.history_bytes_limit = 512;
  config.detach_linger_ms = 10000;
  ServerThread st(std::move(config));

  const net::StreamResult first = stream_golden(st.server.port(), "compact1");
  ASSERT_TRUE(first.fin_received);
  EXPECT_FALSE(first.fin.degraded);

  // The tier actually engaged: spans were spilled to the log, the group
  // commit re-based, and the compactor ticked.
  ASSERT_TRUE(wait_counter(st.server, "store.span_records", 1));
  ASSERT_TRUE(wait_counter(st.server, "store.base_records", 1));
  ASSERT_TRUE(wait_counter(st.server, "store.compaction_ticks", 1));
  // Lag is fine mid-flight; divergence never is.  A segment the
  // compactor collects can vanish between the compare's directory scan
  // and its stat — a torn snapshot retries, a clean one must be ok.
  ASSERT_TRUE(wait_until([&] {
    try {
      return store::compare_store_dirs(primary_dir, replica_dir).ok();
    } catch (const std::exception&) {
      return false;
    }
  }));

  // A second tenant keeps appends (and relocations) flowing, then the
  // follower must converge to a byte-identical mirror of the compacted
  // store — including any segments compaction collected.
  const net::StreamResult second = stream_golden(st.server.port(), "compact2");
  ASSERT_TRUE(second.fin_received);
  ASSERT_TRUE(wait_until(
      [&] { return stores_converged(primary_dir, replica_dir); },
      std::chrono::milliseconds(30000)))
      << "repl.resyncs=" << st.server.counter_value("repl.resyncs")
      << " store.spans_relocated="
      << st.server.counter_value("store.spans_relocated");

  st.stop();
  sb.stop();

  const store::CompareReport report =
      store::compare_store_dirs(primary_dir, replica_dir);
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().message);
  EXPECT_GT(report.bytes_compared, 0U);

  // Spill-then-fault-back under replication lost no matches.
  net::Tenant* tenant = st.server.find_tenant("compact1");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// ===================================================================
// Chaos: the replication link through a fault-injecting TCP proxy.
// ===================================================================

/// Loopback TCP proxy that forwards primary->follower bytes through a
/// testing::FaultyChannel for the first kFaultChunks read chunks
/// (bit flips, truncations, drops, stalls), then verbatim.  The reverse
/// (ack) direction is forwarded untouched.  Reconnects keep being
/// accepted, so the primary's retry/resync loop can converge once the
/// fault window is spent.
class FaultyProxy {
 public:
  static constexpr std::uint64_t kFaultChunks = 48;

  FaultyProxy(std::uint16_t target_port)
      : target_port_(target_port),
        listener_(net::tcp_listen("127.0.0.1", port_)) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~FaultyProxy() { stop(); }

  void stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    for (Session& session : sessions_) {
      session.close();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t faults() const noexcept {
    return faults_.load();
  }
  [[nodiscard]] std::uint64_t connections() const noexcept {
    return connections_.load();
  }

 private:
  /// ByteSink over a socket; a dead peer just marks the session done.
  struct FdSink final : ByteSink {
    int fd;
    bool dead = false;
    explicit FdSink(int fd_in) : fd(fd_in) {}
    void write(std::string_view bytes) override {
      if (dead) {
        return;
      }
      try {
        net::write_all(fd, bytes, 2000);
      } catch (const Error&) {
        dead = true;
      }
    }
  };

  struct Session {
    net::OwnedFd client;    ///< accepted from the primary
    net::OwnedFd upstream;  ///< connected to the standby
    std::thread forward;
    std::thread reverse;

    void close() {
      // Shut both directions down so whichever pump is mid-read exits.
      if (client.valid()) {
        ::shutdown(client.get(), SHUT_RDWR);
      }
      if (upstream.valid()) {
        ::shutdown(upstream.get(), SHUT_RDWR);
      }
      if (forward.joinable()) {
        forward.join();
      }
      if (reverse.joinable()) {
        reverse.join();
      }
      client.reset();
      upstream.reset();
    }
  };

  void accept_loop() {
    while (!stop_.load()) {
      bool readable = false;
      try {
        readable = net::wait_readable(listener_.get(), 50);
      } catch (const Error&) {
        return;
      }
      if (!readable) {
        continue;
      }
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) {
        continue;
      }
      connections_.fetch_add(1);
      Session session;
      session.client.reset(fd);
      try {
        session.upstream = net::tcp_connect("127.0.0.1", target_port_);
      } catch (const Error&) {
        continue;  // standby gone; primary will retry
      }
      const int client_fd = session.client.get();
      const int upstream_fd = session.upstream.get();
      session.forward = std::thread(
          [this, client_fd, upstream_fd] { pump(client_fd, upstream_fd, true); });
      session.reverse = std::thread(
          [this, client_fd, upstream_fd] { pump(upstream_fd, client_fd, false); });
      sessions_.push_back(std::move(session));
    }
  }

  void pump(int src, int dst, bool mangle) {
    testing::FaultSpec spec;
    spec.seed = 0xC0FFEE;
    spec.drop_per_1000 = 60;
    spec.bitflip_per_1000 = 150;
    spec.truncate_per_1000 = 80;
    FdSink sink(dst);
    testing::FaultyChannel channel(sink, spec);
    char buf[4096];
    while (!stop_.load()) {
      bool readable = false;
      try {
        readable = net::wait_readable(src, 50);
      } catch (const Error&) {
        break;
      }
      if (!readable) {
        continue;
      }
      const ssize_t n = ::read(src, buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      const std::string_view chunk(buf, static_cast<std::size_t>(n));
      const std::uint64_t index =
          mangle ? chunk_counter_.fetch_add(1) : kFaultChunks;
      if (index < kFaultChunks) {
        if (index % 16 == 15) {
          // A stalled link, not just a lossy one.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const std::uint64_t before = channel.stats().faults();
        channel.write(chunk);
        faults_.fetch_add(channel.stats().faults() - before);
      } else {
        sink.write(chunk);
      }
      if (sink.dead) {
        break;
      }
    }
    // Propagate the teardown so the paired pump and both endpoints see
    // EOF instead of a half-open socket.
    ::shutdown(src, SHUT_RDWR);
    ::shutdown(dst, SHUT_RDWR);
  }

  std::uint16_t target_port_;
  std::uint16_t port_ = 0;
  net::OwnedFd listener_;
  std::thread accept_thread_;
  std::vector<Session> sessions_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> chunk_counter_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> connections_{0};
};

// Truncations, bit flips, drops, and stalls on the replication link must
// only ever produce reconnects or resyncs — never a divergent follower
// store.  Framing CRCs reject mangled bytes before they touch disk, so
// the replica stays a byte prefix of the primary throughout.
TEST(ReplChaos, FaultyLinkReconnectsOrResyncsNeverDiverges) {
  const std::string primary_dir = temp_dir("chaos_p");
  const std::string replica_dir = temp_dir("chaos_f");

  net::StandbyConfig sc;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));
  FaultyProxy proxy(sb.standby.port());

  net::ServerConfig config = store_config(primary_dir);
  config.replicate_host = "127.0.0.1";
  config.replicate_port = proxy.port();
  ServerThread st(std::move(config));

  // First tenant streams while the link is being mangled...
  const net::StreamResult first = stream_golden(st.server.port(), "chaos1");
  ASSERT_TRUE(first.fin_received);
  EXPECT_FALSE(first.fin.degraded);

  // ...and at no point may the replica diverge (lag is fine).
  EXPECT_TRUE(store::compare_store_dirs(primary_dir, replica_dir).ok());

  // A second tenant keeps bytes flowing after the fault window closes,
  // flushing any mangled tail out of the follower's decoder.
  const net::StreamResult second = stream_golden(st.server.port(), "chaos2");
  ASSERT_TRUE(second.fin_received);

  ASSERT_TRUE(wait_until(
      [&] { return stores_converged(primary_dir, replica_dir); },
      std::chrono::milliseconds(30000)))
      << "proxy faults=" << proxy.faults()
      << " reconnects=" << proxy.connections()
      << " repl.resyncs=" << st.server.counter_value("repl.resyncs")
      << " repl.disconnects=" << st.server.counter_value("repl.disconnects");

  // The fault window actually bit: injected faults forced the link to
  // recover at least once (reconnect or resync).
  EXPECT_GT(proxy.faults(), 0U);
  EXPECT_GE(proxy.connections(), 2U);

  st.stop();
  proxy.stop();
  sb.stop();

  const store::CompareReport report =
      store::compare_store_dirs(primary_dir, replica_dir);
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().message);
  EXPECT_GT(report.bytes_compared, 0U);
}

// ===================================================================
// Failover: SIGKILL the real primary daemon, promote the follower.
// ===================================================================

struct ChildDaemon {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout

  ~ChildDaemon() {
    if (out >= 0) {
      ::close(out);
    }
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  void kill_hard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }

  /// Reads stdout until a line containing `needle` arrives.
  std::string read_line_containing(const std::string& needle) {
    std::string buffer;
    while (net::wait_readable(out, 10000)) {
      char byte = 0;
      const ssize_t n = ::read(out, &byte, 1);
      if (n <= 0) {
        break;
      }
      if (byte == '\n') {
        if (buffer.find(needle) != std::string::npos) {
          return buffer;
        }
        buffer.clear();
      } else {
        buffer.push_back(byte);
      }
    }
    return {};
  }
};

/// fork+exec the real ocep_served binary with stdout piped back.  The
/// argv vector is fully built before fork so the child only performs
/// async-signal-safe calls (dup2/execv/_exit).
ChildDaemon spawn_served(const std::vector<std::string>& args) {
  static const std::string binary = OCEP_SERVED_BIN;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  ChildDaemon child;
  child.pid = pid;
  child.out = fds[0];
  return child;
}

// The acceptance bar: a live primary process is SIGKILLed mid-stream,
// the in-process follower is promoted, and the promoted store (a) passes
// the offline byte-prefix comparison against the dead primary's
// directory and (b) serves the tenant back to golden equivalence when
// the producer reconnects — zero acknowledged-durable bytes lost.
TEST(ReplFailover, KillPrimaryPromoteFollowerClientsResume) {
  const std::string primary_dir = temp_dir("fail_p");
  const std::string replica_dir = temp_dir("fail_f");
  constexpr std::uint64_t kHalf = 171;

  net::StandbyConfig sc;
  sc.store_dir = replica_dir;
  StandbyThread sb(std::move(sc));

  ChildDaemon primary = spawn_served({
      "--port", "0", "--admin-port", "0",
      "--store-dir", primary_dir,
      "--flush-interval-ms", "10",
      "--linger-ms", "10000",
      "--replicate-to",
      "127.0.0.1:" + std::to_string(sb.standby.port()),
  });
  ASSERT_GT(primary.pid, 0);
  const std::string banner = primary.read_line_containing("ingest port");
  ASSERT_FALSE(banner.empty()) << "primary never announced its ports";
  unsigned ingest_port = 0;
  unsigned admin_port = 0;
  ASSERT_EQ(std::sscanf(banner.c_str(),
                        "ocep_served: ingest port %u admin port %u",
                        &ingest_port, &admin_port),
            2)
      << banner;

  // Stream half the golden store, then vanish (no BYE, no FIN) — the
  // shape of a producer alive across a primary crash.
  net::StreamOptions half;
  half.max_events = kHalf;
  const net::StreamResult first = stream_golden(
      static_cast<std::uint16_t>(ingest_port), "failover", half);
  ASSERT_EQ(first.ack.status, net::AckStatus::kFresh) << first.ack.message;

  // Make tenant input durable before the kill, not just the genesis
  // record the handshake wrote: once the primary has released an event,
  // POST /checkpoint commits every byte it has read.  A group commit that
  // ran before the first event's bytes arrived would otherwise leave the
  // follower a delta with no event to resume from.
  ASSERT_TRUE(wait_until([&] {
    const std::string health = http_get(
        static_cast<std::uint16_t>(admin_port), "/healthz");
    const std::size_t at = health.find("\"name\":\"failover\"");
    const std::size_t events = health.find("\"events\":", at);
    return at != std::string::npos && events != std::string::npos &&
           std::strtoull(health.c_str() + events + 9, nullptr, 10) > 0;
  }));
  const std::string checkpoint = http_request(
      static_cast<std::uint16_t>(admin_port), "POST", "/checkpoint");
  ASSERT_NE(checkpoint.find("{\"written\":"), std::string::npos) << checkpoint;

  // Wait until everything the primary made durable is acked by the
  // follower: /healthz lag zero AND byte-identical store roots.
  ASSERT_TRUE(wait_until(
      [&] {
        const std::string health = http_get(
            static_cast<std::uint16_t>(admin_port), "/healthz");
        return health.find("\"connected\":true") != std::string::npos &&
               health.find("\"lag_bytes\":0") != std::string::npos &&
               health.find("\"lag_records\":0") != std::string::npos &&
               stores_converged(primary_dir, replica_dir);
      },
      std::chrono::milliseconds(15000)));

  primary.kill_hard();  // SIGKILL: no drain, no flush, no goodbye

  // Promote: the standby commits its replicas, releases its ports, and
  // run() reports kPromote — the daemon would now construct a Server
  // over the same store, which this test does in-process.
  ASSERT_EQ(sb.promote(), net::StandbyExit::kPromote);

  // Offline divergence check, exactly `ocep_inspect --store A --compare B`.
  const store::CompareReport report =
      store::compare_store_dirs(primary_dir, replica_dir);
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().message);
  EXPECT_GT(report.bytes_compared, 0U);

  net::ServerConfig promoted_config = store_config(replica_dir);
  promoted_config.detach_linger_ms = 10000;
  ServerThread promoted(std::move(promoted_config));
  ASSERT_TRUE(wait_counter(promoted.server, "net.tenants_restored", 1));

  // The producer reconnects to the promoted follower and finishes from
  // its watermark; any flush-window hole heals via snapshot resync.
  net::StreamOptions rest;
  rest.skip_below = kHalf;
  const net::StreamResult second = stream_golden(
      promoted.server.port(), "failover", rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed)
      << second.ack.message;
  EXPECT_GT(second.ack.resume_position, 0U);
  EXPECT_LE(second.ack.resume_position, kHalf);
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  promoted.stop();

  net::Tenant* tenant = promoted.server.find_tenant("failover");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// ===================================================================
// Disk-fault degradation: flush failures must not kill the daemon.
// ===================================================================

// An ENOSPC/EIO-shaped fault on the flush tick keeps the daemon serving
// from RAM: appends fail and are retried with backoff, store.append_errors
// counts them, /healthz flags the shard degraded — and once the disk
// heals, the queued deltas land and a restart proves nothing was lost.
TEST(ReplDegraded, FlushFaultKeepsServingThenHealsWithoutLoss) {
  const std::string dir = temp_dir("degraded");

  std::atomic<bool> fail{false};
  net::ServerConfig config = store_config(dir);
  config.detach_linger_ms = 10000;
  config.store_crash_hook = [&fail](store::CrashEdge edge,
                                    std::string_view detail) {
    if (fail.load(std::memory_order_relaxed) &&
        edge == store::CrashEdge::kWrite && detail.rfind("pre:", 0) == 0) {
      throw StoreError("injected EIO on append");
    }
  };
  auto st = std::make_unique<ServerThread>(std::move(config));
  const std::uint16_t port = st->server.port();

  // A first tenant lands cleanly so the store has healthy content.
  const net::StreamResult before = stream_golden(port, "steady");
  ASSERT_TRUE(before.fin_received);
  ASSERT_TRUE(wait_counter(st->server, "store.delta_records", 1));

  // Disk goes bad: every flush-tick append now throws.  The daemon must
  // keep accepting and matching — only durability degrades.
  fail.store(true);
  const net::StreamResult during = stream_golden(port, "ironclad");
  ASSERT_TRUE(during.fin_received);
  EXPECT_FALSE(during.fin.degraded);
  ASSERT_TRUE(wait_counter(st->server, "store.append_errors", 1));
  ASSERT_TRUE(wait_until([&st] {
    return st->server.healthz_json().find("\"degraded\":true") !=
           std::string::npos;
  }));

  // Disk heals: the retry loop (capped backoff) lands the queued deltas
  // and the degraded flag clears.
  fail.store(false);
  ASSERT_TRUE(wait_until(
      [&st] {
        return st->server.healthz_json().find("\"degraded\":true") ==
               std::string::npos;
      },
      std::chrono::milliseconds(15000)));
  st->stop();  // graceful drain flushes whatever remains

  // Nothing streamed during the outage was lost: a restart replays the
  // log and rebuilds the tenant complete at the full watermark, without
  // any producer help (it finished during the outage).
  net::ServerConfig config2 = store_config(dir);
  config2.detach_linger_ms = 10000;
  ServerThread st2(std::move(config2));
  ASSERT_TRUE(wait_counter(st2.server, "net.tenants_restored", 1));
  ASSERT_TRUE(wait_until([&st2] {
    const std::string health = st2.server.healthz_json();
    const std::size_t at = health.find("\"name\":\"ironclad\"");
    return at != std::string::npos &&
           health.find("\"state\":\"complete\"", at) != std::string::npos &&
           health.find("\"events\":342", at) != std::string::npos;
  }));
  st2.stop();

  net::Tenant* tenant = st2.server.find_tenant("ironclad");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

}  // namespace
}  // namespace ocep
