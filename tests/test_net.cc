// Loopback tests for the serving layer (src/net): a real ocep_served
// reactor on its own thread, real TCP connections from producer threads,
// checked against the clean-channel golden match set
// (tools/zk962_golden.poet — 342 events, 4 traces, 1 representative
// match).  Labeled `net` in ctest; the multi-client cases also run under
// TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
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
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fd_stream.h"
#include "common/string_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard.h"
#include "net/tenant_host.h"
#include "obs/metrics.h"
#include "poet/dump.h"
#include "random_computation.h"
#include "testing/chaos_harness.h"

namespace ocep {
namespace {

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

/// The clean-channel reference match signature set.
std::vector<std::string> golden_clean() {
  StringPool pool;
  const EventStore store = golden_store(pool);
  return testing::clean_matches(store, pool, golden_pattern());
}

/// Default server config honouring OCEP_TEST_SHARDS, so CI can run the
/// whole suite against a single-reactor and a 4-shard daemon without
/// duplicating every test.
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

/// Runs a Server on its own thread; stop() is idempotent and joins.
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

/// Deadline-based readiness poll: true as soon as `condition` holds,
/// false only after `deadline` elapses with it still false.  The one
/// blessed way this file waits on cross-thread state — no fixed-iteration
/// sleep loops, which under TSan or load turn into flaky truncated waits.
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

/// Polls a registry counter until it reaches `at_least` (5 s deadline).
bool wait_counter(net::Server& server, const std::string& key,
                  std::uint64_t at_least) {
  return wait_until(
      [&server, &key, at_least] {
        return server.counter_value(key) >= at_least;
      });
}

/// One HTTP/1.0 request to an admin plane; the whole response (status
/// line, headers and body) as the server wrote it before closing.
std::string admin_request(std::uint16_t port, const std::string& method,
                          const std::string& target) {
  net::OwnedFd fd = net::tcp_connect("127.0.0.1", port);
  net::write_all(fd.get(), method + " " + target + " HTTP/1.0\r\n\r\n", 5000);
  std::string response;
  char chunk[4096];
  while (net::wait_readable(fd.get(), 5000)) {
    const net::IoResult got = net::read_some(fd.get(), chunk, sizeof(chunk));
    if (got.status != net::IoStatus::kOk) {
      break;
    }
    response.append(chunk, got.bytes);
  }
  return response;
}

/// Streams the golden store as `tenant`, retrying while the server still
/// considers a predecessor connection attached (detach is asynchronous).
net::StreamResult stream_golden(std::uint16_t port, const std::string& tenant,
                                const net::StreamOptions& options = {},
                                std::vector<std::string> patterns = {}) {
  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig config;
  config.port = port;
  config.tenant = tenant;
  config.patterns =
      patterns.empty() ? std::vector<std::string>{golden_pattern()}
                       : std::move(patterns);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const net::StreamResult result =
        net::stream_store(store, pool, config, options);
    // Two transient rejections: "attached" (a dead predecessor connection
    // not reaped yet) and "migrating" (the tenant is mid-hop between
    // shards).  Both clear in milliseconds.
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

TEST(NetProtocol, HandshakeRoundTripsIncrementally) {
  net::HandshakeRequest request;
  request.flags = net::kFlagResume;
  request.tenant = "tenant-a";
  request.patterns = {"p1", "p2"};
  const std::string wire = net::encode_handshake(request);

  net::HandshakeRequest decoded;
  std::string error;
  std::size_t pos = 0;
  // Byte-at-a-time: kNeedMore until the last byte, pos untouched.
  for (std::size_t cut = 0; cut + 1 < wire.size(); ++cut) {
    ASSERT_EQ(net::parse_handshake(wire.substr(0, cut), pos, decoded, error),
              net::ParseStatus::kNeedMore);
    ASSERT_EQ(pos, 0U);
  }
  ASSERT_EQ(net::parse_handshake(wire, pos, decoded, error),
            net::ParseStatus::kDone);
  EXPECT_EQ(pos, wire.size());
  EXPECT_EQ(decoded.tenant, "tenant-a");
  EXPECT_EQ(decoded.patterns, request.patterns);
  EXPECT_TRUE(decoded.want_resume());
}

TEST(NetProtocol, AckCarriesOwningShardAndDefaultsToZero) {
  net::HandshakeAck ack;
  ack.status = net::AckStatus::kResumed;
  ack.resume_position = 42;
  ack.message = "hi";
  ack.shard = 3;
  const std::string wire = net::encode_ack(ack);

  net::HandshakeAck decoded;
  std::string error;
  std::size_t pos = 0;
  ASSERT_EQ(net::parse_ack(wire, pos, decoded, error), net::ParseStatus::kDone);
  EXPECT_EQ(decoded.shard, 3U);
  EXPECT_EQ(decoded.resume_position, 42U);

  // Default round trip: shard 0, the single-reactor daemon's answer.
  pos = 0;
  const std::string plain = net::encode_ack(net::HandshakeAck{});
  ASSERT_EQ(net::parse_ack(plain, pos, decoded, error),
            net::ParseStatus::kDone);
  EXPECT_EQ(decoded.shard, 0U);
}

TEST(NetProtocol, CorruptHandshakeIsRejected) {
  net::HandshakeRequest request;
  request.tenant = "t";
  std::string wire = net::encode_handshake(request);
  wire[wire.size() - 1] = static_cast<char>(wire[wire.size() - 1] ^ 0x40);
  std::size_t pos = 0;
  net::HandshakeRequest decoded;
  std::string error;
  EXPECT_EQ(net::parse_handshake(wire, pos, decoded, error),
            net::ParseStatus::kError);
  EXPECT_FALSE(error.empty());
}

TEST(NetProtocol, ReverseFramesRoundTrip) {
  ResyncRequest resync;
  resync.request_id = 7;
  resync.next_position = 123;
  const std::string wire = net::encode_resync_frame(resync) +
                           net::encode_fin_frame(true, "why") +
                           net::encode_notice_frame("note");
  std::size_t pos = 0;
  net::ReverseFrame frame;
  std::string error;
  ASSERT_EQ(net::parse_reverse_frame(wire, pos, frame, error),
            net::ParseStatus::kDone);
  EXPECT_EQ(frame.type, net::kReverseResync);
  EXPECT_EQ(frame.resync.request_id, 7U);
  EXPECT_EQ(frame.resync.next_position, 123U);
  ASSERT_EQ(net::parse_reverse_frame(wire, pos, frame, error),
            net::ParseStatus::kDone);
  EXPECT_EQ(frame.type, net::kReverseFin);
  EXPECT_TRUE(frame.degraded);
  EXPECT_EQ(frame.message, "why");
  ASSERT_EQ(net::parse_reverse_frame(wire, pos, frame, error),
            net::ParseStatus::kDone);
  EXPECT_EQ(frame.type, net::kReverseNotice);
  EXPECT_EQ(frame.message, "note");
  EXPECT_EQ(pos, wire.size());
}

// A tenant whose monitor image outgrows 1 MiB (the cap on a symbol
// string inside a dump) still checkpoints and restores: the nested blobs
// are bounded by the CRC-checked tenant image, nothing else.
TEST(NetTenant, ImageLargerThanOneMiBRestoresByteIdentical) {
  StringPool pool;
  testing::RandomComputationOptions options;
  options.traces = 4;
  options.events = 120000;
  options.seed = 5;
  const EventStore store = testing::random_computation(pool, options);
  struct StringSink final : ByteSink {
    void write(std::string_view bytes) override { wire.append(bytes); }
    std::string wire;
  } sink;
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  SessionServer producer(sink, pool, names);
  for (std::uint64_t pos = 0; pos < store.event_count(); ++pos) {
    const EventId id = store.arrival(pos);
    producer.write(store.event(id), store.clock(id));
  }
  producer.finish();

  const std::vector<std::string> patterns = {
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n"};
  net::Tenant original("big", net::TenantConfig{});
  original.register_patterns(patterns);
  original.feed(sink.wire);
  ASSERT_EQ(original.monitor().events_seen(), store.event_count());
  std::stringstream image;
  original.checkpoint(image);
  const std::string bytes = image.str();
  const net::TenantCheckpoint saved = net::read_tenant_checkpoint(image);
  ASSERT_GT(saved.monitor_blob.size(), 1U << 20U);

  net::Tenant restored("big", net::TenantConfig{});
  std::istringstream in(bytes);
  restored.restore(in);
  EXPECT_EQ(restored.state(), net::TenantState::kComplete);
  std::stringstream again;
  restored.checkpoint(again);
  EXPECT_EQ(net::read_tenant_checkpoint(again).monitor_blob,
            saved.monitor_blob);
}

// The host half of the reactor split, driven without a socket, a thread
// or a sleep: producer bytes come from a string, time is an argument.  A
// tenant is attached, fed half its stream and committed; a host rebuilt
// on the same store resumes it to the golden match set; detached and
// past its linger, a commit spills it (spill_bytes = 1), and the next
// attach reloads it and answers with the FIN.
TEST(NetHost, AttachFeedCommitRestoreAndSpillWithoutSockets) {
  const std::string dir =
      ::testing::TempDir() + "ocep_net_host_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  constexpr std::uint64_t kHalf = 171;

  // The producer's whole stream, and where event kHalf's frame starts.
  StringPool pool;
  const EventStore store = golden_store(pool);
  struct StringSink final : ByteSink {
    void write(std::string_view bytes) override { wire.append(bytes); }
    std::string wire;
  } sink;
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  SessionServer producer(sink, pool, names);
  std::size_t half_bytes = 0;
  for (std::uint64_t pos = 0; pos < store.event_count(); ++pos) {
    if (pos == kHalf) {
      half_bytes = sink.wire.size();
    }
    const EventId id = store.arrival(pos);
    producer.write(store.event(id), store.clock(id));
  }
  producer.finish();
  const std::string_view wire = sink.wire;

  net::ServerConfig config;
  config.store_dir = dir;
  config.spill_bytes = 1;
  config.detach_linger_ms = 50;
  net::PlacementMap placement(1);
  std::atomic<std::size_t> tenant_total{0};
  obs::Registry registry;
  net::HandshakeRequest request;
  request.tenant = "host";
  request.patterns = {golden_pattern()};
  const auto nothing_attached = [](std::uint64_t, net::Outbox&) {
    ADD_FAILURE() << "no tenant is attached";
  };
  const std::string clean_fin = net::encode_fin_frame(false, "");

  {
    net::TenantHost host(config, 0, placement, tenant_total, registry, 0);
    ASSERT_EQ(host.attach(request, 1, 0).status, net::AckStatus::kFresh);
    net::Outbox out;
    ASSERT_TRUE(host.feed("host", wire.substr(0, half_bytes), 1, out));
    EXPECT_FALSE(out.fin);
    EXPECT_EQ(out.frames, "");
    ASSERT_EQ(host.checkpoint(), std::optional<std::size_t>(1));
  }  // gone mid-stream, as a crash right after the commit leaves it

  net::TenantHost host(config, 0, placement, tenant_total, registry, 100);
  const net::HandshakeAck ack = host.attach(request, 2, 100);
  ASSERT_EQ(ack.status, net::AckStatus::kResumed) << ack.message;
  EXPECT_EQ(ack.resume_position, kHalf);
  net::Outbox out;
  ASSERT_TRUE(host.feed("host", wire.substr(half_bytes), 101, out));
  EXPECT_TRUE(out.fin);
  EXPECT_EQ(out.frames, clean_fin);
  net::Tenant* tenant = host.find_tenant("host");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());

  host.detach("host", 2, 102);
  host.tick(102 + config.detach_linger_ms, nothing_attached);
  ASSERT_EQ(host.checkpoint(), std::optional<std::size_t>(1));
  EXPECT_EQ(host.find_tenant("host"), nullptr);
  EXPECT_EQ(host.tenant_count(), 1U);
  EXPECT_EQ(registry.counter_value("net.tenants_spilled"), 1U);

  ASSERT_EQ(host.attach(request, 3, 200).status, net::AckStatus::kResumed);
  out = {};
  ASSERT_TRUE(host.feed("host", {}, 200, out));
  EXPECT_TRUE(out.fin);
  EXPECT_EQ(out.frames, clean_fin);
  EXPECT_EQ(registry.counter_value("net.tenants_unspilled"), 1U);
  tenant = host.find_tenant("host");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

TEST(NetServe, SingleClientMatchesGolden) {
  ServerThread st(base_config());
  const net::StreamResult result =
      stream_golden(st.server.port(), "solo");
  ASSERT_EQ(result.ack.status, net::AckStatus::kFresh);
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant("solo");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// The acceptance bar: 8 concurrent clients, one tenant each, all equal to
// the clean-channel reference.  Runs under TSan in CI (-R MultiClient).
TEST(NetServe, MultiClientConcurrentGoldenEquivalence) {
  constexpr int kClients = 8;
  ServerThread st(base_config());
  const std::uint16_t port = st.server.port();

  std::vector<std::thread> producers;
  std::vector<net::StreamResult> results(kClients);
  producers.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    producers.emplace_back([&results, port, i] {
      results[static_cast<std::size_t>(i)] =
          stream_golden(port, "t" + std::to_string(i));
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  st.stop();

  const std::vector<std::string> clean = golden_clean();
  for (int i = 0; i < kClients; ++i) {
    SCOPED_TRACE("tenant t" + std::to_string(i));
    const net::StreamResult& result = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(result.fin_received);
    EXPECT_FALSE(result.fin.degraded);
    net::Tenant* tenant = st.server.find_tenant("t" + std::to_string(i));
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
    EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), clean);
  }
}

TEST(NetServe, ByteAtATimeTrickleReassembles) {
  ServerThread st(base_config());
  net::StreamOptions options;
  options.session.max_frame_payload = 1U << 12U;
  const std::uint16_t port = st.server.port();

  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig config;
  config.port = port;
  config.tenant = "trickle";
  config.patterns = {golden_pattern()};
  config.write_chunk = 1;  // one byte per send()
  const net::StreamResult result =
      net::stream_store(store, pool, config, options);
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant("trickle");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// Satellite regression: a client dying mid-frame must finalize its tenant
// through the session's degradation machinery — monitor retained and
// reporting, never leaked, never wedging the server.
TEST(NetServe, MidFrameDisconnectFinalizesDegraded) {
  net::ServerConfig config = base_config();
  config.detach_linger_ms = 100;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  StringPool pool;
  const EventStore store = golden_store(pool);
  {
    // Capture the session encoding, then send a prefix that ends inside a
    // frame (three bytes short of a frame boundary).
    class Capture final : public ByteSink {
     public:
      void write(std::string_view bytes) override { data.append(bytes); }
      std::string data;
    };
    Capture capture;
    std::vector<Symbol> names;
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      names.push_back(store.trace_name(t));
    }
    SessionServer session(capture, pool, names);
    for (std::uint64_t pos = 0; pos < store.event_count() / 2; ++pos) {
      const EventId id = store.arrival(pos);
      session.write(store.event(id), store.clock(id));
    }
    net::ConnectorConfig cc;
    cc.port = port;
    cc.tenant = "lossy";
    cc.patterns = {golden_pattern()};
    net::Connector connector(cc);
    ASSERT_NE(connector.ack().status, net::AckStatus::kRejected);
    connector.write(
        std::string_view(capture.data).substr(0, capture.data.size() - 3));
    connector.close();  // abrupt death, mid-frame
  }

  ASSERT_TRUE(wait_counter(st.server, "net.linger_finalized", 1));

  // The server must keep serving: a second tenant streams cleanly while
  // the first sits finalized.
  const net::StreamResult clean_run = stream_golden(port, "healthy");
  ASSERT_TRUE(clean_run.fin_received);
  EXPECT_FALSE(clean_run.fin.degraded);
  st.stop();

  net::Tenant* lossy = st.server.find_tenant("lossy");
  ASSERT_NE(lossy, nullptr);
  EXPECT_EQ(lossy->state(), net::TenantState::kDegraded);
  EXPECT_GT(lossy->monitor().events_seen(), 0U);
  EXPECT_LT(lossy->monitor().events_seen(), 342U);
  // Whatever it matched is consistent with (a prefix of) the clean run.
  EXPECT_TRUE(testing::is_subset_of(
      testing::match_signature(lossy->monitor(), 0), golden_clean()));

  net::Tenant* healthy = st.server.find_tenant("healthy");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(testing::match_signature(healthy->monitor(), 0), golden_clean());
}

// Kill a producer mid-stream, reconnect, and resume past a deliberate gap:
// the server-side session requests a resync over the reverse channel and
// the snapshot frames refill the hole over TCP.
TEST(NetServe, KillAndReconnectResumesViaSnapshotResync) {
  net::ServerConfig config = base_config();
  config.detach_linger_ms = 10000;  // survive the reconnect window
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  net::StreamOptions first_half;
  first_half.max_events = 150;
  const net::StreamResult first = stream_golden(port, "phoenix", first_half);
  ASSERT_EQ(first.ack.status, net::AckStatus::kFresh);
  EXPECT_FALSE(first.fin_received);  // killed before BYE

  // Reconnect, suppressing everything below position 200.  The server saw
  // at most 150 events, so the hole [watermark, 200) is real and only a
  // snapshot resync over the reverse channel can fill it.
  net::StreamOptions rest;
  rest.skip_below = 200;
  const net::StreamResult second = stream_golden(port, "phoenix", rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed);
  EXPECT_GT(second.ack.resume_position, 0U);
  ASSERT_TRUE(second.fin_received);
  // Recovered purely via resync: NOT degraded.
  EXPECT_FALSE(second.fin.degraded);
  EXPECT_GT(second.session.resyncs_served, 0U);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant("phoenix");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

TEST(NetServe, ByteBudgetShedsTenantAndRejectsReattach) {
  net::ServerConfig config = base_config();
  config.max_tenant_bytes = 2048;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  // The shed closes the connection while the producer may still be
  // writing; both a degraded FIN and a dropped connection are valid
  // producer-side observations.
  try {
    const net::StreamResult result = stream_golden(port, "greedy");
    if (result.fin_received) {
      EXPECT_TRUE(result.fin.degraded);
    }
  } catch (const net::NetError&) {
    // Producer lost the race to the close; the server-side state decides.
  }
  ASSERT_TRUE(wait_counter(st.server, "net.tenants_shed", 1));

  // Re-attaching a shed tenant is refused.
  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig cc;
  cc.port = port;
  cc.tenant = "greedy";
  cc.patterns = {golden_pattern()};
  const net::StreamResult retry = net::stream_store(store, pool, cc, {});
  EXPECT_EQ(retry.ack.status, net::AckStatus::kRejected);
  EXPECT_NE(retry.ack.message.find("shed"), std::string::npos);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant("greedy");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kShed);
}

TEST(NetServe, AdminPlaneServesMetricsAndHealth) {
  ServerThread st(base_config());
  const net::StreamResult result = stream_golden(st.server.port(), "adm");
  ASSERT_TRUE(result.fin_received);

  const auto http_get = [&](const std::string& target) {
    return admin_request(st.server.admin_port(), "GET", target);
  };

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("net_accepted"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("tenant=\"adm\""), std::string::npos);

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("\"adm\""), std::string::npos);
  EXPECT_NE(health.find("\"state\":\"complete\""), std::string::npos);

  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  st.stop();
}

// spill_bytes, pool_bytes and replicate_host act only on the store; a
// daemon given one without store_dir refuses to start and names the
// field, instead of silently running without it.
TEST(NetServe, StoreOnlySettingsWithoutAStoreAreRefused) {
  using Set = void (*)(net::ServerConfig&);
  const std::pair<std::string, Set> cases[] = {
      {"spill_bytes", [](net::ServerConfig& c) { c.spill_bytes = 1; }},
      {"pool_bytes", [](net::ServerConfig& c) { c.pool_bytes = 1; }},
      {"replicate_host", [](net::ServerConfig& c) { c.replicate_host = "h"; }},
  };
  for (const auto& [field, set] : cases) {
    SCOPED_TRACE(field);
    net::ServerConfig config = base_config();
    set(config);
    try {
      net::Server server(std::move(config));
      ADD_FAILURE() << "constructed without a store";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  }
}

// The sharded acceptance bar: 8 concurrent clients against a 4-shard
// daemon, every tenant equal to the clean-channel reference and placed on
// its affinity shard.  Runs under TSan in CI (-R MultiClient).
TEST(NetShard, MultiClientShardedGoldenEquivalence) {
  constexpr int kClients = 8;
  constexpr std::size_t kShards = 4;
  net::ServerConfig config;
  config.shards = kShards;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  std::vector<std::thread> producers;
  std::vector<net::StreamResult> results(kClients);
  producers.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    producers.emplace_back([&results, port, i] {
      results[static_cast<std::size_t>(i)] =
          stream_golden(port, "s" + std::to_string(i));
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  st.stop();

  const std::vector<std::string> clean = golden_clean();
  for (int i = 0; i < kClients; ++i) {
    const std::string name = "s" + std::to_string(i);
    SCOPED_TRACE("tenant " + name);
    const net::StreamResult& result = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(result.fin_received);
    EXPECT_FALSE(result.fin.degraded);
    net::Tenant* tenant = st.server.find_tenant(name);
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
    EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), clean);
    EXPECT_EQ(st.server.tenant_shard(name),
              static_cast<int>(net::shard_for(name, kShards)));
  }
}

// With SO_REUSEPORT the kernel picks an arbitrary shard per connect, so
// across 24 tenants some handshakes must land on a non-owning shard and
// migrate (P(all 24 land on their owner) = 4^-24).  Every tenant must
// end up on its affinity shard regardless of where it connected.
TEST(NetShard, HandshakeMigratesTenantsToOwningShard) {
  constexpr int kTenants = 24;
  constexpr std::size_t kShards = 4;
  net::ServerConfig config;
  config.shards = kShards;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  for (int i = 0; i < kTenants; ++i) {
    const net::StreamResult result =
        stream_golden(port, "mig" + std::to_string(i));
    ASSERT_TRUE(result.fin_received) << "tenant mig" << i;
    EXPECT_FALSE(result.fin.degraded);
  }
  EXPECT_GE(st.server.counter_value("net.conn_migrations"), 1U);
  st.stop();

  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "mig" + std::to_string(i);
    SCOPED_TRACE("tenant " + name);
    net::Tenant* tenant = st.server.find_tenant(name);
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
    EXPECT_EQ(st.server.tenant_shard(name),
              static_cast<int>(net::shard_for(name, kShards)));
  }
}

// Shard-affinity resume across a repartition: kill the producer
// mid-stream, SIGTERM a 3-shard daemon (group-committing every shard's
// store log), restart with 2 shards, and the tenant must restore on its
// new affinity shard and finish byte-identical to an uninterrupted run.
TEST(NetShard, RestartWithDifferentShardCountResumesByteIdentical) {
  const std::string dir =
      ::testing::TempDir() + "ocep_net_reshard_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  constexpr std::uint64_t kHalf = 171;
  const std::string name = "resharded";

  std::atomic<std::uint64_t> released{0};
  net::ServerConfig config;
  config.shards = 3;
  config.store_dir = dir;
  config.detach_linger_ms = 10000;
  config.observe_hook = [&released](std::string_view, std::uint64_t) {
    released.fetch_add(1, std::memory_order_relaxed);
  };
  auto st = std::make_unique<ServerThread>(std::move(config));
  const std::uint16_t port1 = st->server.port();

  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig cc;
  cc.port = port1;
  cc.tenant = name;
  cc.patterns = {golden_pattern()};
  {
    net::Connector connector(cc);
    ASSERT_EQ(connector.ack().status, net::AckStatus::kFresh);
    std::vector<Symbol> names;
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      names.push_back(store.trace_name(t));
    }
    SessionServer session(connector, pool, names);
    for (std::uint64_t pos = 0; pos < kHalf; ++pos) {
      const EventId id = store.arrival(pos);
      session.write(store.event(id), store.clock(id));
    }
    ASSERT_TRUE(wait_until([&released] { return released.load() >= kHalf; }));
    ASSERT_EQ(released.load(), kHalf);
    st->stop();  // graceful shutdown: drains + checkpoints mid-stream
  }
  EXPECT_EQ(st->server.tenant_shard(name),
            static_cast<int>(net::shard_for(name, 3)));

  // Restart against the same store root with a different shard count;
  // the tenant must restore on its new owner and resume exactly.
  net::ServerConfig config2;
  config2.shards = 2;
  config2.store_dir = dir;
  config2.detach_linger_ms = 10000;
  ServerThread st2(std::move(config2));
  net::StreamOptions rest;
  rest.skip_below = kHalf;
  const net::StreamResult second =
      stream_golden(st2.server.port(), name, rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed) << second.ack.message;
  ASSERT_EQ(second.ack.resume_position, kHalf);
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  st2.stop();

  EXPECT_EQ(st2.server.tenant_shard(name),
            static_cast<int>(net::shard_for(name, 2)));
  net::Tenant* resumed = st2.server.find_tenant(name);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->state(), net::TenantState::kComplete);
  EXPECT_EQ(resumed->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(resumed->monitor(), 0), golden_clean());

  // Byte-identity of the matching state against an uninterrupted run.
  ServerThread st3(base_config());
  const net::StreamResult uninterrupted =
      stream_golden(st3.server.port(), name);
  ASSERT_TRUE(uninterrupted.fin_received);
  st3.stop();
  net::Tenant* reference = st3.server.find_tenant(name);
  ASSERT_NE(reference, nullptr);

  std::stringstream resumed_ckp;
  resumed->checkpoint(resumed_ckp);
  std::stringstream reference_ckp;
  reference->checkpoint(reference_ckp);
  const net::TenantCheckpoint a = net::read_tenant_checkpoint(resumed_ckp);
  const net::TenantCheckpoint b = net::read_tenant_checkpoint(reference_ckp);
  EXPECT_EQ(a.monitor_blob, b.monitor_blob);
}

// ===================================================================
// NetRebalance: the live tenant-migration torture suite.  A migration
// freezes a tenant at a frame boundary on its source shard, carries the
// OCEPNTC2 image (plus any attached socket and both directions' buffered
// bytes) through the destination's mailbox, and resumes byte-identically.
// These tests force migrations mid-stream, race them against
// disconnects, inject faults at every phase, and check the placement
// override map across restarts.
// ===================================================================

/// Forces one migration of `name` to `target` and waits for it to settle
/// (adopted, bounced home, or dropped — placement clears `migrating` in
/// every terminal state).  False when the source refused.
bool force_migration(net::Server& server, const std::string& name,
                     std::size_t target) {
  if (!server.migrate_tenant(name, target)) {
    return false;
  }
  return wait_until(
      [&server, &name] { return !server.placement().is_migrating(name); });
}

// Migrate-while-streaming equivalence: a producer streams the golden
// store while the tenant is bounced between shards under its feet.  The
// producer must never observe the hops (clean FIN, no resyncs needed
// beyond what churn causes) and the final monitor state must be
// byte-identical to an unsharded, unmigrated run.
TEST(NetRebalance, MigrateWhileStreamingMatchesUnshardedRun) {
  constexpr std::size_t kShards = 4;
  const std::string name = "roamer";
  net::ServerConfig config;
  config.shards = kShards;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  std::atomic<bool> streaming{true};
  net::StreamResult result;
  std::thread producer([&] {
    net::StreamOptions so;
    // ~1.5 ms per event: the stream stays live long enough for several
    // migrations to land mid-flight.
    so.before_write = [](std::uint64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(1500));
    };
    result = stream_golden(port, name, so);
    streaming.store(false, std::memory_order_release);
  });

  // Ping-pong the tenant between its affinity shard and a neighbour for
  // as long as the stream lasts.
  const std::size_t home = net::shard_for(name, kShards);
  std::size_t hops = 0;
  std::size_t at = home;
  while (streaming.load(std::memory_order_acquire)) {
    const std::size_t next = at == home ? (home + 1) % kShards : home;
    if (force_migration(st.server, name, next)) {
      at = next;
      ++hops;
    } else {
      // Tenant not handshaken yet (or a hop raced the stream's end).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  producer.join();
  EXPECT_GE(hops, 3U) << "stream finished before migrations could land";
  EXPECT_GE(st.server.counter_value("net.tenant_migrations"), hops);
  EXPECT_GE(st.server.counter_value("net.tenant_adoptions"), hops);
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);
  st.stop();

  net::Tenant* roamer = st.server.find_tenant(name);
  ASSERT_NE(roamer, nullptr);
  EXPECT_EQ(roamer->state(), net::TenantState::kComplete);
  EXPECT_EQ(roamer->monitor().events_seen(), 342U);
  EXPECT_EQ(roamer->migrations, hops);
  EXPECT_EQ(testing::match_signature(roamer->monitor(), 0), golden_clean());

  // Byte-identity against an unsharded, unmigrated reference run.
  net::ServerConfig ref_config;
  ref_config.shards = 1;
  ServerThread ref(std::move(ref_config));
  const net::StreamResult ref_result = stream_golden(ref.server.port(), name);
  ASSERT_TRUE(ref_result.fin_received);
  ref.stop();
  net::Tenant* reference = ref.server.find_tenant(name);
  ASSERT_NE(reference, nullptr);

  std::stringstream roamed_ckp;
  roamer->checkpoint(roamed_ckp);
  std::stringstream reference_ckp;
  reference->checkpoint(reference_ckp);
  const net::TenantCheckpoint a = net::read_tenant_checkpoint(roamed_ckp);
  const net::TenantCheckpoint b = net::read_tenant_checkpoint(reference_ckp);
  EXPECT_EQ(a.monitor_blob, b.monitor_blob);
}

// The acceptance torture bar: >= 100 forced ping-pong hops while the
// producer streams, with an exactly-once position bitmap proving zero
// event loss and zero duplicate observes across every hop.
TEST(NetRebalance, HundredPingPongHopsLoseNothingDuplicateNothing) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kHops = 110;
  constexpr std::uint64_t kEvents = 342;
  const std::string name = "pingpong";

  // One slot per golden position; the observe hook runs serially per
  // tenant, so relaxed increments are enough.
  std::vector<std::atomic<std::uint32_t>> observed(kEvents);
  net::ServerConfig config;
  config.shards = kShards;
  config.observe_hook = [&observed](std::string_view, std::uint64_t position) {
    if (position < kEvents) {
      observed[position].fetch_add(1, std::memory_order_relaxed);
    }
  };
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  std::atomic<bool> streaming{true};
  net::StreamResult result;
  std::thread producer([&] {
    net::StreamOptions so;
    so.before_write = [](std::uint64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(1200));
    };
    result = stream_golden(port, name, so);
    streaming.store(false, std::memory_order_release);
  });

  // Keep hopping to the full budget even if the stream drains first — a
  // detached or complete tenant must survive migration just as cleanly.
  const std::size_t home = net::shard_for(name, kShards);
  std::size_t hops = 0;
  std::size_t at = home;
  while (hops < kHops) {
    const std::size_t next = at == home ? (home + 1) % kShards : home;
    if (force_migration(st.server, name, next)) {
      at = next;
      ++hops;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  producer.join();
  ASSERT_TRUE(result.fin_received);
  EXPECT_FALSE(result.fin.degraded);
  EXPECT_GE(st.server.counter_value("net.tenant_migrations"), kHops);
  EXPECT_GE(st.server.counter_value("net.tenant_adoptions"), kHops);
  EXPECT_EQ(st.server.counter_value("net.tenant_migration_failures"), 0U);
  EXPECT_EQ(st.server.counter_value("net.tenant_migration_dropped"), 0U);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant(name);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), kEvents);
  EXPECT_GE(tenant->migrations, kHops);
  // The bitmap is the loss/duplication proof: every position exactly once.
  for (std::uint64_t pos = 0; pos < kEvents; ++pos) {
    ASSERT_EQ(observed[pos].load(), 1U) << "position " << pos;
  }
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// Migration raced against an abrupt disconnect and a resuming reconnect:
// the tenant is moved twice while detached (its producer died mid-frame
// moments earlier), then the producer comes back past a deliberate gap
// and must resume via resync on the tenant's *new* shard.
TEST(NetRebalance, MigrationRacesDisconnectThenResumesOnNewShard) {
  constexpr std::size_t kShards = 4;
  const std::string name = "racer";
  net::ServerConfig config;
  config.shards = kShards;
  config.detach_linger_ms = 10000;  // survive the reconnect window
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  net::StreamOptions first_half;
  first_half.max_events = 150;
  const net::StreamResult first = stream_golden(port, name, first_half);
  ASSERT_EQ(first.ack.status, net::AckStatus::kFresh);
  EXPECT_FALSE(first.fin_received);  // abrupt death, no BYE

  // Migrate immediately — deliberately racing the server's reap of the
  // dead socket — then hop once more while detached.
  const std::size_t home = net::shard_for(name, kShards);
  const std::size_t hop1 = (home + 1) % kShards;
  const std::size_t hop2 = (home + 2) % kShards;
  ASSERT_TRUE(wait_until([&] { return force_migration(st.server, name, hop1); }));
  ASSERT_TRUE(force_migration(st.server, name, hop2));

  // Reconnect past a hole: only a snapshot resync can refill [150, 200).
  net::StreamOptions rest;
  rest.skip_below = 200;
  const net::StreamResult second = stream_golden(port, name, rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed) << second.ack.message;
  // The ack names the shard that answered; it must be the migrated-to
  // one (the handshake-time hand-off routed the connection there).
  EXPECT_EQ(second.ack.shard, hop2);
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  EXPECT_GT(second.session.resyncs_served, 0U);
  st.stop();

  EXPECT_EQ(st.server.tenant_shard(name), static_cast<int>(hop2));
  net::Tenant* tenant = st.server.find_tenant(name);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// Kill-point fault injection: fail a migration at each phase in turn.
// Freeze and transfer failures must abort with the tenant untouched on
// its source shard; an adoption failure must bounce it home.  After all
// three, the tenant still completes its stream with zero loss.
TEST(NetRebalance, KillPointsAtEveryPhaseNeverLoseTheTenant) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kEvents = 342;
  const std::string name = "victim";

  // -1 = no fault; otherwise the phase to fail exactly once.
  auto fail_phase = std::make_shared<std::atomic<int>>(-1);
  std::vector<std::atomic<std::uint32_t>> observed(kEvents);
  net::ServerConfig config;
  config.shards = kShards;
  config.detach_linger_ms = 10000;
  config.migration_hook = [fail_phase](net::MigrationPhase phase,
                                       std::string_view) {
    int want = static_cast<int>(phase);
    return fail_phase->compare_exchange_strong(want, -1);
  };
  config.observe_hook = [&observed](std::string_view, std::uint64_t position) {
    if (position < kEvents) {
      observed[position].fetch_add(1, std::memory_order_relaxed);
    }
  };
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  // Put real state on the tenant first (abrupt half-stream, no BYE).
  net::StreamOptions first_half;
  first_half.max_events = 150;
  const net::StreamResult first = stream_golden(port, name, first_half);
  ASSERT_EQ(first.ack.status, net::AckStatus::kFresh);

  const std::size_t home = net::shard_for(name, kShards);
  const std::size_t away = (home + 1) % kShards;

  // Freeze fails: the source refuses before anything is serialized.
  fail_phase->store(static_cast<int>(net::MigrationPhase::kFreeze));
  ASSERT_TRUE(wait_until([&] {
    // Retried because the dead first connection may still be reaping.
    return !st.server.migrate_tenant(name, away) &&
           st.server.counter_value("net.tenant_migration_failures") >= 1;
  }));
  EXPECT_EQ(st.server.tenant_shard(name), static_cast<int>(home));

  // Transfer fails: serialization aborted, tenant stays home.
  fail_phase->store(static_cast<int>(net::MigrationPhase::kTransfer));
  EXPECT_FALSE(st.server.migrate_tenant(name, away));
  EXPECT_GE(st.server.counter_value("net.tenant_migration_failures"), 2U);
  EXPECT_FALSE(st.server.placement().is_migrating(name));
  EXPECT_EQ(st.server.tenant_shard(name), static_cast<int>(home));

  // Adoption fails: the handoff reaches the destination, which bounces
  // the blob straight back; the tenant must land home intact.
  fail_phase->store(static_cast<int>(net::MigrationPhase::kAdopt));
  ASSERT_TRUE(st.server.migrate_tenant(name, away));
  ASSERT_TRUE(wait_counter(st.server, "net.tenant_bounced", 1));
  ASSERT_TRUE(wait_until(
      [&] { return !st.server.placement().is_migrating(name); }));
  ASSERT_TRUE(
      wait_until([&] { return st.server.tenant_shard(name) ==
                              static_cast<int>(home); }));

  // After all three kill points: a clean hop still works...
  ASSERT_EQ(fail_phase->load(), -1);
  ASSERT_TRUE(force_migration(st.server, name, away));
  ASSERT_TRUE(wait_counter(st.server, "net.tenant_adoptions", 1));

  // ...and the producer resumes and completes with zero loss.
  net::StreamOptions rest;
  rest.skip_below = 150;
  const net::StreamResult second = stream_golden(port, name, rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed) << second.ack.message;
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  st.stop();

  net::Tenant* tenant = st.server.find_tenant(name);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
  EXPECT_EQ(tenant->monitor().events_seen(), kEvents);
  for (std::uint64_t pos = 0; pos < kEvents; ++pos) {
    ASSERT_EQ(observed[pos].load(), 1U) << "position " << pos;
  }
  EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), golden_clean());
}

// Placement-override persistence: a migrated tenant's placement survives
// restart — it restores on the shard the migration chose, not its hash
// shard.  And an override naming a shard that no longer exists after a
// --shards shrink falls back to the affinity hash instead of vanishing.
TEST(NetRebalance, PlacementOverrideSurvivesRestartAndShardShrink) {
  const std::string dir = ::testing::TempDir() + "ocep_net_rebal_store_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const std::string keeper = "ovr_keep";  // override stays valid at 2 shards
  const std::string faller = "ovr_fall";  // override invalid at 2 shards

  net::ServerConfig config;
  config.shards = 4;
  config.store_dir = dir;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  const net::StreamResult r1 = stream_golden(port, keeper);
  ASSERT_TRUE(r1.fin_received);
  const net::StreamResult r2 = stream_golden(port, faller);
  ASSERT_TRUE(r2.fin_received);

  // Move keeper to a low shard (survives a shrink to 2), faller to a
  // high one (does not).
  const std::size_t keep_to = net::shard_for(keeper, 4) == 1 ? 0 : 1;
  const std::size_t fall_to = net::shard_for(faller, 4) == 3 ? 2 : 3;
  ASSERT_TRUE(wait_until(
      [&] { return force_migration(st.server, keeper, keep_to); }));
  ASSERT_TRUE(wait_until(
      [&] { return force_migration(st.server, faller, fall_to); }));
  st.stop();  // commits the store logs and writes placement.map
  EXPECT_EQ(st.server.tenant_shard(keeper), static_cast<int>(keep_to));
  EXPECT_EQ(st.server.tenant_shard(faller), static_cast<int>(fall_to));

  // Same shard count: both restore exactly where migration put them.
  {
    net::ServerConfig config2;
    config2.shards = 4;
    config2.store_dir = dir;
    net::Server server2(std::move(config2));  // restore happens at build
    EXPECT_EQ(server2.tenant_shard(keeper), static_cast<int>(keep_to));
    EXPECT_EQ(server2.tenant_shard(faller), static_cast<int>(fall_to));
  }

  // Shrink to 2 shards: the keeper's override still names a real shard
  // and is honoured; the faller's names shard >= 2 and falls back to its
  // affinity hash.
  {
    net::ServerConfig config3;
    config3.shards = 2;
    config3.store_dir = dir;
    net::Server server3(std::move(config3));
    EXPECT_EQ(server3.tenant_shard(keeper), static_cast<int>(keep_to));
    EXPECT_EQ(server3.tenant_shard(faller),
              static_cast<int>(net::shard_for(faller, 2)));
    net::Tenant* restored = server3.find_tenant(keeper);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->monitor().events_seen(), 342U);
  }
}

// With rebalancing on, fresh tenants are placed least-loaded instead of
// by hash: on an idle daemon that degenerates to resident-count
// round-robin, so N tenants over M shards spread exactly N/M each.
TEST(NetRebalance, FreshTenantsSpreadLeastLoaded) {
  constexpr std::size_t kShards = 4;
  constexpr int kTenants = 8;
  net::ServerConfig config;
  config.shards = kShards;
  config.rebalance = true;
  config.rebalance_interval_ms = 60000;  // placement only; no cycles
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  for (int i = 0; i < kTenants; ++i) {
    const net::StreamResult result =
        stream_golden(port, "fresh" + std::to_string(i));
    ASSERT_TRUE(result.fin_received) << "tenant fresh" << i;
  }
  st.stop();

  std::vector<int> per_shard(kShards, 0);
  for (int i = 0; i < kTenants; ++i) {
    const int shard = st.server.tenant_shard("fresh" + std::to_string(i));
    ASSERT_GE(shard, 0);
    ++per_shard[static_cast<std::size_t>(shard)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(per_shard[s], kTenants / static_cast<int>(kShards))
        << "shard " << s;
  }
}

// The rebalancer end-to-end: a deliberately skewed daemon (every tenant
// force-migrated onto shard 0) must spread back out under load scoring —
// cycles fire, hot tenants move off the hot shard, and the spread
// tightens, all while producers stream.
TEST(NetRebalance, RebalancerSpreadsAForcedHotShard) {
  constexpr std::size_t kShards = 4;
  constexpr int kTenants = 8;
  net::ServerConfig config;
  config.shards = kShards;
  config.rebalance = true;
  config.rebalance_interval_ms = 40;
  config.rebalance_min_rate = 2048;  // test streams are small
  config.rebalance_cooldown_ms = 200;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  // All eight producers stream concurrently, slowly, as their tenants
  // are first piled onto shard 0 and then spread back by the rebalancer.
  std::vector<std::thread> producers;
  std::vector<net::StreamResult> results(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    producers.emplace_back([&results, port, i] {
      net::StreamOptions so;
      so.before_write = [](std::uint64_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(2500));
      };
      results[static_cast<std::size_t>(i)] =
          stream_golden(port, "hot" + std::to_string(i), so);
    });
  }

  // Pile every tenant onto shard 0 (ignore failures: a tenant may not
  // have handshaken yet — the pile-up only needs to mostly succeed).
  std::size_t piled = 0;
  for (int round = 0; round < 50 && piled < kTenants; ++round) {
    piled = 0;
    for (int i = 0; i < kTenants; ++i) {
      const std::string name = "hot" + std::to_string(i);
      if (st.server.tenant_shard(name) == 0 ||
          force_migration(st.server, name, 0)) {
        ++piled;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(piled, static_cast<std::size_t>(kTenants - 1));

  // The periodic rebalancer must now act: cycles fire and tenants move
  // off the pile while the streams are still running.
  EXPECT_TRUE(wait_counter(st.server, "net.rebalance_cycles", 2));
  EXPECT_TRUE(wait_counter(st.server, "net.rebalance_moves", 1));

  for (std::thread& t : producers) {
    t.join();
  }
  st.stop();

  // Every stream survived the churn bit-exactly.
  const std::vector<std::string> clean = golden_clean();
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "hot" + std::to_string(i);
    SCOPED_TRACE("tenant " + name);
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].fin_received);
    EXPECT_FALSE(results[static_cast<std::size_t>(i)].fin.degraded);
    net::Tenant* tenant = st.server.find_tenant(name);
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->state(), net::TenantState::kComplete);
    EXPECT_EQ(testing::match_signature(tenant->monitor(), 0), clean);
  }
  // And the pile actually thinned: not all tenants still sit on shard 0.
  int on_zero = 0;
  for (int i = 0; i < kTenants; ++i) {
    if (st.server.tenant_shard("hot" + std::to_string(i)) == 0) {
      ++on_zero;
    }
  }
  EXPECT_LT(on_zero, kTenants);
}

// ===================================================================
// NetStore: crash-consistent durability on the append-only segment log
// (--store-dir).  Input deltas are group-committed on the flush
// interval, SIGTERM drains write only dirty state (never a full image
// per tenant), a SIGKILL image recovers to a prefix of the acknowledged
// stream, and cold tenants spill to the log under a byte budget.
// ===================================================================

namespace fs_store = std::filesystem;

/// Recursive byte total of every regular file under `dir`.
std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       fs_store::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

net::ServerConfig store_config(const std::string& dir) {
  net::ServerConfig config = base_config();
  config.store_dir = dir;
  config.flush_interval_ms = 10;
  return config;
}

/// Reads zk962's Snapshot and Update classes: next to the golden pattern
/// it shares every leaf history it reads.
constexpr const char* kSharedSnapshotPattern =
    "Snapshot := [$l, Take_Snapshot, $tag];\n"
    "Update := [$l, Make_Update, ''];\n"
    "pattern := Snapshot -> Update;\n";

// The shutdown/restart acceptance bar: SIGTERM (request_shutdown — same
// code path) mid-stream flushes the delta log, a restarted server
// replays base+deltas, the producer resumes at the watermark, and the
// final state is byte-identical to an uninterrupted run.  The tenant's
// two patterns share histories that a tight per-tenant history cap
// spills to the log, so the spans of shared histories cross the restart
// too.
TEST(NetStore, ShutdownRestartResumesByteIdentical) {
  const std::string dir =
      ::testing::TempDir() + "ocep_net_store_" + std::to_string(::getpid());
  fs_store::remove_all(dir);
  constexpr std::uint64_t kHalf = 171;
  const std::vector<std::string> patterns = {golden_pattern(),
                                             kSharedSnapshotPattern};
  const auto spilling_config = [](const std::string& store_dir) {
    net::ServerConfig config = store_config(store_dir);
    config.detach_linger_ms = 10000;
    config.pool_bytes = 64 << 10;
    config.tenant.monitor.history_bytes_limit = 512;
    return config;
  };

  std::atomic<std::uint64_t> released{0};
  net::ServerConfig config = spilling_config(dir);
  config.observe_hook = [&released](std::string_view, std::uint64_t) {
    released.fetch_add(1, std::memory_order_relaxed);
  };
  auto st = std::make_unique<ServerThread>(std::move(config));
  const std::uint16_t port1 = st->server.port();

  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig cc;
  cc.port = port1;
  cc.tenant = "durable";
  cc.patterns = patterns;
  {
    net::Connector connector(cc);
    ASSERT_EQ(connector.ack().status, net::AckStatus::kFresh);
    std::vector<Symbol> names;
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      names.push_back(store.trace_name(t));
    }
    SessionServer session(connector, pool, names);
    for (std::uint64_t pos = 0; pos < kHalf; ++pos) {
      const EventId id = store.arrival(pos);
      session.write(store.event(id), store.clock(id));
    }
    ASSERT_TRUE(wait_until([&released] { return released.load() >= kHalf; }));
    ASSERT_EQ(released.load(), kHalf);
    st->stop();  // SIGTERM path: drain + flush the delta log
  }
  EXPECT_GT(st->server.counter_value("store.delta_records"), 0U);
  EXPECT_GT(st->server.counter_value("store.span_records"), 0U)
      << "the history cap never spilled: vacuous";

  // Restart against the same store root and finish from the watermark.
  ServerThread st2(spilling_config(dir));
  ASSERT_TRUE(wait_counter(st2.server, "net.tenants_restored", 1));
  net::StreamOptions rest;
  rest.skip_below = kHalf;
  const net::StreamResult second =
      stream_golden(st2.server.port(), "durable", rest, patterns);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed)
      << second.ack.message;
  ASSERT_EQ(second.ack.resume_position, kHalf);
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  st2.stop();

  net::Tenant* resumed = st2.server.find_tenant("durable");
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->state(), net::TenantState::kComplete);
  EXPECT_EQ(resumed->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(resumed->monitor(), 0), golden_clean());
  EXPECT_EQ(testing::match_signature(resumed->monitor(), 1),
            testing::clean_matches(store, pool, kSharedSnapshotPattern));
  EXPECT_GT(resumed->monitor().matcher(1).stats().history_spilled, 0U)
      << "no history the patterns share was spilled: vacuous";

  // Byte-identity of the matching state against an uninterrupted run
  // under the same cap and span tier.
  const std::string reference_dir = dir + "_reference";
  fs_store::remove_all(reference_dir);
  ServerThread st3(spilling_config(reference_dir));
  const net::StreamResult uninterrupted =
      stream_golden(st3.server.port(), "durable", {}, patterns);
  ASSERT_TRUE(uninterrupted.fin_received);
  st3.stop();
  net::Tenant* reference = st3.server.find_tenant("durable");
  ASSERT_NE(reference, nullptr);

  std::stringstream resumed_ckp;
  resumed->checkpoint(resumed_ckp);
  std::stringstream reference_ckp;
  reference->checkpoint(reference_ckp);
  const net::TenantCheckpoint a = net::read_tenant_checkpoint(resumed_ckp);
  const net::TenantCheckpoint b = net::read_tenant_checkpoint(reference_ckp);
  EXPECT_EQ(a.monitor_blob, b.monitor_blob);
}

// The O(dirty-state) drain contract: a full golden stream (well under the
// re-base threshold) persists as genesis + input deltas only — zero full
// images — and an idle restart+shutdown cycle appends not a single byte.
TEST(NetStore, ShutdownWritesOnlyDeltasAndIdleRestartAppendsNothing) {
  const std::string dir = ::testing::TempDir() + "ocep_net_store_delta_" +
                          std::to_string(::getpid());
  fs_store::remove_all(dir);

  {
    ServerThread st(store_config(dir));
    const net::StreamResult result = stream_golden(st.server.port(), "lean");
    ASSERT_TRUE(result.fin_received);
    EXPECT_FALSE(result.fin.degraded);
    st.stop();
    EXPECT_GT(st.server.counter_value("store.delta_records"), 0U);
    EXPECT_EQ(st.server.counter_value("store.genesis_records"), 1U);
    // The byte-count assertion: nothing but deltas — no image writes.
    EXPECT_EQ(st.server.counter_value("store.base_records"), 0U);
  }
  const std::uintmax_t after_first = dir_bytes(dir);
  ASSERT_GT(after_first, 0U);

  // Restart, touch nothing, shut down: recovery replays the log but the
  // drain finds no dirty state, so the store is byte-for-byte unchanged.
  {
    ServerThread st(store_config(dir));
    ASSERT_TRUE(wait_counter(st.server, "net.tenants_restored", 1));
    st.stop();
    EXPECT_EQ(st.server.counter_value("store.base_records"), 0U);
    net::Tenant* restored = st.server.find_tenant("lean");
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->monitor().events_seen(), 342U);
    EXPECT_EQ(testing::match_signature(restored->monitor(), 0),
              golden_clean());
  }
  EXPECT_EQ(dir_bytes(dir), after_first);
}

// The SIGKILL acceptance bar, via a directory snapshot: quiesce the
// group commit mid-stream, copy the store root (exactly what a kill -9
// leaves behind), and boot a server on the copy.  The tenant recovers to
// the acknowledged prefix, the producer resumes at the watermark, and
// the final state is byte-identical to a never-crashed run.
TEST(NetStore, CrashImageRecoversPrefixAndResumesToGolden) {
  const std::string dir = ::testing::TempDir() + "ocep_net_store_crash_" +
                          std::to_string(::getpid());
  const std::string image = dir + "_image";
  fs_store::remove_all(dir);
  fs_store::remove_all(image);
  constexpr std::uint64_t kHalf = 171;

  /// Counts the session wire bytes so the test can wait until the store
  /// has group-committed every byte the producer sent.
  class CountingSink final : public ByteSink {
   public:
    explicit CountingSink(ByteSink& inner) : inner_(inner) {}
    void write(std::string_view bytes) override {
      count += bytes.size();
      inner_.write(bytes);
    }
    std::uint64_t count = 0;

   private:
    ByteSink& inner_;
  };

  std::atomic<std::uint64_t> released{0};
  net::ServerConfig config = store_config(dir);
  config.detach_linger_ms = 10000;
  config.observe_hook = [&released](std::string_view, std::uint64_t) {
    released.fetch_add(1, std::memory_order_relaxed);
  };
  auto st = std::make_unique<ServerThread>(std::move(config));

  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig cc;
  cc.port = st->server.port();
  cc.tenant = "phoenix";
  cc.patterns = {golden_pattern()};
  {
    net::Connector connector(cc);
    ASSERT_EQ(connector.ack().status, net::AckStatus::kFresh);
    CountingSink counted(connector);
    std::vector<Symbol> names;
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      names.push_back(store.trace_name(t));
    }
    SessionServer session(counted, pool, names);
    for (std::uint64_t pos = 0; pos < kHalf; ++pos) {
      const EventId id = store.arrival(pos);
      session.write(store.event(id), store.clock(id));
    }
    ASSERT_TRUE(wait_until([&released] { return released.load() >= kHalf; }));
    // Every wire byte group-committed (the delta-bytes counter is folded
    // only after the fsync), so the snapshot below is a complete image of
    // the acknowledged prefix.  The producer stays connected throughout —
    // copying the directory is the kill -9, not the disconnect.
    ASSERT_TRUE(wait_until([&] {
      return st->server.counter_value("store.delta_bytes") >= counted.count;
    }));
    std::error_code ec;
    fs_store::copy(dir, image, fs_store::copy_options::recursive, ec);
    ASSERT_FALSE(ec) << ec.message();
    st->stop();
    st.reset();
  }

  // First boot on the crash image: the acknowledged prefix, exactly.
  {
    net::ServerConfig config2 = store_config(image);
    ServerThread st2(std::move(config2));
    ASSERT_TRUE(wait_counter(st2.server, "net.tenants_restored", 1));
    st2.stop();
    net::Tenant* recovered = st2.server.find_tenant("phoenix");
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->monitor().events_seen(), kHalf);
    EXPECT_TRUE(testing::is_subset_of(
        testing::match_signature(recovered->monitor(), 0), golden_clean()));
  }

  // Second boot (replay is idempotent): resume and run to completion.
  net::ServerConfig config3 = store_config(image);
  config3.detach_linger_ms = 10000;
  ServerThread st3(std::move(config3));
  net::StreamOptions rest;
  rest.skip_below = kHalf;
  const net::StreamResult second =
      stream_golden(st3.server.port(), "phoenix", rest);
  ASSERT_EQ(second.ack.status, net::AckStatus::kResumed)
      << second.ack.message;
  ASSERT_EQ(second.ack.resume_position, kHalf);
  ASSERT_TRUE(second.fin_received);
  EXPECT_FALSE(second.fin.degraded);
  st3.stop();

  net::Tenant* resumed = st3.server.find_tenant("phoenix");
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(resumed->monitor(), 0), golden_clean());

  ServerThread st4(base_config());
  const net::StreamResult uninterrupted =
      stream_golden(st4.server.port(), "phoenix");
  ASSERT_TRUE(uninterrupted.fin_received);
  st4.stop();
  net::Tenant* reference = st4.server.find_tenant("phoenix");
  ASSERT_NE(reference, nullptr);

  std::stringstream resumed_ckp;
  resumed->checkpoint(resumed_ckp);
  std::stringstream reference_ckp;
  reference->checkpoint(reference_ckp);
  const net::TenantCheckpoint a = net::read_tenant_checkpoint(resumed_ckp);
  const net::TenantCheckpoint b = net::read_tenant_checkpoint(reference_ckp);
  EXPECT_EQ(a.monitor_blob, b.monitor_blob);
}

// POST /checkpoint and SIGTERM are the two group commits a producer does
// not wait for.  With the timed commit pushed past the test:
//  * without a store POST /checkpoint is refused (409), and GET is an
//    unknown route (404) that commits nothing;
//  * a POST whose commit hits a disk fault answers 503 and counts
//    nothing; once the disk heals the next POST commits the same bytes;
//  * POST answers only after every shard has appended and synced, so a
//    copy of the store taken right after the answer — what a kill -9 at
//    that instant leaves — restores every event released before it;
//  * the second half of the stream reaches disk only through the
//    shutdown's commit, and a restart restores all of it;
//  * with no migration, neither commit writes placement.map.
TEST(NetStore, PostCheckpointAndShutdownEachRunTheGroupCommit) {
  {
    ServerThread plain(base_config());
    const std::string refused =
        admin_request(plain.server.admin_port(), "POST", "/checkpoint");
    EXPECT_EQ(refused.rfind("HTTP/1.0 409", 0), 0U) << refused;
  }

  const std::string dir = ::testing::TempDir() + "ocep_net_store_post_" +
                          std::to_string(::getpid());
  const std::string image = dir + "_image";
  fs_store::remove_all(dir);
  fs_store::remove_all(image);
  constexpr std::uint64_t kHalf = 171;
  constexpr std::uint64_t kEvents = 342;

  std::atomic<std::uint64_t> released{0};
  std::atomic<bool> disk_fault{false};
  net::ServerConfig config = store_config(dir);
  config.flush_interval_ms = 600000;  // no timed commit while the test runs
  config.detach_linger_ms = 10000;
  config.observe_hook = [&released](std::string_view, std::uint64_t) {
    released.fetch_add(1, std::memory_order_relaxed);
  };
  config.store_crash_hook = [&disk_fault](store::CrashEdge edge,
                                          std::string_view detail) {
    if (disk_fault.load(std::memory_order_relaxed) &&
        edge == store::CrashEdge::kWrite && detail.rfind("pre:", 0) == 0) {
      throw StoreError("injected EIO on append");
    }
  };
  auto st = std::make_unique<ServerThread>(std::move(config));
  const std::uint16_t admin = st->server.admin_port();

  StringPool pool;
  const EventStore store = golden_store(pool);
  net::ConnectorConfig cc;
  cc.port = st->server.port();
  cc.tenant = "snapshot";
  cc.patterns = {golden_pattern()};
  {
    net::Connector connector(cc);
    ASSERT_EQ(connector.ack().status, net::AckStatus::kFresh);
    std::vector<Symbol> names;
    for (TraceId t = 0; t < store.trace_count(); ++t) {
      names.push_back(store.trace_name(t));
    }
    SessionServer session(connector, pool, names);
    const auto send = [&](std::uint64_t from, std::uint64_t to) {
      for (std::uint64_t pos = from; pos < to; ++pos) {
        const EventId id = store.arrival(pos);
        session.write(store.event(id), store.clock(id));
      }
    };
    send(0, kHalf);
    ASSERT_TRUE(wait_until([&released] { return released.load() >= kHalf; }));
    ASSERT_EQ(released.load(), kHalf);

    const std::string get = admin_request(admin, "GET", "/checkpoint");
    EXPECT_EQ(get.rfind("HTTP/1.0 404", 0), 0U) << get;
    EXPECT_EQ(st->server.counter_value("net.checkpoints_written"), 0U);

    disk_fault.store(true);
    const std::string faulted = admin_request(admin, "POST", "/checkpoint");
    EXPECT_EQ(faulted.rfind("HTTP/1.0 503", 0), 0U) << faulted;
    EXPECT_NE(
        faulted.find("\r\n\r\n{\"error\":\"store commit failed\"}\n"),
        std::string::npos)
        << faulted;
    EXPECT_EQ(st->server.counter_value("net.checkpoints_written"), 0U);
    disk_fault.store(false);

    const std::string post = admin_request(admin, "POST", "/checkpoint");
    EXPECT_EQ(post.rfind("HTTP/1.0 200", 0), 0U) << post;
    EXPECT_NE(post.find("\r\n\r\n{\"written\":1}\n"), std::string::npos)
        << post;
    std::error_code ec;
    fs_store::copy(dir, image, fs_store::copy_options::recursive, ec);
    ASSERT_FALSE(ec) << ec.message();
    EXPECT_EQ(st->server.counter_value("net.checkpoints_written"), 1U);

    send(kHalf, kEvents);
    ASSERT_TRUE(
        wait_until([&released] { return released.load() >= kEvents; }));
    st->stop();  // SIGTERM path: the only commit of the second half
  }
  EXPECT_EQ(st->server.counter_value("net.checkpoints_written"), 2U);
  st.reset();
  EXPECT_FALSE(fs_store::exists(dir + "/placement.map"));

  for (const auto& [root, events] :
       {std::pair{image, kHalf}, std::pair{dir, kEvents}}) {
    SCOPED_TRACE(root);
    ServerThread restarted(store_config(root));
    ASSERT_TRUE(wait_counter(restarted.server, "net.tenants_restored", 1));
    restarted.stop();
    net::Tenant* recovered = restarted.server.find_tenant("snapshot");
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->monitor().events_seen(), events);
  }
}

// Cold-tenant spill under a byte budget: a finished, detached tenant is
// written to the log (base + fsync before eviction) and leaves RAM; a
// reconnecting producer triggers the reload and sees its terminal FIN
// with the matching state fully intact.
TEST(NetStore, SpillsColdTenantAndUnspillsOnReconnect) {
  const std::string dir = ::testing::TempDir() + "ocep_net_store_spill_" +
                          std::to_string(::getpid());
  fs_store::remove_all(dir);

  net::ServerConfig config = store_config(dir);
  config.spill_bytes = 1;  // everything resident is over budget
  config.detach_linger_ms = 50;
  ServerThread st(std::move(config));
  const std::uint16_t port = st.server.port();

  const net::StreamResult run = stream_golden(port, "iceberg");
  ASSERT_TRUE(run.fin_received);
  EXPECT_FALSE(run.fin.degraded);

  // Once the producer detaches, the next spill pass evicts the tenant:
  // its image goes to the log and the monitor leaves RAM.
  ASSERT_TRUE(wait_counter(st.server, "net.tenants_spilled", 1));
  EXPECT_GT(st.server.counter_value("store.base_records"), 0U);
  EXPECT_TRUE(wait_until([&st] {
    return st.server.find_tenant("iceberg") == nullptr;
  }));
  // The spilled tenant still counts and still reports (from metadata).
  EXPECT_EQ(st.server.tenant_count(), 1U);
  const std::string healthz = st.server.healthz_json();
  EXPECT_NE(healthz.find("\"spilled\""), std::string::npos) << healthz;

  // Reconnect: the handshake reloads the image from the log and answers
  // with the terminal FIN immediately (the stream already completed), so
  // a bare connector is the whole producer here.
  {
    net::ConnectorConfig cc;
    cc.port = port;
    cc.tenant = "iceberg";
    cc.patterns = {golden_pattern()};
    net::Connector back(cc);
    ASSERT_EQ(back.ack().status, net::AckStatus::kResumed)
        << back.ack().message;
    ASSERT_TRUE(back.wait_fin(nullptr));
    EXPECT_FALSE(back.fin().degraded);
  }
  ASSERT_TRUE(wait_counter(st.server, "net.tenants_unspilled", 1));
  st.stop();

  // The tenant may have been re-evicted after the reconnect detached
  // (the budget is still one byte), so verify the terminal state through
  // a fresh boot on the same store — spilled or resident, the log holds
  // the whole image.
  ServerThread verify(store_config(dir));
  ASSERT_TRUE(wait_counter(verify.server, "net.tenants_restored", 1));
  verify.stop();
  net::Tenant* thawed = verify.server.find_tenant("iceberg");
  ASSERT_NE(thawed, nullptr);
  EXPECT_EQ(thawed->state(), net::TenantState::kComplete);
  EXPECT_EQ(thawed->monitor().events_seen(), 342U);
  EXPECT_EQ(testing::match_signature(thawed->monitor(), 0), golden_clean());
}

// Repartition recovery: a store written by a 1-shard daemon restores
// under 4 shards (each shard scans its siblings' logs and claims what it
// owns at a higher epoch), and a third boot proves the tombstoned
// leftovers in the old log stay dead.
TEST(NetStore, ReshardRestoreClaimsTenantsAcrossShardLogs) {
  const std::string dir = ::testing::TempDir() + "ocep_net_store_reshard_" +
                          std::to_string(::getpid());
  fs_store::remove_all(dir);
  const std::vector<std::string> tenants = {"re0", "re1", "re2"};

  {
    net::ServerConfig config = store_config(dir);
    config.shards = 1;
    ServerThread st(std::move(config));
    for (const std::string& name : tenants) {
      const net::StreamResult result = stream_golden(st.server.port(), name);
      ASSERT_TRUE(result.fin_received) << name;
      EXPECT_FALSE(result.fin.degraded) << name;
    }
    st.stop();
  }

  // 4-shard boot: all three tenants must come back whole, each claimed by
  // its affinity shard from the shard-0 log.
  for (int boot = 0; boot < 2; ++boot) {
    SCOPED_TRACE("boot " + std::to_string(boot));
    net::ServerConfig config = store_config(dir);
    config.shards = 4;
    ServerThread st(std::move(config));
    ASSERT_TRUE(wait_counter(st.server, "net.tenants_restored",
                             tenants.size()));
    st.stop();
    for (const std::string& name : tenants) {
      net::Tenant* restored = st.server.find_tenant(name);
      ASSERT_NE(restored, nullptr) << name;
      EXPECT_EQ(restored->monitor().events_seen(), 342U) << name;
      EXPECT_EQ(testing::match_signature(restored->monitor(), 0),
                golden_clean())
          << name;
      EXPECT_EQ(st.server.tenant_shard(name),
                static_cast<int>(net::shard_for(name, 4)))
          << name;
    }
  }
}

// Satellite regression for common/fd_stream.h: a short-write/EAGAIN storm
// through a tiny socket buffer must deliver every byte exactly once (the
// old sync() restarted from pbase() after a failure, resending bytes the
// kernel had already accepted).
TEST(NetFdStream, ShortWritesNeverResendBytes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  // Non-blocking writer: forces the EAGAIN path in FdOutBuf::sync().
  ASSERT_NO_THROW(net::set_nonblocking(fds[0]));

  std::string sent(1U << 20U, '\0');
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>((i * 131) & 0xff);
  }

  std::string received;
  std::thread reader([&received, fd = fds[1]] {
    char chunk[8192];
    while (true) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got > 0) {
        received.append(chunk, static_cast<std::size_t>(got));
        // A slow consumer keeps the kernel buffer full on purpose.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (got < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
  });

  {
    FdOStream out(fds[0]);
    out.get().write(sent.data(), static_cast<std::streamsize>(sent.size()));
    out.get().flush();
    ASSERT_TRUE(out.get().good());
    EXPECT_EQ(out.buf().offset(), sent.size());
    EXPECT_FALSE(out.buf().error());
  }
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);

  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);  // any resend or loss breaks this
}

TEST(NetFdStream, DistinguishesEofFromError) {
  ::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  {  // EOF: peer closes cleanly.
    FdIStream in(fds[0]);
    ::close(fds[1]);
    char c = 0;
    in.get().read(&c, 1);
    EXPECT_TRUE(in.get().eof());
    EXPECT_TRUE(in.buf().eof());
    EXPECT_FALSE(in.buf().error());
  }
  ::close(fds[0]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {  // Error: writing into a closed peer is EPIPE, not EOF.
    ::close(fds[1]);
    FdOutBuf out(fds[0]);
    std::ostream stream(&out);
    const std::string bytes(1U << 16U, 'x');
    stream.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    stream.flush();
    EXPECT_FALSE(stream.good());
    EXPECT_TRUE(out.error());
    EXPECT_EQ(out.last_errno(), EPIPE);
  }
  ::close(fds[0]);
}

}  // namespace
}  // namespace ocep
