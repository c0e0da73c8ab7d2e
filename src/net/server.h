// The serving daemon: N reactor shards for the ingest plane plus an
// admin-plane reactor on the run() caller's thread.
//
// Each shard (src/net/shard.h) is a single-threaded epoll loop that owns
// its listener, connections, a private metrics registry and a socket-free
// TenantHost (src/net/tenant_host.h) holding its tenants and store, so
// the per-tenant Monitor + SessionClient remain single-threaded and
// lock-free at any shard count.  Tenants are placed by a stable affinity
// hash (shard_for); connections accepted by the wrong shard migrate at
// handshake time, before the ack is sent, so producers never observe the
// hop.  With shards == 1 the daemon behaves exactly like the original
// single-reactor server (no SO_REUSEPORT, one loop, same timings).
//
// Planes:
//   ingest (config.port)   — handshake envelope, then raw session frames
//                            forward and CRC-framed control frames back
//                            (docs/SERVER.md has the wire grammar).
//                            Shared by all shards via SO_REUSEPORT.
//   admin  (config.admin_port) — HTTP/1.0: GET /metrics (Prometheus,
//                            merged across shards), GET /healthz (JSON,
//                            aggregated), POST /checkpoint (fans out).
//
// Durability: the segment-log store (config.store_dir) is the only way
// tenant state reaches disk.  Without it the daemon keeps everything in
// RAM, and the store-only settings (spill, span pool, replication) are
// refused at construction.
//
// Shutdown: request_shutdown() is async-signal-safe (atomic flags + one
// byte down each reactor's self-pipe).  Every shard group-commits its
// store log and closes its connections; the admin loop then joins the
// shard threads, saves placement.map if it changed, and run() returns.
// Tenants are retained after run() so embedders and tests can inspect
// final monitor state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/conn.h"
#include "net/listener.h"
#include "net/placement.h"
#include "net/poller.h"
#include "net/tenant.h"
#include "obs/metrics.h"
#include "store/segment_log.h"

namespace ocep::net {

class Shard;

/// Phases of a live tenant migration (docs/SERVER.md "Rebalancing"):
/// freeze quiesces the tenant on the source shard (at a frame boundary),
/// transfer serializes the OCEPNTC2 blob plus any attached socket through
/// the destination's mailbox, adopt rebuilds the tenant there and resumes
/// byte-identically.
enum class MigrationPhase : std::uint8_t { kFreeze, kTransfer, kAdopt };

/// Test-only fault injection: invoked at each migration phase; returning
/// true makes that phase fail (freeze/transfer abort on the source,
/// adopt bounces the tenant back to it).  Called from shard threads —
/// must be thread-safe.  Production deployments leave it unset.
using MigrationHook =
    std::function<bool(MigrationPhase phase, std::string_view tenant)>;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< ingest plane; 0 = ephemeral
  std::uint16_t admin_port = 0;  ///< admin plane; 0 = ephemeral
  /// Reactor shards for the ingest plane.  1 (the default) reproduces
  /// the single-reactor daemon; N > 1 runs N epoll loops on N threads
  /// behind SO_REUSEPORT listeners with tenant-affinity placement.
  std::size_t shards = 1;
  /// Monitor / matcher / session configuration stamped onto every tenant.
  TenantConfig tenant;
  /// Directory for the crash-consistent append-only tenant store
  /// (docs/ROBUSTNESS.md "Durability").  Non-empty enables durability:
  /// each shard keeps a segment log under <store_dir>/shard-<i>, appends
  /// input deltas on the group commit interval (and on SIGTERM or POST
  /// /checkpoint), and replays base + deltas on restart; placement.map
  /// lives here too.  Empty keeps all tenant state in RAM.
  std::string store_dir;
  /// Group-commit window: pending input bytes are appended + fsynced at
  /// most this often.  Crash loss is bounded by one window (acknowledged
  /// resume positions heal the tail on reconnect).
  std::uint64_t flush_interval_ms = 50;
  /// Byte budget for resident detached tenant state (0 = off).  Past it,
  /// the coldest finished detached tenants are written to the log and
  /// dropped from RAM; a reconnect reloads them transparently.  This,
  /// pool_bytes and replicate_host require store_dir.
  std::uint64_t spill_bytes = 0;
  /// A tenant whose deltas-since-base exceed this is re-based in the group
  /// commit (one full image append supersedes the delta chain); 0
  /// disables re-basing.
  std::uint64_t store_rebase_bytes = 1ULL << 20;
  /// Segment rotation threshold for the store's log files.
  std::size_t store_segment_bytes = std::size_t{4} << 20;
  /// Byte budget for the shard's span buffer pool (store/buffer_pool.h).
  /// Non-zero, with the store on, turns matcher history eviction into
  /// spill: evicted leaf-history spans append to the tenant's log as span
  /// records and fault back through the pool when a deep search needs
  /// them, and a background compactor (store/compactor.h) relocates live
  /// spans out of mostly-dead segments.  0 keeps plain eviction.
  std::uint64_t pool_bytes = 0;
  /// Warm-standby target: every shard streams its segment log to this
  /// follower (empty host = replication off).  Requires store_dir.
  std::string replicate_host;
  std::uint16_t replicate_port = 0;
  /// Test-only crash injection around every store write/fsync/rename
  /// edge; see store::CrashHook.  Called from shard threads.
  store::CrashHook store_crash_hook;
  /// Connections silent this long are closed (their tenant detaches).
  std::uint64_t idle_timeout_ms = 30000;
  /// Grace for a disconnected producer to come back before its tenant is
  /// finalized (degraded if events are missing).
  std::uint64_t detach_linger_ms = 2000;
  /// Governance: shed a tenant past this many received bytes (0 = off).
  std::uint64_t max_tenant_bytes = 0;
  /// Governance: shed a tenant past this many corrupt frames (0 = off).
  std::uint64_t max_corrupt_frames = 4096;
  /// Per-shard connection bound (the kernel spreads accepts, so the
  /// daemon-wide ceiling is about shards * max_connections).
  std::size_t max_connections = 1024;
  /// Daemon-wide tenant bound, enforced across shards.
  std::size_t max_tenants = 256;
  /// Test/bench tap on every event released into a tenant monitor.
  /// With shards > 1 it is invoked concurrently from shard threads
  /// (serially per tenant); the hook must be thread-safe.
  ObserveHook observe_hook;
  /// Live rebalancing (docs/SERVER.md "Rebalancing").  Off by default:
  /// placement stays the pure affinity hash and nothing moves.  On, the
  /// admin thread scores shards by per-tenant byte rates every
  /// rebalance_interval_ms and migrates the hottest tenants off the
  /// hottest shard, and fresh tenants are placed least-loaded instead of
  /// by hash (recorded in the persisted placement override map).
  bool rebalance = false;
  std::uint64_t rebalance_interval_ms = 500;
  /// Minimum byte-rate gap (per interval) between the hottest and
  /// coldest shard before a cycle acts.
  std::uint64_t rebalance_min_rate = 16384;
  /// A migrated tenant is not moved again for this long (anti-ping-pong).
  std::uint64_t rebalance_cooldown_ms = 2000;
  /// Test-only migration fault injection; see MigrationHook.
  MigrationHook migration_hook;
};

class Server {
 public:
  /// Binds every shard listener and the admin plane, and restores the
  /// store; throws NetError when a port cannot be bound, and Error
  /// naming the field when a store-only setting is set without
  /// store_dir.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound ports (resolve ephemeral requests); valid after construction.
  /// All shards share the ingest port.
  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] std::uint16_t admin_port() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Serves until request_shutdown(): spawns one thread per shard and
  /// runs the admin plane on the calling thread.
  void run();

  /// Async-signal-safe stop: flips every reactor's flag and wakes it.
  void request_shutdown() noexcept;

  /// Sum of a counter across every shard registry plus the admin-plane
  /// registry, looked up by canonical key (`name{labels}`).  Thread-safe
  /// at any time — this is how tests and embedders watch a live server.
  [[nodiscard]] std::uint64_t counter_value(std::string_view key) const;

  /// Merges every shard registry plus the admin-plane registry into
  /// `into` (counters add, gauges add, histograms merge bucket-wise).
  /// Thread-safe at any time; `into` is typically a scratch registry.
  void merge_metrics(obs::Registry& into) const;

  /// Post-run inspection (only call after run() returns or before it
  /// starts — tenant state is owned by shard threads while running).
  [[nodiscard]] Tenant* find_tenant(const std::string& name);
  [[nodiscard]] std::size_t tenant_count() const noexcept;
  /// Index of the shard holding `name`, or -1 when absent (post-run).
  [[nodiscard]] int tenant_shard(const std::string& name) const;

  /// The live placement map (thread-safe); tests watch migrations settle
  /// through shard_of()/is_migrating().
  [[nodiscard]] const PlacementMap& placement() const noexcept {
    return *placement_;
  }
  /// One shard's registry (thread-safe reads); load_gen derives per-shard
  /// utilization spread from these.
  [[nodiscard]] const obs::Registry& shard_metrics(std::size_t index) const;

  /// Forces one live migration of `name` to shard `target` and waits for
  /// the source shard to freeze + hand it off (not for the adoption —
  /// watch net.tenant_adoptions or placement() for that).  False when
  /// the tenant is unknown, the target is this shard or out of range,
  /// the server is not running, or the source did not answer in time.
  bool migrate_tenant(const std::string& name, std::size_t target);

  /// One load-scoring + migration pass (the same logic the periodic
  /// rebalancer runs); returns migrations initiated.  Thread-safe, but
  /// intended for the admin thread and tests.
  std::size_t rebalance_cycle();

  /// Aggregated /healthz document (the same JSON GET /healthz serves);
  /// empty string when a shard failed to answer within the deadline.
  /// Thread-safe while running — rows are collected over the shard
  /// mailboxes, exactly as the admin plane does.
  [[nodiscard]] std::string healthz_json();

 private:
  static constexpr std::uint64_t kTagWake = 0;
  static constexpr std::uint64_t kTagAdmin = 2;
  static constexpr std::uint64_t kFirstConnId = 16;

  void run_admin();
  void accept_admin();
  void on_admin_event(std::uint64_t id, std::uint32_t events);
  void advance_admin(Conn& conn);
  void respond_http(Conn& conn, int code, std::string_view content_type,
                    std::string_view body);
  /// POST /checkpoint: every shard's group commit on its own thread,
  /// then placement.map.  The status and JSON body to answer with: 200
  /// and the tenants committed, or 503 when a shard did not answer within
  /// the deadline or its commit failed.
  [[nodiscard]] std::pair<int, std::string> checkpoint_live();
  [[nodiscard]] std::string metrics_prometheus() const;
  void settle_admin(std::uint64_t id);
  void close_admin(std::uint64_t id);
  void sweep_admin_timers();

  ServerConfig config_;
  std::atomic<std::size_t> tenant_total_{0};
  /// Built (and placement.map loaded) before the shards, which hold
  /// references into it.
  std::unique_ptr<PlacementMap> placement_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> shard_threads_;

  /// Rebalancer state (admin thread only): last per-tenant byte totals
  /// for rate deltas, per-tenant cooldown deadlines, next cycle time.
  std::map<std::string, std::uint64_t> rebalance_last_bytes_;
  std::map<std::string, std::uint64_t> rebalance_cooldown_;
  std::uint64_t next_rebalance_ms_ = 0;

  Poller poller_;
  std::unique_ptr<Listener> admin_;
  WakePipe wake_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::uint64_t clock_ms_ = 0;

  /// Admin-plane instruments (accepts, scrape counts); shard registries
  /// hold everything ingest-side.  Merged views come from
  /// merge_metrics() / counter_value().
  obs::Registry registry_;
};

}  // namespace ocep::net
