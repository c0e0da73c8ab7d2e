// One reactor shard: the single-threaded epoll loop that owns a slice of
// the ingest plane — its own listener, connections, tenants, and metrics
// registry — so every tenant's Monitor + SessionClient stays
// single-threaded and lock-free no matter how many shards the daemon
// runs.
//
// Tenant affinity.  A tenant lives on shard `shard_for(name, N)` — a
// stable FNV-1a hash of its name — so a reconnecting producer always
// lands back on the shard that holds its session state, and a restart
// with a different shard count repartitions deterministically.  All
// shards listen on the same port via SO_REUSEPORT; the kernel picks an
// arbitrary shard per connect, and a shard that accepts a handshake for
// a tenant it does not own migrates the connection (fd + any bytes
// buffered past the handshake) to the owner before the ack is sent, so
// the producer never observes the hop.
//
// Cross-thread traffic reaches a shard only through its mailbox: post()
// runs a closure on the shard thread (the admin plane uses this for
// /healthz and /checkpoint), adopt() delivers a migrating connection.
// Both wake the reactor via its self-pipe; the shard drains the mailbox
// once per loop iteration.  Everything else — conns_, tenants_, the
// session state machines — is touched exclusively by the shard thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/conn.h"
#include "net/listener.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/replicator.h"
#include "net/server.h"
#include "net/tenant.h"
#include "obs/metrics.h"
#include "store/buffer_pool.h"
#include "store/compactor.h"
#include "store/tenant_store.h"

namespace ocep::net {

// shard_for (the affinity hash) lives in net/placement.h, next to the
// override map that can re-route around it.

/// A connection mid-migration between shards: the socket, the parsed
/// handshake that revealed the tenant's affinity, and whatever the
/// source shard had buffered past the handshake envelope.
struct ConnHandoff {
  OwnedFd fd;
  HandshakeRequest request;
  std::string leftover;
};

/// A whole tenant mid-migration between shards: the serialized OCEPNTC2
/// image (the same bytes a store base record holds), bookkeeping the
/// image deliberately omits, and — when a producer was attached — the
/// live socket with both directions' buffered bytes so the stream
/// resumes without losing a byte in either direction.
struct TenantHandoff {
  std::string name;
  std::string blob;      ///< Tenant::checkpoint() bytes
  OwnedFd fd;            ///< attached socket; invalid when detached
  std::string leftover;  ///< inbound bytes buffered past the last parse
  std::string outbound;  ///< unflushed reverse-channel bytes
  std::uint64_t bytes_in = 0;  ///< cumulative, for governance budgets
  std::uint64_t detach_deadline_ms = 0;  ///< linger expiry carried over
  std::uint64_t migrations = 0;          ///< hops including this one
  /// Source shard's store epoch for this tenant; the destination appends
  /// its base at store_epoch + 1 so cross-log recovery picks it over the
  /// source's (now tombstoned) copy.  0 when the store is off.
  std::uint64_t store_epoch = 0;
  std::size_t from_shard = 0;
  bool bounced = false;  ///< adoption failed; returning to from_shard
};

class Shard {
 public:
  /// Binds this shard's ingest listener (SO_REUSEPORT when the daemon
  /// runs more than one shard) and, with the store on, restores the
  /// tenants `index` owns from the shard logs.  `tenant_total` is the
  /// daemon-wide tenant count the max_tenants limit is enforced against;
  /// `placement` is the daemon-wide placement/override map (already
  /// loaded from disk) that routing consults.
  Shard(const ServerConfig& config, std::size_t index,
        std::size_t shard_count, std::uint16_t ingest_port, bool reuseport,
        std::atomic<std::size_t>& tenant_total, PlacementMap& placement);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return ingest_->port();
  }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  /// Sibling shards for connection migration, indexed by shard number
  /// (peers[index()] == this).  Set once before run().
  void set_peers(std::vector<Shard*> peers) { peers_ = std::move(peers); }

  /// Serves until request_stop(); call from exactly one thread.
  void run();

  /// Async-signal-safe stop: flips the flag and wakes the reactor.
  void request_stop() noexcept;

  /// Runs `task` on the shard thread at the next loop iteration.  Tasks
  /// posted after the shard stopped still run (once, during the final
  /// mailbox drain) so waiters are never abandoned.
  void post(std::function<void()> task);

  /// Delivers a migrating connection; called from a sibling shard.
  void adopt(ConnHandoff handoff);

  /// Delivers a migrating tenant; called from a sibling shard.
  void adopt_tenant(TenantHandoff handoff);

  /// Live tenant migration source side; must run on the shard thread
  /// (post() it).  Freezes `name` at a frame boundary, serializes it, and
  /// hands tenant + attached socket to `target`'s mailbox.  Returns false
  /// (tenant untouched) when the tenant is absent, the target invalid,
  /// the shard stopping, or a migration-hook fault fired.
  bool migrate_tenant(const std::string& name, std::size_t target);

  /// Services any mail still queued after run() returned (a tenant
  /// handed off by a sibling that stopped a beat later).  Caller must
  /// guarantee the shard thread is done (Server::run() joins first).
  void drain_stranded();

  /// Shard-local registry.  Reads are thread-safe any time (instruments
  /// are atomics); the admin plane merges all shard registries per
  /// scrape.
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return registry_;
  }

  /// Disowns store records for tenants this shard holds but does not own
  /// (stale copies after a reshard).  Server calls it once after every
  /// shard has restored — tombstoning during restore could erase a
  /// sibling's only copy before that sibling scanned it.
  void settle_store();

  // --- shard-thread or post-run access only -------------------------
  [[nodiscard]] Tenant* find_tenant(const std::string& name);
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size() + spilled_.size();
  }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return conns_.size();
  }
  /// POST /checkpoint and shutdown: the store's group commit, now.
  /// Returns (and counts in net.checkpoints_written) the tenants that had
  /// uncommitted input; 0 without a store.
  std::size_t checkpoint();
  /// This shard's tenants as comma-joined /healthz JSON objects.
  [[nodiscard]] std::string healthz_rows();
  /// This shard's store/replication status as one /healthz JSON object.
  [[nodiscard]] std::string healthz_shard_json();

 private:
  static constexpr std::uint64_t kTagWake = 0;
  static constexpr std::uint64_t kTagIngest = 1;
  static constexpr std::uint64_t kTagRepl = 2;
  static constexpr std::uint64_t kFirstConnId = 16;

  [[nodiscard]] static std::uint64_t now_ms() noexcept;

  void open_store();
  void restore_from_store();
  /// Rebuilds a tenant from a stored image: restore the base (or
  /// re-register genesis patterns) and replay the input deltas.
  [[nodiscard]] std::unique_ptr<Tenant> rebuild_tenant(
      const std::string& name, const store::TenantImage& image);
  /// Appends a full image of `tenant` at >= min_epoch (requires
  /// can_checkpoint()).
  void store_rebase(Tenant& tenant, std::uint64_t min_epoch);
  /// Group commit: append pending input deltas, re-base heavy tenants,
  /// fsync, then run the spill pass.  Returns whether every store
  /// mutation succeeded — a false return leaves the failed tenants'
  /// pending bytes queued for the next (backed-off) attempt.
  bool flush_store();
  void spill_pass();
  /// Reloads a spilled tenant from the store; nullptr on failure (the
  /// spilled entry is kept so a retry is possible).
  [[nodiscard]] Tenant* unspill(const std::string& name);
  /// The per-tenant spill adapter binding `name` to this shard's store +
  /// buffer pool; nullptr when the span tier is off (no store or no pool
  /// budget).
  [[nodiscard]] SpanSink* span_sink_for(const std::string& name);
  /// Drops `name`'s adapter and pool frames (tenant left this shard).
  void drop_span_sink(const std::string& name);
  /// Kills span records the rebuilt tenant no longer references (crash
  /// orphans: spilled, then released in RAM, then crashed before sync).
  void reconcile_spans(Tenant& tenant);
  /// Runs a store mutation, absorbing StoreError into the store.errors
  /// counter (an I/O fault must not take the reactor down); returns
  /// whether it succeeded.
  bool store_try(const std::function<void()>& fn);
  /// Folds store stats deltas into this shard's registry counters.
  void fold_store_stats();
  [[nodiscard]] std::uint64_t flush_interval_ms() const noexcept;
  void accept_ingest();
  void drain_mailbox();
  void adopt_now(ConnHandoff handoff);
  void adopt_tenant_now(TenantHandoff handoff);
  void bounce_or_drop(TenantHandoff handoff);
  /// Last resort for a handoff image no reactor will serve (an adoption
  /// that raced stop_, a bounce that failed): appended to the store as a
  /// base at store_epoch + 1 and synced.  No-op without a store.
  void store_handoff(const TenantHandoff& handoff);
  void migrate(Conn& conn, const HandshakeRequest& request,
               std::size_t target);
  void on_conn_event(std::uint64_t id, std::uint32_t events);
  void on_readable(Conn& conn);
  void advance_handshake(Conn& conn);
  void handle_handshake(Conn& conn, const HandshakeRequest& request);
  void reject(Conn& conn, const std::string& message);
  void on_stream_bytes(Conn& conn);
  void pump_tenant(Conn& conn, Tenant& tenant);
  void send_fin(Conn& conn, Tenant& tenant);
  void queue_or_close(Conn& conn, std::string bytes);
  void settle(std::uint64_t id);
  void want_epollout(Conn& conn, bool want);
  void close_conn(std::uint64_t id);
  void detach_tenant(Conn& conn);
  void sweep_timers();
  [[nodiscard]] int loop_timeout_ms() const;
  void graceful_shutdown();

  const ServerConfig& config_;
  std::size_t index_;
  std::size_t shard_count_;
  std::atomic<std::size_t>& tenant_total_;
  PlacementMap& placement_;
  std::vector<Shard*> peers_;

  Poller poller_;
  std::unique_ptr<Listener> ingest_;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<bool> stop_{false};

  std::mutex mail_mutex_;
  std::atomic<bool> mail_pending_{false};
  std::vector<std::function<void()>> mail_tasks_;
  std::vector<ConnHandoff> mail_handoffs_;
  std::vector<TenantHandoff> mail_tenant_handoffs_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::uint64_t clock_ms_ = 0;

  obs::Registry registry_;

  /// Per-tenant registry instruments plus the last snapshot folded into
  /// them (session counters are cumulative; the registry wants deltas).
  struct Meters {
    obs::Counter* bytes = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* events = nullptr;
    obs::Counter* corrupt = nullptr;
    std::uint64_t last_bytes = 0;
    std::uint64_t last_frames = 0;
    std::uint64_t last_events = 0;
    std::uint64_t last_corrupt = 0;
  };
  [[nodiscard]] Meters& meters_for(Tenant& tenant);
  void update_meters(Tenant& tenant);
  /// Primes a fresh Meters snapshot at the tenant's current cumulative
  /// values without adding — an adopted tenant's history was already
  /// counted by the shards it lived on.
  void seed_meters(Tenant& tenant);
  std::map<std::string, Meters> meters_;

  /// Append-only tenant store (null when config.store_dir is empty).
  std::unique_ptr<store::TenantStore> store_;
  /// Per-tenant durability bookkeeping while the store is on.
  struct Durable {
    std::string pending;  ///< input bytes not yet appended to the log
    std::uint64_t bytes_since_base = 0;  ///< delta chain length, for re-base
    std::uint64_t last_active_ms = 0;    ///< spill-pass coldness key
  };
  std::map<std::string, Durable> durable_;
  /// Tenants evicted from RAM to the store; the metadata /healthz and a
  /// reconnect gate need without reloading the image.
  struct Spilled {
    TenantState state = TenantState::kStreaming;
    std::string shed_reason;
    std::uint64_t bytes_in = 0;
    std::uint64_t migrations = 0;
    std::uint64_t events = 0;
    /// Unspill-failure backoff: reloads are refused until retry_at_ms
    /// (capped doubling), so a producer hammering a tenant whose image
    /// sits on a faulting disk cannot turn every reconnect into an I/O
    /// storm.
    std::uint64_t retry_at_ms = 0;
    std::uint64_t retry_backoff_ms = 0;
  };
  std::map<std::string, Spilled> spilled_;
  /// Tenants found in this shard's log at restore but owned elsewhere;
  /// tombstoned by settle_store() after every shard has scanned.
  std::vector<std::string> store_foreign_;
  std::uint64_t next_flush_ms_ = 0;
  bool store_work_pending_ = false;
  /// Disk-fault degradation: a failed flush tick doubles the retry delay
  /// (capped) instead of killing the daemon; /healthz flags it.
  std::uint64_t flush_backoff_ms_ = 0;
  bool store_degraded_ = false;
  std::uint64_t append_errors_ = 0;
  /// Warm-standby link (null unless config.replicate_host is set).
  std::unique_ptr<Replicator> replicator_;
  /// Stats snapshots already folded into the registry (fold by delta).
  store::LogStats last_log_stats_;
  store::TenantStoreStats last_store_stats_;
  store::BufferPoolStats last_pool_stats_;
  store::CompactorStats last_compactor_stats_;

  /// Span storage tier (null unless the store is on and pool_bytes > 0).
  /// The pool caches decoded span records shard-wide; each tenant gets
  /// one StoreSpanSink adapter routing matcher spills/faults to its log
  /// records.
  class StoreSpanSink;
  std::unique_ptr<store::BufferPool> pool_;
  std::map<std::string, std::unique_ptr<StoreSpanSink>> span_sinks_;
  /// Background segment compactor (null unless compact_ratio > 0); runs
  /// as an incremental state machine on this shard thread, never a
  /// separate owner of the log.
  std::unique_ptr<store::Compactor> compactor_;
  std::uint64_t unspill_errors_ = 0;
};

}  // namespace ocep::net
