// One reactor shard: the single-threaded epoll loop that owns a slice of
// the ingest plane — its own listener, connections, metrics registry and
// replication link — so every tenant's Monitor + SessionClient stays
// single-threaded and lock-free no matter how many shards the daemon
// runs.  The shard is the socket half; its TenantHost (net/tenant_host.h)
// holds the tenants and the store, and is called with connection ids and
// the loop's clock.
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
// once per loop iteration.  Everything else — conns_, the host and its
// tenants — is touched exclusively by the shard thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/conn.h"
#include "net/listener.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/replicator.h"
#include "net/server.h"
#include "net/tenant_host.h"
#include "obs/metrics.h"

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

/// A whole tenant mid-migration between shards: the host's frozen image
/// and — when a producer was attached — the live socket with both
/// directions' buffered bytes, so the stream resumes without losing a
/// byte in either direction.
struct TenantHandoff {
  TenantExport image;
  OwnedFd fd;            ///< attached socket; invalid when detached
  std::string leftover;  ///< inbound bytes buffered past the last parse
  std::string outbound;  ///< unflushed reverse-channel bytes
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
        std::uint16_t ingest_port, bool reuseport,
        std::atomic<std::size_t>& tenant_total, PlacementMap& placement);

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
  /// (post() it).  Has the host freeze `name` at a frame boundary, and
  /// hands the image plus any attached socket to `target`'s mailbox.
  /// Returns false (tenant untouched) when the tenant is absent, the
  /// target invalid, the shard stopping, or a migration-hook fault fired.
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

  // --- shard-thread or post-run access only -------------------------
  [[nodiscard]] TenantHost& host() noexcept { return host_; }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return conns_.size();
  }
  /// This shard's store/replication status as one /healthz JSON object.
  [[nodiscard]] std::string healthz_shard_json() const;

 private:
  static constexpr std::uint64_t kTagWake = 0;
  static constexpr std::uint64_t kTagIngest = 1;
  static constexpr std::uint64_t kTagRepl = 2;
  static constexpr std::uint64_t kFirstConnId = 16;

  /// Queues `item` in a mailbox and wakes the reactor.
  template <typename T>
  void mail(std::vector<T>& box, T item);
  void accept_ingest();
  void drain_mailbox();
  void adopt_now(ConnHandoff handoff);
  void adopt_tenant_now(TenantHandoff handoff);
  void migrate(Conn& conn, const HandshakeRequest& request,
               std::size_t target);
  void on_conn_event(std::uint64_t id, std::uint32_t events);
  void on_readable(Conn& conn);
  void advance_handshake(Conn& conn);
  void handle_handshake(Conn& conn, const HandshakeRequest& request);
  void reject(Conn& conn, const std::string& message);
  void on_stream_bytes(Conn& conn);
  /// Writes the host's owed frames to `conn` (closing it after a FIN).
  void deliver(Conn& conn, Outbox& out);
  void queue_or_close(Conn& conn, std::string bytes);
  void settle(std::uint64_t id);
  void close_conn(std::uint64_t id);
  void detach_tenant(Conn& conn);
  void sweep_timers();
  [[nodiscard]] int loop_timeout_ms() const;
  void graceful_shutdown();

  const ServerConfig& config_;
  std::size_t index_;
  PlacementMap& placement_;
  std::vector<Shard*> peers_;

  Poller poller_;
  std::unique_ptr<Listener> ingest_;
  WakePipe wake_;
  std::atomic<bool> stop_{false};

  std::mutex mail_mutex_;
  std::atomic<bool> mail_pending_{false};
  std::vector<std::function<void()>> mail_tasks_;
  std::vector<ConnHandoff> mail_handoffs_;
  std::vector<TenantHandoff> mail_tenant_handoffs_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::uint64_t clock_ms_ = 0;

  obs::Registry registry_;
  /// Declared after registry_ and clock_ms_: its constructor restores
  /// tenants into the registry at the loop's start time.
  TenantHost host_;
  /// Warm-standby link (null unless the store is on and
  /// config.replicate_host is set); tails the host's segment log.
  std::unique_ptr<Replicator> replicator_;
};

}  // namespace ocep::net
