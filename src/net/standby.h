// Warm-standby daemon: the follower side of the replication protocol.
//
// A Standby listens where a primary's ingest plane would and accepts one
// replication connection per primary shard (the hello names the shard);
// each connection feeds a store::ReplicaLog under the same
// `<store_dir>/shard-N` layout the primary uses, so the directory a
// standby maintains IS a primary store — promotion is nothing more than
// constructing a normal Server over it, which replays the logs exactly
// like a crash restart.
//
// The admin plane serves GET /healthz (role "standby" plus per-shard
// replica positions), GET /metrics, and POST /promote.  Promotion (or
// SIGUSR1 via request_promote()) makes run() return kPromote after
// committing and closing every replica and releasing both listen ports;
// the caller then builds the real Server on the same config.
//
// Split-brain is the operator's problem by design: the standby never
// checks whether the old primary is really dead, it just starts serving.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "net/conn.h"
#include "net/listener.h"
#include "net/poller.h"
#include "obs/metrics.h"
#include "store/replication.h"

namespace ocep::net {

struct StandbyConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< replication listener (the ingest port)
  std::uint16_t admin_port = 0;  ///< /healthz, /metrics, /promote
  std::string store_dir;
};

enum class StandbyExit : std::uint8_t {
  kShutdown,
  kPromote,
};

class Standby {
 public:
  explicit Standby(StandbyConfig config);

  Standby(const Standby&) = delete;
  Standby& operator=(const Standby&) = delete;

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::uint16_t admin_port() const;

  /// Runs the event loop on the calling thread until shutdown or
  /// promotion.  On return both listen ports are released and every
  /// replica log is committed and closed.
  StandbyExit run();

  /// Async-signal-safe stop/promote requests (atomics + wake pipe).
  void request_shutdown();
  void request_promote();

  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }

 private:
  struct ReplConn {
    bool hello_done = false;
    std::uint64_t shard_index = 0;
    /// records_applied() at hello time: acks carry per-connection deltas.
    std::uint64_t records_base = 0;
  };

  void accept_repl();
  void accept_admin();
  void on_conn_event(std::uint64_t id, std::uint32_t events);
  void advance_repl(Conn& conn);
  void advance_admin(Conn& conn);
  bool dispatch_frame(Conn& conn, ReplConn& rc, store::ReplFrameType type,
                      const std::string& payload);
  [[nodiscard]] std::string healthz_json() const;
  void close_conn(std::uint64_t id);
  void drop_shard(std::uint64_t shard_index);

  StandbyConfig config_;
  Poller poller_;
  std::unique_ptr<Listener> repl_listener_;
  std::unique_ptr<Listener> admin_listener_;
  WakePipe wake_;

  std::uint64_t next_conn_id_;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::map<std::uint64_t, ReplConn> repl_conns_;  ///< by conn id

  std::map<std::uint64_t, std::unique_ptr<store::ReplicaLog>> replicas_;
  std::map<std::uint64_t, std::uint64_t> shard_owner_;  ///< shard -> conn

  obs::Registry registry_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> promote_{false};
};

}  // namespace ocep::net
