#include "net/standby.h"

#include <sys/epoll.h>

#include <filesystem>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "store/segment_log.h"

namespace ocep::net {
namespace {

constexpr std::uint64_t kTagWake = 0;
constexpr std::uint64_t kTagRepl = 1;
constexpr std::uint64_t kTagAdmin = 2;
constexpr std::uint64_t kFirstConnId = 16;
constexpr std::uint64_t kMaxShardCount = 256;

std::string shard_dir(const std::string& base, std::uint64_t index) {
  // Must match the primary's layout (tenant_host.cc) so a promoted standby's
  // store opens as-is.
  return base + "/shard-" + std::to_string(index);
}

}  // namespace

Standby::Standby(StandbyConfig config)
    : config_(std::move(config)), next_conn_id_(kFirstConnId) {
  std::filesystem::create_directories(config_.store_dir);
  repl_listener_ = std::make_unique<Listener>(config_.host, config_.port);
  admin_listener_ =
      std::make_unique<Listener>(config_.host, config_.admin_port);
  poller_.add(wake_.fd(), EPOLLIN, kTagWake);
  poller_.add(repl_listener_->fd(), EPOLLIN, kTagRepl);
  poller_.add(admin_listener_->fd(), EPOLLIN, kTagAdmin);
}

std::uint16_t Standby::port() const { return repl_listener_->port(); }
std::uint16_t Standby::admin_port() const { return admin_listener_->port(); }

void Standby::request_shutdown() {
  shutdown_.store(true, std::memory_order_release);
  wake_.wake();
}

void Standby::request_promote() {
  promote_.store(true, std::memory_order_release);
  wake_.wake();
}

StandbyExit Standby::run() {
  std::vector<Poller::Event> events;
  while (!shutdown_.load(std::memory_order_acquire) &&
         !promote_.load(std::memory_order_acquire)) {
    poller_.wait(events, 500);
    for (const Poller::Event& ev : events) {
      switch (ev.tag) {
        case kTagWake:
          wake_.drain();
          break;
        case kTagRepl:
          accept_repl();
          break;
        case kTagAdmin:
          accept_admin();
          break;
        default:
          on_conn_event(ev.tag, ev.events);
          break;
      }
    }
  }

  // Release the ports and leave every replica durable and closed: the
  // caller may construct a Server on this exact config next.
  poller_.del(repl_listener_->fd());
  poller_.del(admin_listener_->fd());
  repl_listener_->close();
  admin_listener_->close();
  while (!conns_.empty()) {
    close_conn(conns_.begin()->first);
  }
  for (auto& [index, replica] : replicas_) {
    try {
      replica->commit();
    } catch (const StoreError&) {
      registry_.counter("standby.store_errors").add(1);
    }
  }
  replicas_.clear();
  shard_owner_.clear();
  return promote_.load(std::memory_order_acquire) ? StandbyExit::kPromote
                                                  : StandbyExit::kShutdown;
}

void Standby::accept_repl() {
  repl_listener_->accept_ready([this](OwnedFd fd) {
    const std::uint64_t id = next_conn_id_++;
    poller_.add(fd.get(), EPOLLIN, id);
    auto conn = std::make_unique<Conn>(std::move(fd), id, ConnKind::kIngest);
    conn->set_state(ConnState::kStreaming);
    conns_.emplace(id, std::move(conn));
    repl_conns_.emplace(id, ReplConn{});
  });
}

void Standby::accept_admin() {
  admin_listener_->accept_ready([this](OwnedFd fd) {
    const std::uint64_t id = next_conn_id_++;
    poller_.add(fd.get(), EPOLLIN, id);
    conns_.emplace(id,
                   std::make_unique<Conn>(std::move(fd), id, ConnKind::kAdmin));
  });
}

void Standby::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  if (it->second->fd() >= 0) {
    poller_.del(it->second->fd());
  }
  const auto rc = repl_conns_.find(id);
  if (rc != repl_conns_.end()) {
    const auto owner = shard_owner_.find(rc->second.shard_index);
    if (owner != shard_owner_.end() && owner->second == id) {
      shard_owner_.erase(owner);
    }
    repl_conns_.erase(rc);
  }
  conns_.erase(it);
}

void Standby::drop_shard(std::uint64_t shard_index) {
  // A store-level failure poisons this replica: destroy it so the next
  // hello reopens (and self-heals) the directory from scratch.
  replicas_.erase(shard_index);
  shard_owner_.erase(shard_index);
}

void Standby::on_conn_event(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn(id);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    const IoStatus status = conn.fill();
    if (conn.kind() == ConnKind::kAdmin) {
      advance_admin(conn);
    } else {
      advance_repl(conn);
    }
    if (!conns_.contains(id)) {
      return;  // advance closed it
    }
    if (status == IoStatus::kEof) {
      conn.set_state(ConnState::kClosing);
    } else if (status == IoStatus::kError) {
      conn.set_state(ConnState::kClosed);
    }
  }
  if (conn.settle(poller_)) {
    close_conn(id);
  }
}

void Standby::advance_repl(Conn& conn) {
  const auto rc_it = repl_conns_.find(conn.id());
  if (rc_it == repl_conns_.end()) {
    close_conn(conn.id());
    return;
  }
  ReplConn& rc = rc_it->second;

  if (!rc.hello_done) {
    store::ReplHello hello;
    const std::int64_t consumed =
        store::try_decode_repl_hello(conn.pending(), hello);
    if (consumed < 0 || (consumed == 0 && conn.pending().size() > 4096)) {
      close_conn(conn.id());
      return;
    }
    if (consumed == 0) {
      return;
    }
    conn.consume(static_cast<std::size_t>(consumed));
    if (hello.proto != store::kReplProtoVersion ||
        hello.shard_count == 0 || hello.shard_count > kMaxShardCount ||
        hello.shard_index >= hello.shard_count) {
      close_conn(conn.id());
      return;
    }
    // A restarted primary redials before its old connection times out:
    // the newest hello for a shard wins and the stale link is dropped.
    const auto owner = shard_owner_.find(hello.shard_index);
    if (owner != shard_owner_.end() && owner->second != conn.id()) {
      close_conn(owner->second);
    }
    try {
      auto& replica = replicas_[hello.shard_index];
      if (replica == nullptr) {
        replica = std::make_unique<store::ReplicaLog>(
            shard_dir(config_.store_dir, hello.shard_index));
      }
      rc.shard_index = hello.shard_index;
      rc.records_base = replica->records_applied();
      shard_owner_[hello.shard_index] = conn.id();
      rc.hello_done = true;
      registry_.counter("standby.hellos").add(1);
      if (!conn.queue_write(store::encode_repl_state(replica->state()))) {
        close_conn(conn.id());
        return;
      }
    } catch (const StoreError&) {
      registry_.counter("standby.store_errors").add(1);
      drop_shard(hello.shard_index);
      close_conn(conn.id());
      return;
    }
  }

  while (true) {
    store::ReplFrameType type{};
    std::string payload;
    const std::int64_t consumed =
        store::try_decode_repl_frame(conn.pending(), type, payload);
    if (consumed == 0) {
      return;
    }
    if (consumed < 0) {
      close_conn(conn.id());
      return;
    }
    conn.consume(static_cast<std::size_t>(consumed));
    if (!dispatch_frame(conn, rc, type, payload)) {
      return;  // conn is gone
    }
  }
}

bool Standby::dispatch_frame(Conn& conn, ReplConn& rc,
                             store::ReplFrameType type,
                             const std::string& payload) {
  store::ReplicaLog* replica = nullptr;
  const auto rep_it = replicas_.find(rc.shard_index);
  if (rep_it != replicas_.end()) {
    replica = rep_it->second.get();
  }
  if (replica == nullptr) {
    close_conn(conn.id());
    return false;
  }
  registry_.counter("standby.frames").add(1);
  try {
    switch (type) {
      case store::ReplFrameType::kReset:
        replica->reset();
        return true;
      case store::ReplFrameType::kOpenSegment: {
        std::uint32_t id = 0;
        if (!store::decode_repl_open(payload, id)) {
          break;
        }
        replica->open_segment(id);
        return true;
      }
      case store::ReplFrameType::kAppend: {
        std::uint32_t id = 0;
        std::uint64_t offset = 0;
        std::string_view bytes;
        if (!store::decode_repl_append(payload, id, offset, bytes)) {
          break;
        }
        replica->append(id, offset, bytes);
        return true;
      }
      case store::ReplFrameType::kDrop: {
        std::uint32_t id = 0;
        if (!store::decode_repl_drop(payload, id)) {
          break;
        }
        replica->drop_segment(id);
        return true;
      }
      case store::ReplFrameType::kCommit: {
        std::uint64_t seq = 0;
        if (!store::decode_repl_commit(payload, seq)) {
          break;
        }
        replica->commit();
        store::ReplAck ack;
        ack.seq = seq;
        ack.segment = replica->active_segment();
        ack.offset = replica->active_size();
        ack.records = replica->records_applied() - rc.records_base;
        registry_.counter("standby.commits").add(1);
        if (!conn.queue_write(store::encode_repl_ack(ack))) {
          close_conn(conn.id());
          return false;
        }
        return true;
      }
      case store::ReplFrameType::kAck:
        break;  // follower never receives acks
    }
  } catch (const StoreError&) {
    registry_.counter("standby.store_errors").add(1);
    drop_shard(rc.shard_index);
    close_conn(conn.id());
    return false;
  }
  close_conn(conn.id());
  return false;
}

std::string Standby::healthz_json() const {
  std::string out = "{\"role\":\"standby\",\"shards\":[";
  bool first = true;
  for (const auto& [index, replica] : replicas_) {
    if (!first) {
      out += ",";
    }
    first = false;
    const store::ReplicaLog::Stats& stats = replica->stats();
    out += "{\"shard\":" + std::to_string(index) +
           ",\"active_segment\":" + std::to_string(replica->active_segment()) +
           ",\"active_size\":" + std::to_string(replica->active_size()) +
           ",\"records_applied\":" +
           std::to_string(replica->records_applied()) +
           ",\"appends\":" + std::to_string(stats.appends) +
           ",\"commits\":" + std::to_string(stats.commits) +
           ",\"resets\":" + std::to_string(stats.resets) + "}";
  }
  out += "],\"connections\":" + std::to_string(conns_.size()) + "}\n";
  return out;
}

void Standby::advance_admin(Conn& conn) {
  std::size_t pos = conn.rpos();
  HttpRequest request;
  switch (parse_http_request(conn.rbuf(), pos, Conn::kMaxPrefaceBytes,
                             request)) {
    case ParseStatus::kNeedMore:
      return;
    case ParseStatus::kError:
      close_conn(conn.id());
      return;
    case ParseStatus::kDone:
      break;
  }
  conn.consume(pos - conn.rpos());

  // A response that overflows the write queue leaves the connection
  // closed, which the caller's settle reaps.
  if (request.method == "GET" && request.path == "/healthz") {
    conn.respond_http(200, "application/json", healthz_json());
  } else if (request.method == "GET" && request.path == "/metrics") {
    conn.respond_http(200, "text/plain; version=0.0.4",
                      registry_.to_prometheus());
  } else if (request.method == "POST" && request.path == "/promote") {
    conn.respond_http(200, "application/json", "{\"promoting\":true}\n");
    promote_.store(true, std::memory_order_release);
  } else {
    conn.respond_http(404, "application/json", "{\"error\":\"not found\"}\n");
  }
}

}  // namespace ocep::net
