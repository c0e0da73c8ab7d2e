#include "net/shard.h"

#include <sys/epoll.h>

#include <algorithm>
#include <optional>
#include <utility>

namespace ocep::net {

Shard::Shard(const ServerConfig& config, std::size_t index,
             std::uint16_t ingest_port, bool reuseport,
             std::atomic<std::size_t>& tenant_total, PlacementMap& placement)
    : config_(config),
      index_(index),
      placement_(placement),
      ingest_(std::make_unique<Listener>(config.host, ingest_port, reuseport)),
      clock_ms_(monotonic_ms()),
      host_(config, index, placement, tenant_total, registry_, clock_ms_) {
  poller_.add(wake_.fd(), EPOLLIN, kTagWake);
  poller_.add(ingest_->fd(), EPOLLIN, kTagIngest);
  const store::SegmentLog* log = host_.log();
  if (log != nullptr && !config_.replicate_host.empty()) {
    replicator_ = std::make_unique<Replicator>(
        config_.replicate_host, config_.replicate_port, index_,
        placement_.shard_count(), *log, poller_, kTagRepl, registry_);
  }
}

void Shard::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  wake_.wake();
}

template <typename T>
void Shard::mail(std::vector<T>& box, T item) {
  {
    const std::lock_guard<std::mutex> lock(mail_mutex_);
    box.push_back(std::move(item));
  }
  mail_pending_.store(true, std::memory_order_release);
  wake_.wake();
}

void Shard::post(std::function<void()> task) {
  mail(mail_tasks_, std::move(task));
}

void Shard::adopt(ConnHandoff handoff) {
  mail(mail_handoffs_, std::move(handoff));
}

void Shard::adopt_tenant(TenantHandoff handoff) {
  mail(mail_tenant_handoffs_, std::move(handoff));
}

void Shard::drain_stranded() { drain_mailbox(); }

void Shard::run() {
  std::vector<Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = poller_.wait(events, loop_timeout_ms());
    clock_ms_ = monotonic_ms();
    drain_mailbox();
    for (std::size_t i = 0; i < n; ++i) {
      const Poller::Event& ev = events[i];
      switch (ev.tag) {
        case kTagWake:
          wake_.drain();
          break;
        case kTagIngest:
          accept_ingest();
          break;
        case kTagRepl:
          if (replicator_ != nullptr) {
            replicator_->on_event(ev.events);
          }
          break;
        default:
          on_conn_event(ev.tag, ev.events);
          break;
      }
    }
    sweep_timers();
    if (replicator_ != nullptr) {
      replicator_->tick(clock_ms_);
    }
    if (host_.tick_store(clock_ms_) && replicator_ != nullptr) {
      replicator_->pump();
    }
  }
  graceful_shutdown();
  // Late mail (an admin scrape racing shutdown, a connection migrating
  // from a sibling that stopped a beat later) still gets serviced once so
  // no waiter is abandoned; adopted fds just close.
  drain_mailbox();
}

void Shard::drain_mailbox() {
  if (!mail_pending_.exchange(false, std::memory_order_acquire)) {
    return;
  }
  std::vector<std::function<void()>> tasks;
  std::vector<ConnHandoff> handoffs;
  std::vector<TenantHandoff> tenant_handoffs;
  {
    const std::lock_guard<std::mutex> lock(mail_mutex_);
    tasks.swap(mail_tasks_);
    handoffs.swap(mail_handoffs_);
    tenant_handoffs.swap(mail_tenant_handoffs_);
  }
  for (std::function<void()>& task : tasks) {
    task();
  }
  // Tenants before connections: a connection handed off alongside its
  // tenant's migration then finds the tenant already adopted.
  for (TenantHandoff& handoff : tenant_handoffs) {
    adopt_tenant_now(std::move(handoff));
  }
  for (ConnHandoff& handoff : handoffs) {
    adopt_now(std::move(handoff));
  }
}

int Shard::loop_timeout_ms() const {
  int timeout = 500;
  if (config_.idle_timeout_ms != 0 && !conns_.empty()) {
    timeout = 50;
  }
  timeout = std::min(timeout, host_.wait_bound_ms());
  if (replicator_ != nullptr) {
    timeout = std::min(timeout, replicator_->timeout_bound_ms(clock_ms_));
  }
  return timeout;
}

void Shard::accept_ingest() {
  ingest_->accept_ready([this](OwnedFd fd) {
    if (conns_.size() >= config_.max_connections) {
      registry_.counter("net.accept_overflow").add(1);
      return;  // fd closes on scope exit; the peer sees a reset
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(std::move(fd), id, ConnKind::kIngest);
    conn->last_active_ms = clock_ms_;
    poller_.add(conn->fd(), EPOLLIN, id);
    conns_.emplace(id, std::move(conn));
    registry_.counter("net.accepted", "plane=\"ingest\"").add(1);
    registry_.gauge("net.connections").add(1);
  });
}

void Shard::adopt_now(ConnHandoff handoff) {
  if (stop_.load(std::memory_order_acquire) || !handoff.fd.valid()) {
    return;  // shutting down: the orphaned fd closes, the peer sees a reset
  }
  const std::uint64_t id = next_conn_id_++;
  auto conn =
      std::make_unique<Conn>(std::move(handoff.fd), id, ConnKind::kIngest);
  conn->last_active_ms = clock_ms_;
  conn->seed_inbound(handoff.leftover);
  // EPOLL_CTL_ADD on an already-readable fd reports the current state as
  // a fresh edge, so bytes that raced the migration are not lost.
  poller_.add(conn->fd(), EPOLLIN, id);
  Conn& ref = *conns_.emplace(id, std::move(conn)).first->second;
  registry_.counter("net.conns_adopted").add(1);
  registry_.gauge("net.connections").add(1);
  handle_handshake(ref, handoff.request);
  settle(id);
}

void Shard::migrate(Conn& conn, const HandshakeRequest& request,
                    std::size_t target) {
  ConnHandoff handoff;
  handoff.request = request;
  handoff.leftover = std::string(conn.pending());
  // The fd must leave this shard's epoll interest set before the owner
  // adds it, or both reactors could race on the same readiness edge.
  poller_.del(conn.fd());
  handoff.fd = conn.take_fd();  // conn is kClosed now; settle() reaps it
  registry_.counter("net.conn_migrations").add(1);
  peers_[target]->adopt(std::move(handoff));
}

bool Shard::migrate_tenant(const std::string& name, std::size_t target) {
  if (peers_.empty() || target == index_ || target >= peers_.size() ||
      stop_.load(std::memory_order_acquire)) {
    // Refusing while stopping matters for correctness: the target's
    // reactor may already be past its final mailbox drain, and a handoff
    // posted after that would strand the tenant.
    return false;
  }
  std::optional<TenantExport> image = host_.export_tenant(name, target);
  if (!image) {
    return false;
  }
  TenantHandoff handoff;
  handoff.from_shard = index_;
  const auto it = conns_.find(image->conn_id);
  if (it != conns_.end() && it->second->state() == ConnState::kStreaming) {
    // The socket travels with the tenant: capture unparsed inbound bytes
    // and unflushed outbound frames, deregister, release the fd.
    Conn& conn = *it->second;
    handoff.leftover = std::string(conn.pending());
    handoff.outbound = conn.take_pending_writes();
    poller_.del(conn.fd());
    handoff.fd = conn.take_fd();
    conn.tenant.clear();  // the husk must not detach the departed tenant
    close_conn(conn.id());
  } else if (it != conns_.end()) {
    // A closing connection (FIN already queued) stays to finish its
    // flush; unbind it so its close cannot touch the departed tenant.
    it->second->tenant.clear();
  }
  handoff.image = std::move(*image);
  peers_[target]->adopt_tenant(std::move(handoff));
  return true;
}

void Shard::adopt_tenant_now(TenantHandoff handoff) {
  // A stopped reactor keeps the tenant for post-run inspection (the host
  // syncs its image at once) but lets the socket close: the producer
  // reconnects to the restarted daemon.
  const bool stopping = stop_.load(std::memory_order_acquire);
  const std::uint64_t id =
      !stopping && handoff.fd.valid() ? next_conn_id_++ : 0;
  if (!host_.import_tenant(handoff.image, handoff.bounced, stopping, id,
                           clock_ms_)) {
    if (!handoff.bounced) {
      handoff.bounced = true;
      peers_[handoff.from_shard]->adopt_tenant(std::move(handoff));
    }
    return;
  }
  if (id == 0) {
    return;
  }
  // Re-hang the live socket under a fresh Conn already in streaming
  // state: inbound bytes the source had buffered are seeded ahead of the
  // socket, unflushed outbound frames are re-queued, and EPOLL_CTL_ADD
  // reports any readiness that raced the hop as a fresh edge — no byte
  // is lost in either direction.
  auto conn =
      std::make_unique<Conn>(std::move(handoff.fd), id, ConnKind::kIngest);
  conn->last_active_ms = clock_ms_;
  conn->tenant = handoff.image.name;
  conn->set_state(ConnState::kStreaming);
  conn->seed_inbound(handoff.leftover);
  if (!conn->queue_write(std::move(handoff.outbound))) {
    // Unreachable (the bytes came from a queue under the same bound),
    // but keep the overflow contract: drop the connection, never the
    // tenant.
    registry_.counter("net.write_overflow").add(1);
    host_.detach(handoff.image.name, id, clock_ms_);
    return;
  }
  poller_.add(conn->fd(), EPOLLIN, id);
  Conn& cref = *conns_.emplace(id, std::move(conn)).first->second;
  registry_.gauge("net.connections").add(1);
  on_stream_bytes(cref);  // seeded bytes, pending resyncs, FIN checks
  settle(id);
}

void Shard::on_conn_event(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;  // closed earlier in this batch
  }
  Conn& conn = *it->second;
  conn.last_active_ms = clock_ms_;
  if ((events & EPOLLIN) != 0 || (events & (EPOLLHUP | EPOLLERR)) != 0) {
    on_readable(conn);
  }
  settle(id);
}

void Shard::on_readable(Conn& conn) {
  const IoStatus status = conn.fill();
  switch (conn.state()) {
    case ConnState::kHandshake:
      advance_handshake(conn);
      break;
    case ConnState::kStreaming:
      on_stream_bytes(conn);
      break;
    case ConnState::kRequest:
      conn.set_state(ConnState::kClosed);  // HTTP has no ingest-plane home
      break;
    case ConnState::kClosing:
    case ConnState::kClosed:
      conn.consume(conn.pending().size());  // discard: peer is done
      break;
  }
  if (status == IoStatus::kEof) {
    // Half-close is honoured: flush queued control frames (the FIN a
    // just-finished stream is owed), then close.
    if (conn.state() == ConnState::kStreaming ||
        conn.state() == ConnState::kHandshake) {
      detach_tenant(conn);
    }
    if (conn.state() != ConnState::kClosed) {
      conn.set_state(ConnState::kClosing);
    }
  } else if (status == IoStatus::kError) {
    detach_tenant(conn);
    conn.set_state(ConnState::kClosed);
  }
}

void Shard::advance_handshake(Conn& conn) {
  std::size_t pos = conn.rpos();
  HandshakeRequest request;
  std::string error;
  const ParseStatus status = parse_handshake(conn.rbuf(), pos, request, error);
  switch (status) {
    case ParseStatus::kNeedMore:
      if (conn.pending().size() > Conn::kMaxPrefaceBytes) {
        conn.set_state(ConnState::kClosed);  // oversized, untrusted
      }
      return;
    case ParseStatus::kError:
      registry_.counter("net.handshake_errors").add(1);
      conn.set_state(ConnState::kClosed);
      return;
    case ParseStatus::kDone:
      break;
  }
  conn.consume(pos - conn.rpos());
  handle_handshake(conn, request);
}

void Shard::handle_handshake(Conn& conn, const HandshakeRequest& request) {
  if (!valid_tenant_name(request.tenant)) {
    reject(conn, "invalid tenant name");
    return;
  }
  // Route by placement: the affinity hash unless an override (live
  // migration, least-loaded placement) redirects.  With rebalancing on,
  // a never-seen tenant is assigned the least-loaded shard right here,
  // so the connection hops at most once.
  const std::size_t owner = config_.rebalance
                                ? placement_.route_or_assign(request.tenant)
                                : placement_.owner_of(request.tenant);
  if (owner != index_ && !peers_.empty()) {
    migrate(conn, request, owner);
    return;
  }
  if (placement_.is_migrating(request.tenant)) {
    // Frozen on its source shard, not yet adopted here.  Retryable, like
    // racing a still-attached predecessor connection.
    reject(conn, "tenant is migrating; retry");
    return;
  }
  HandshakeAck ack = host_.attach(request, conn.id(), clock_ms_);
  if (ack.status == AckStatus::kRejected) {
    reject(conn, ack.message);
    return;
  }
  conn.tenant = request.tenant;
  conn.set_state(ConnState::kStreaming);
  ack.shard = index_;
  registry_
      .counter("net.handshakes", ack.status == AckStatus::kFresh
                                     ? "status=\"fresh\""
                                     : "status=\"resumed\"")
      .add(1);
  queue_or_close(conn, encode_ack(ack));
  if (conn.state() == ConnState::kClosed) {
    return;
  }
  // Bytes pipelined behind the handshake — or, for a reconnect after the
  // stream completed, the terminal FIN.
  on_stream_bytes(conn);
}

void Shard::reject(Conn& conn, const std::string& message) {
  registry_.counter("net.handshakes", "status=\"rejected\"").add(1);
  HandshakeAck ack;
  ack.status = AckStatus::kRejected;
  ack.message = message;
  queue_or_close(conn, encode_ack(ack));
  if (conn.state() != ConnState::kClosed) {
    conn.set_state(ConnState::kClosing);
  }
}

void Shard::on_stream_bytes(Conn& conn) {
  Outbox out;
  if (!host_.feed(conn.tenant, conn.pending(), clock_ms_, out)) {
    conn.set_state(ConnState::kClosed);
    return;
  }
  conn.consume(conn.pending().size());
  deliver(conn, out);
}

void Shard::deliver(Conn& conn, Outbox& out) {
  queue_or_close(conn, std::move(out.frames));
  if (out.fin && conn.state() != ConnState::kClosed) {
    conn.set_state(ConnState::kClosing);
  }
}

std::string Shard::healthz_shard_json() const {
  return "{\"shard\":" + std::to_string(index_) +
         ",\"store\":" + host_.healthz_store_json() + ",\"replication\":" +
         (replicator_ != nullptr ? replicator_->healthz_json() : "null") +
         "}";
}

void Shard::queue_or_close(Conn& conn, std::string bytes) {
  if (!conn.queue_write(std::move(bytes))) {
    // The peer stopped reading long enough to blow the queue bound; it
    // forfeits the connection (never the tenant).
    registry_.counter("net.write_overflow").add(1);
    detach_tenant(conn);
    conn.set_state(ConnState::kClosed);
  }
}

void Shard::settle(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it != conns_.end() && it->second->settle(poller_)) {
    close_conn(id);
  }
}

void Shard::detach_tenant(Conn& conn) {
  if (conn.tenant.empty()) {
    return;
  }
  const std::string name = std::move(conn.tenant);
  conn.tenant.clear();
  host_.detach(name, conn.id(), clock_ms_);
}

void Shard::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  detach_tenant(conn);
  if (conn.fd() >= 0) {
    // A migrated-away conn already left the interest set with its fd.
    poller_.del(conn.fd());
  }
  registry_.counter("net.bytes_in_total").add(conn.bytes_in());
  registry_.counter("net.bytes_out_total").add(conn.bytes_out());
  registry_.gauge("net.connections").add(-1);
  conns_.erase(it);
}

void Shard::sweep_timers() {
  clock_ms_ = monotonic_ms();
  if (config_.idle_timeout_ms != 0) {
    std::vector<std::uint64_t> idle;
    for (const auto& [id, conn] : conns_) {
      if (clock_ms_ - conn->last_active_ms > config_.idle_timeout_ms) {
        idle.push_back(id);
      }
    }
    for (const std::uint64_t id : idle) {
      registry_.counter("net.idle_closed").add(1);
      close_conn(id);
    }
  }
  host_.tick(clock_ms_, [this](std::uint64_t id, Outbox& out) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) {
      deliver(*it->second, out);
      settle(id);
    }
  });
}

void Shard::graceful_shutdown() {
  poller_.del(ingest_->fd());
  ingest_->close();
  if (replicator_ != nullptr) {
    // The final commit below pumps nothing (we are past the loop), so
    // just push any queued frames and drop the link.
    replicator_->close_link();
  }
  // Tenants stay in whatever stream state they reached (a mid-stream
  // tenant is committed mid-stream — that is the restart-resume
  // contract).
  (void)host_.checkpoint();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    close_conn(id);
  }
}

}  // namespace ocep::net
