#include "net/shard.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace ocep::net {
namespace {

namespace fs = std::filesystem;

/// Tenant names are keys of store records and Prometheus label values;
/// a conservative charset keeps both trivially safe to write and parse.
bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > 128) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return name != "." && name != "..";
}

std::string tenant_label(const std::string& name) {
  return "tenant=\"" + name + "\"";
}

/// Each shard owns one log directory under the shared store root.
std::string store_shard_dir(const std::string& base, std::size_t index) {
  return base + "/shard-" + std::to_string(index);
}

}  // namespace

Shard::Shard(const ServerConfig& config, std::size_t index,
             std::size_t shard_count, std::uint16_t ingest_port,
             bool reuseport, std::atomic<std::size_t>& tenant_total,
             PlacementMap& placement)
    : config_(config),
      index_(index),
      shard_count_(shard_count),
      tenant_total_(tenant_total),
      placement_(placement) {
  ingest_ = std::make_unique<Listener>(config_.host, ingest_port, reuseport);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw NetError("pipe2(wake): " + std::string(std::strerror(errno)));
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  poller_.add(wake_read_, EPOLLIN, kTagWake);
  poller_.add(ingest_->fd(), EPOLLIN, kTagIngest);
  clock_ms_ = now_ms();
  if (!config_.store_dir.empty()) {
    // Corruption that is not a torn tail fails construction loudly — an
    // operator must intervene rather than serve from a silently partial
    // store (ocep_inspect --store diagnoses the damage).
    open_store();
    restore_from_store();
  }
  next_flush_ms_ = clock_ms_ + flush_interval_ms();
  if (store_ != nullptr && !config_.replicate_host.empty()) {
    replicator_ = std::make_unique<Replicator>(
        config_.replicate_host, config_.replicate_port, index_, shard_count_,
        store_->log(), poller_, kTagRepl, registry_);
  }
}

Shard::~Shard() {
  if (wake_read_ >= 0) {
    ::close(wake_read_);
  }
  if (wake_write_ >= 0) {
    ::close(wake_write_);
  }
}

std::uint64_t Shard::now_ms() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000U +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000U;
}

void Shard::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    const char byte = 'q';
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
}

void Shard::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_tasks_.push_back(std::move(task));
  }
  mail_pending_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    const char byte = 'm';
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
}

void Shard::adopt(ConnHandoff handoff) {
  {
    const std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_handoffs_.push_back(std::move(handoff));
  }
  mail_pending_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    const char byte = 'a';
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
}

void Shard::adopt_tenant(TenantHandoff handoff) {
  {
    const std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_tenant_handoffs_.push_back(std::move(handoff));
  }
  mail_pending_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    const char byte = 't';
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
}

void Shard::drain_stranded() { drain_mailbox(); }

Tenant* Shard::find_tenant(const std::string& name) {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void Shard::open_store() {
  store::LogConfig log_config;
  log_config.dir = store_shard_dir(config_.store_dir, index_);
  log_config.segment_bytes = config_.store_segment_bytes;
  log_config.crash_hook = config_.store_crash_hook;
  store_ = std::make_unique<store::TenantStore>(std::move(log_config));
  if (config_.pool_bytes != 0) {
    pool_ = std::make_unique<store::BufferPool>(config_.pool_bytes);
  }
  if (config_.compact_ratio > 0.0) {
    store::CompactorConfig compactor_config;
    compactor_config.dead_ratio = config_.compact_ratio;
    compactor_ = std::make_unique<store::Compactor>(*store_, compactor_config);
    compactor_->set_rebase_fn([this](const std::string& name) {
      Tenant* tenant = find_tenant(name);
      if (tenant == nullptr || !tenant->can_checkpoint()) {
        return true;  // gone (spilled, migrated): drop the request
      }
      const bool ok = store_try([&] {
        std::ostringstream blob;
        tenant->checkpoint(blob);
        store_->append_base(name, std::move(blob).str());
      });
      if (ok) {
        durable_[name].bytes_since_base = 0;
        store_work_pending_ = true;
      }
      return ok;
    });
  }
}

/// Routes one tenant's matcher spills and faults to the shard's store +
/// pool.  Lives next to the tenant (span_sinks_), detached only when the
/// tenant leaves the shard for good.
class Shard::StoreSpanSink final : public SpanSink {
 public:
  StoreSpanSink(Shard& shard, std::string tenant)
      : shard_(shard), tenant_(std::move(tenant)) {}

  bool spill(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq,
             std::span<const HistoryEntry> entries) override {
    if (shard_.store_ == nullptr) {
      return false;
    }
    store::SpanPayload payload;
    payload.key = store::SpanKey{pattern, leaf, trace, seq};
    payload.entries.reserve(entries.size());
    for (const HistoryEntry& entry : entries) {
      payload.entries.emplace_back(entry.index, entry.comm_before);
    }
    // Declining on an append fault keeps the entries in RAM (plain
    // eviction) — never tell the matcher a span is durable when it is
    // not.  Durability proper arrives with the next group commit; a
    // crash before it replays the deltas, and the replay's re-spill is
    // idempotent (last-wins keys).
    const bool ok = shard_.store_try(
        [&] { shard_.store_->append_span(tenant_, payload); });
    if (ok) {
      shard_.store_work_pending_ = true;
    }
    return ok;
  }

  bool fault(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq, std::vector<HistoryEntry>& out) override {
    if (shard_.pool_ == nullptr || shard_.store_ == nullptr) {
      return false;
    }
    const store::SpanKey key{pattern, leaf, trace, seq};
    const store::SpanPayload* span =
        shard_.pool_->acquire(tenant_, key, *shard_.store_);
    if (span == nullptr) {
      return false;
    }
    out.clear();
    out.reserve(span->entries.size());
    for (const auto& [index, comm_before] : span->entries) {
      out.push_back(HistoryEntry{static_cast<EventIndex>(index),
                                 static_cast<std::uint32_t>(comm_before)});
    }
    shard_.pool_->unpin(tenant_, key);
    return true;
  }

  void release(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
               std::uint64_t seq) override {
    const store::SpanKey key{pattern, leaf, trace, seq};
    if (shard_.pool_ != nullptr) {
      shard_.pool_->invalidate(tenant_, key);
    }
    if (shard_.store_ != nullptr) {
      shard_.store_->release_span(tenant_, key);
    }
  }

 private:
  Shard& shard_;
  std::string tenant_;
};

SpanSink* Shard::span_sink_for(const std::string& name) {
  if (store_ == nullptr || pool_ == nullptr) {
    return nullptr;
  }
  auto it = span_sinks_.find(name);
  if (it == span_sinks_.end()) {
    it = span_sinks_
             .emplace(name, std::make_unique<StoreSpanSink>(*this, name))
             .first;
  }
  return it->second.get();
}

void Shard::drop_span_sink(const std::string& name) {
  span_sinks_.erase(name);
  if (pool_ != nullptr) {
    pool_->invalidate_tenant(name);
  }
}

void Shard::reconcile_spans(Tenant& tenant) {
  if (store_ == nullptr || pool_ == nullptr) {
    return;
  }
  std::vector<store::SpanKey> live;
  tenant.monitor().for_each_spilled(
      [&](std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
          std::uint64_t seq) {
        live.push_back(store::SpanKey{pattern, leaf, trace, seq});
      });
  store_try([&] { store_->retain_spans(tenant.name(), live); });
}

std::unique_ptr<Tenant> Shard::rebuild_tenant(const std::string& name,
                                              const store::TenantImage& image) {
  auto tenant =
      std::make_unique<Tenant>(name, config_.tenant, config_.observe_hook);
  if (SpanSink* sink = span_sink_for(name)) {
    // Attached before restore: the base image's spilled-span metadata
    // must be able to fault, and the delta replay's re-evictions re-spill
    // through the same sink (idempotently — the seqs repeat).
    tenant->set_span_sink(sink);
  }
  if (image.has_base) {
    std::istringstream in(image.base);
    tenant->restore(in);
  } else {
    tenant->register_patterns(image.patterns);
  }
  // Replay the captured input; the session's position dedup makes bytes
  // the base already covered idempotent, so base + deltas converge on
  // the same state the live tenant held.
  for (const std::string& delta : image.deltas) {
    if (!tenant->streaming()) {
      break;
    }
    tenant->feed(delta);
  }
  (void)tenant->maybe_finish();
  // The log may hold spans the rebuilt matcher no longer references (it
  // released them in RAM after the base was cut, then the crash lost the
  // re-spilling deltas); kill those now or nothing ever will.
  reconcile_spans(*tenant);
  return tenant;
}

void Shard::restore_from_store() {
  struct Candidate {
    store::TenantImage image;
    bool foreign = false;  ///< found in a sibling shard's log
  };
  std::map<std::string, Candidate> best;
  for (const auto& [name, image] : store_->images()) {
    if (!valid_tenant_name(name)) {
      continue;
    }
    if (placement_.owner_of(name) != index_) {
      store_foreign_.push_back(name);  // settle_store() disowns it later
      continue;
    }
    best[name] = Candidate{image, false};
  }
  // A restart with a different shard count (or fresh placement overrides)
  // can leave our tenants in a sibling's log; scan the other shard
  // directories read-only and take the highest-epoch copy.  Ties go to
  // our own log so a tenant that never moved is not pointlessly re-based.
  std::error_code ec;
  if (fs::is_directory(config_.store_dir, ec)) {
    const std::string own_dir = store_shard_dir(config_.store_dir, index_);
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config_.store_dir, ec)) {
      if (ec || !entry.is_directory()) {
        continue;
      }
      const std::string dir = entry.path().string();
      if (dir == own_dir ||
          entry.path().filename().string().rfind("shard-", 0) != 0) {
        continue;
      }
      try {
        for (auto& [name, image] : store::TenantStore::read_images(dir)) {
          if (!valid_tenant_name(name) || placement_.owner_of(name) != index_) {
            continue;
          }
          const auto it = best.find(name);
          if (it == best.end() || image.epoch > it->second.image.epoch) {
            best[name] = Candidate{std::move(image), true};
          }
        }
      } catch (const Error&) {
        registry_.counter("net.restore_errors").add(1);
      }
    }
  }
  for (auto& [name, candidate] : best) {
    try {
      auto tenant = rebuild_tenant(name, candidate.image);
      Tenant& ref = *tenant;
      if (ref.streaming()) {
        ref.detach_deadline_ms = clock_ms_ + config_.detach_linger_ms;
      }
      registry_.counter("net.tenants_restored").add(1);
      tenant_total_.fetch_add(1, std::memory_order_relaxed);
      tenants_.emplace(name, std::move(tenant));
      placement_.set_resident(name, index_);
      Durable& durable = durable_[name];
      durable.last_active_ms = clock_ms_;
      for (const std::string& delta : candidate.image.deltas) {
        durable.bytes_since_base += delta.size();
      }
      if (candidate.foreign) {
        // Claim the tenant in our own log at a higher epoch; the sibling
        // keeps its stale copy until settle_store() tombstones it.
        if (ref.can_checkpoint()) {
          store_rebase(ref, candidate.image.epoch + 1);
          durable.bytes_since_base = 0;
        } else {
          store_try([&] {
            store_->append_genesis(name, ref.patterns(),
                                   candidate.image.epoch + 1);
            for (const std::string& delta : candidate.image.deltas) {
              store_->append_delta(name, delta);
            }
          });
        }
      }
    } catch (const Error&) {
      registry_.counter("net.restore_errors").add(1);
    }
  }
  store_->drop_images();
  if (store_->dirty()) {
    store_try([&] { store_->sync(); });
  }
  fold_store_stats();
}

void Shard::settle_store() {
  if (store_ == nullptr || store_foreign_.empty()) {
    return;
  }
  for (const std::string& name : store_foreign_) {
    store_try([&] { store_->append_tombstone(name); });
  }
  store_foreign_.clear();
  if (store_->dirty()) {
    store_try([&] { store_->sync(); });
  }
  fold_store_stats();
}

void Shard::run() {
  std::vector<Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = poller_.wait(events, loop_timeout_ms());
    clock_ms_ = now_ms();
    drain_mailbox();
    for (std::size_t i = 0; i < n; ++i) {
      const Poller::Event& ev = events[i];
      switch (ev.tag) {
        case kTagWake: {
          char sink[64];
          while (::read(wake_read_, sink, sizeof(sink)) > 0) {
          }
          break;
        }
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
    if (store_ != nullptr && clock_ms_ >= next_flush_ms_) {
      if (flush_store()) {
        flush_backoff_ms_ = 0;
        store_degraded_ = false;
        next_flush_ms_ = clock_ms_ + flush_interval_ms();
        if (replicator_ != nullptr) {
          replicator_->pump();
        }
      } else {
        // An I/O fault (ENOSPC, EIO) must not kill serving: stay up on
        // the in-RAM state and retry the flush with capped backoff.
        store_degraded_ = true;
        flush_backoff_ms_ =
            flush_backoff_ms_ == 0
                ? flush_interval_ms() * 2
                : std::min<std::uint64_t>(flush_backoff_ms_ * 2, 5000);
        next_flush_ms_ = clock_ms_ + flush_backoff_ms_;
      }
    }
    if (compactor_ != nullptr && !store_degraded_ &&
        !stop_.load(std::memory_order_acquire)) {
      // One bounded quantum between poll waits; anything it appended
      // rides the next group commit (store_work_pending_ keeps the poll
      // timeout inside the flush window).
      if (compactor_->tick()) {
        store_work_pending_ = true;
      }
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
  bool attached_streaming = false;
  bool pending_deadline = false;
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant->streaming()) {
      continue;
    }
    if (tenant->conn_id != 0) {
      attached_streaming = true;
    } else if (tenant->detach_deadline_ms != 0) {
      pending_deadline = true;
    }
  }
  int timeout = 500;
  if (attached_streaming) {
    timeout = 5;  // drive session ticks (resync grace/backoff are tick-based)
  } else if (pending_deadline ||
             (config_.idle_timeout_ms != 0 && !conns_.empty())) {
    timeout = 50;
  }
  if (store_ != nullptr && store_work_pending_) {
    // Unflushed input bytes bound the wait by the group-commit window.
    const std::uint64_t interval = flush_interval_ms();
    if (interval < static_cast<std::uint64_t>(timeout)) {
      timeout = static_cast<int>(interval);
    }
  }
  if (replicator_ != nullptr) {
    timeout = std::min(timeout, replicator_->timeout_bound_ms(clock_ms_));
  }
  if (compactor_ != nullptr && compactor_->backlog() != 0) {
    // Compaction progresses one tick per loop iteration; do not let an
    // idle shard sleep a whole poll interval between quanta.
    timeout = std::min(timeout, 5);
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
  Tenant* tenant = find_tenant(name);
  if (tenant == nullptr || !tenant->can_checkpoint()) {
    // Absent, or handshook with the trace announcement still in flight —
    // nothing coherent to freeze yet.  Callers retry a beat later.
    return false;
  }
  const MigrationHook& hook = config_.migration_hook;
  if (hook && hook(MigrationPhase::kFreeze, name)) {
    registry_.counter("net.tenant_migration_failures").add(1);
    return false;
  }
  // From here handshakes route to the destination; until the adoption
  // lands they are refused with a retryable "migrating" message.
  placement_.begin_migration(name, target);
  TenantHandoff handoff;
  handoff.name = name;
  handoff.from_shard = index_;
  handoff.migrations = tenant->migrations + 1;
  if (pool_ != nullptr) {
    // Spilled spans live in this shard's log and the destination appends
    // to its own: fault everything back so the frozen image is
    // self-contained (the tombstone below reclaims the log copies).
    tenant->monitor().fault_all_spans();
  }
  std::ostringstream blob;
  try {
    // Freeze: the checkpoint is cut at a frame boundary, so the blob is
    // the same OCEPNTC2 image a restart would read.
    tenant->checkpoint(blob);
  } catch (const Error&) {
    placement_.cancel_migration(name, index_);
    registry_.counter("net.tenant_migration_failures").add(1);
    return false;
  }
  handoff.blob = std::move(blob).str();
  if (hook && hook(MigrationPhase::kTransfer, name)) {
    placement_.cancel_migration(name, index_);
    registry_.counter("net.tenant_migration_failures").add(1);
    return false;
  }
  handoff.bytes_in = tenant->bytes_in();
  handoff.detach_deadline_ms = tenant->detach_deadline_ms;
  handoff.store_epoch = store_ != nullptr ? store_->epoch_of(name) : 0;
  if (tenant->conn_id != 0) {
    const auto it = conns_.find(tenant->conn_id);
    if (it != conns_.end() && it->second->state() == ConnState::kStreaming) {
      // The socket travels with the tenant: capture unparsed inbound
      // bytes and unflushed outbound frames, deregister, release the fd.
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
    tenant->conn_id = 0;
  }
  update_meters(*tenant);
  meters_.erase(name);  // a return hop re-seeds at the restored values
  tenants_.erase(name);
  drop_span_sink(name);
  if (compactor_ != nullptr) {
    // The tombstone below retires this tenant's spans; an in-flight
    // rewrite plan may have just gone dead, so re-plan from scratch.
    compactor_->quiesce();
  }
  if (store_ != nullptr) {
    // The handoff blob already covers any captured-but-unflushed input,
    // so the pending bytes can go; the tombstone keeps this log from
    // resurrecting its stale copy on the next restart.
    durable_.erase(name);
    store_try([&] { store_->append_tombstone(name); });
    store_work_pending_ = true;
  }
  registry_.counter("net.tenant_migrations").add(1);
  peers_[target]->adopt_tenant(std::move(handoff));
  return true;
}

void Shard::adopt_tenant_now(TenantHandoff handoff) {
  const MigrationHook& hook = config_.migration_hook;
  if (!handoff.bounced && hook && hook(MigrationPhase::kAdopt, handoff.name)) {
    registry_.counter("net.tenant_migration_failures").add(1);
    bounce_or_drop(std::move(handoff));
    return;
  }
  auto tenant = std::make_unique<Tenant>(handoff.name, config_.tenant,
                                         config_.observe_hook);
  if (SpanSink* sink = span_sink_for(handoff.name)) {
    // The handoff blob is self-contained (the source faulted every span
    // back before freezing), but the adopted tenant spills here from now
    // on.
    tenant->set_span_sink(sink);
  }
  try {
    std::istringstream in(handoff.blob);
    tenant->restore(in);
  } catch (const Error&) {
    registry_.counter("net.tenant_migration_failures").add(1);
    bounce_or_drop(std::move(handoff));
    return;
  }
  tenant->restore_bytes_in(handoff.bytes_in);
  tenant->migrations = handoff.migrations;
  const bool stopping = stop_.load(std::memory_order_acquire);
  if (stopping) {
    // This reactor already committed and will not run again; store the
    // image directly so the shutdown still captures it, and keep the
    // tenant for post-run inspection.  The fd just closes (the producer
    // reconnects to the restarted daemon).
    store_handoff(handoff);
  }
  Tenant& ref = *tenants_.insert_or_assign(handoff.name, std::move(tenant))
                     .first->second;
  seed_meters(ref);
  if (store_ != nullptr) {
    spilled_.erase(handoff.name);
    if (!stopping) {
      // Adopt at source epoch + 1 so a cross-log recovery scan prefers
      // this copy over the source's (now tombstoned) records.
      store_try([&] {
        store_->append_base(handoff.name, handoff.blob,
                            handoff.store_epoch + 1);
      });
      store_work_pending_ = true;
    }
    Durable& durable = durable_[handoff.name];
    durable.pending.clear();
    durable.bytes_since_base = 0;
    durable.last_active_ms = clock_ms_;
  }
  placement_.finish_migration(handoff.name, index_);
  registry_
      .counter(handoff.bounced ? "net.tenant_bounced" : "net.tenant_adoptions")
      .add(1);
  if (stopping || !handoff.fd.valid()) {
    ref.conn_id = 0;
    if (!stopping && ref.streaming()) {
      ref.detach_deadline_ms = handoff.detach_deadline_ms != 0
                                   ? handoff.detach_deadline_ms
                                   : clock_ms_ + config_.detach_linger_ms;
    }
    return;
  }
  // Re-hang the live socket under a fresh Conn already in streaming
  // state: inbound bytes the source had buffered are seeded ahead of the
  // socket, unflushed outbound frames are re-queued, and EPOLL_CTL_ADD
  // reports any readiness that raced the hop as a fresh edge — no byte
  // is lost in either direction.
  const std::uint64_t id = next_conn_id_++;
  auto conn =
      std::make_unique<Conn>(std::move(handoff.fd), id, ConnKind::kIngest);
  conn->last_active_ms = clock_ms_;
  conn->tenant = handoff.name;
  conn->set_state(ConnState::kStreaming);
  conn->seed_inbound(handoff.leftover);
  if (!conn->queue_write(std::move(handoff.outbound))) {
    // Unreachable (the bytes came from a queue under the same bound),
    // but keep the overflow contract: drop the connection, never the
    // tenant.
    registry_.counter("net.write_overflow").add(1);
    ref.conn_id = 0;
    ref.detach_deadline_ms = clock_ms_ + config_.detach_linger_ms;
    return;
  }
  poller_.add(conn->fd(), EPOLLIN, id);
  Conn& cref = *conns_.emplace(id, std::move(conn)).first->second;
  registry_.gauge("net.connections").add(1);
  ref.conn_id = id;
  ref.detach_deadline_ms = 0;
  on_stream_bytes(cref);  // seeded bytes, pending resyncs, FIN checks
  settle(id);
}

void Shard::bounce_or_drop(TenantHandoff handoff) {
  if (!handoff.bounced && handoff.from_shard < peers_.size() &&
      peers_[handoff.from_shard] != this) {
    handoff.bounced = true;
    peers_[handoff.from_shard]->adopt_tenant(std::move(handoff));
    return;
  }
  // No way home (the bounce itself failed): preserve the image in the
  // store and surface the loss — a tenant must never vanish silently.
  // Routing settles here so a reconnecting producer is not refused
  // forever.
  store_handoff(handoff);
  placement_.finish_migration(handoff.name, index_);
  registry_.counter("net.tenant_migration_dropped").add(1);
}

void Shard::store_handoff(const TenantHandoff& handoff) {
  if (store_ == nullptr) {
    return;
  }
  store_try([&] {
    store_->append_base(handoff.name, handoff.blob, handoff.store_epoch + 1);
    store_->sync();
  });
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
  Tenant* tenant = find_tenant(request.tenant);
  if (tenant == nullptr && store_ != nullptr && !spilled_.empty()) {
    const auto it = spilled_.find(request.tenant);
    if (it != spilled_.end()) {
      if (it->second.state == TenantState::kShed) {
        // No need to reload the image just to refuse the producer.
        reject(conn, "tenant was shed: " + it->second.shed_reason);
        return;
      }
      if (clock_ms_ < it->second.retry_at_ms) {
        // A recent reload already failed; refuse without touching the
        // (possibly faulting) disk until the backoff window passes.
        reject(conn, "tenant reload backing off; retry");
        return;
      }
      tenant = unspill(request.tenant);
      if (tenant == nullptr) {
        Spilled& spilled = it->second;
        spilled.retry_backoff_ms =
            spilled.retry_backoff_ms == 0
                ? flush_interval_ms() * 2
                : std::min<std::uint64_t>(spilled.retry_backoff_ms * 2, 5000);
        spilled.retry_at_ms = clock_ms_ + spilled.retry_backoff_ms;
        unspill_errors_ += 1;
        registry_.counter("store.unspill_errors").add(1);
        reject(conn, "tenant reload from store failed; retry");
        return;
      }
    }
  }
  HandshakeAck ack;
  if (tenant == nullptr) {
    // max_tenants is daemon-wide: claim a slot in the shared count first,
    // back out on overflow.  Tenants are never erased, so the count only
    // grows and the claim cannot race a release.
    const std::size_t prev =
        tenant_total_.fetch_add(1, std::memory_order_relaxed);
    if (prev >= config_.max_tenants) {
      tenant_total_.fetch_sub(1, std::memory_order_relaxed);
      reject(conn, "tenant limit reached");
      return;
    }
    auto fresh = std::make_unique<Tenant>(request.tenant, config_.tenant,
                                          config_.observe_hook);
    if (SpanSink* sink = span_sink_for(request.tenant)) {
      fresh->set_span_sink(sink);
    }
    try {
      fresh->register_patterns(request.patterns);
    } catch (const Error& e) {
      tenant_total_.fetch_sub(1, std::memory_order_relaxed);
      reject(conn, std::string("bad pattern: ") + e.what());
      return;
    }
    tenant = fresh.get();
    tenants_.emplace(request.tenant, std::move(fresh));
    placement_.set_resident(request.tenant, index_);
    if (store_ != nullptr) {
      // Genesis first: the pattern list is the only coherent state a
      // brand-new tenant has, and recovery needs it to re-register.
      store_try([&] {
        store_->append_genesis(request.tenant, request.patterns);
      });
      durable_[request.tenant].last_active_ms = clock_ms_;
      store_work_pending_ = true;
    }
    ack.status = AckStatus::kFresh;
    ack.resume_position = 0;
  } else {
    if (tenant->conn_id != 0) {
      reject(conn, "tenant already attached");
      return;
    }
    if (tenant->state() == TenantState::kShed) {
      reject(conn, "tenant was shed: " + tenant->shed_reason());
      return;
    }
    if (tenant->patterns() != request.patterns) {
      reject(conn, "pattern set does not match the registered tenant");
      return;
    }
    ack.status = AckStatus::kResumed;
    ack.resume_position = tenant->session().next_position();
  }
  tenant->conn_id = conn.id();
  tenant->detach_deadline_ms = 0;
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
  if (!tenant->streaming()) {
    // The stream already ended (a reconnect after completion); answer with
    // the terminal FIN immediately.
    send_fin(conn, *tenant);
    return;
  }
  on_stream_bytes(conn);  // bytes pipelined behind the handshake
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
  Tenant* tenant = find_tenant(conn.tenant);
  if (tenant == nullptr) {
    conn.set_state(ConnState::kClosed);
    return;
  }
  const std::string_view bytes = conn.pending();
  if (!bytes.empty()) {
    // Capture the raw wire bytes for the durability log before they are
    // consumed; the store replays them through feed() on recovery.
    const bool capture = store_ != nullptr && tenant->streaming();
    tenant->feed(bytes);
    if (capture) {
      Durable& durable = durable_[conn.tenant];
      durable.pending.append(bytes);
      durable.last_active_ms = clock_ms_;
      store_work_pending_ = true;
    }
    conn.consume(bytes.size());
  }
  pump_tenant(conn, *tenant);
}

void Shard::pump_tenant(Conn& conn, Tenant& tenant) {
  for (const ResyncRequest& request : tenant.take_resyncs()) {
    registry_.counter("net.resyncs_forwarded").add(1);
    queue_or_close(conn, encode_resync_frame(request));
    if (conn.state() == ConnState::kClosed) {
      return;
    }
  }
  if (tenant.streaming()) {
    const bool over_bytes = config_.max_tenant_bytes != 0 &&
                            tenant.bytes_in() > config_.max_tenant_bytes;
    const bool over_corrupt =
        config_.max_corrupt_frames != 0 &&
        tenant.session().stats().frames_corrupt > config_.max_corrupt_frames;
    if (over_bytes || over_corrupt) {
      tenant.shed(over_bytes ? "byte budget exceeded"
                             : "corrupt-frame budget exceeded");
      registry_.counter("net.tenants_shed").add(1);
      update_meters(tenant);
      send_fin(conn, tenant);
      return;
    }
  }
  update_meters(tenant);
  if (tenant.maybe_finish()) {
    send_fin(conn, tenant);
  }
}

void Shard::send_fin(Conn& conn, Tenant& tenant) {
  const bool degraded = tenant.state() == TenantState::kDegraded ||
                        tenant.state() == TenantState::kShed;
  queue_or_close(conn, encode_fin_frame(degraded, tenant.shed_reason()));
  if (conn.state() != ConnState::kClosed) {
    conn.set_state(ConnState::kClosing);
  }
}

Shard::Meters& Shard::meters_for(Tenant& tenant) {
  Meters& m = meters_[tenant.name()];
  if (m.bytes == nullptr) {
    const std::string label = tenant_label(tenant.name());
    m.bytes = &registry_.counter("net.tenant.bytes", label,
                                 "stream bytes received");
    m.frames = &registry_.counter("net.tenant.frames", label,
                                  "session frames accepted");
    m.events = &registry_.counter("net.tenant.events", label,
                                  "events released to the monitor");
    m.corrupt = &registry_.counter("net.tenant.corrupt_frames", label,
                                   "frames rejected by CRC/length checks");
  }
  return m;
}

void Shard::seed_meters(Tenant& tenant) {
  // An adopted tenant's cumulative counters cover history the shards it
  // lived on already metered; start the delta snapshot at the current
  // values — without adding — so the merged totals never double count.
  meters_.erase(tenant.name());
  Meters& m = meters_for(tenant);
  m.last_bytes = tenant.bytes_in();
  m.last_frames = tenant.session().frames_ok();
  m.last_events = tenant.events_released();
  m.last_corrupt = tenant.session().stats().frames_corrupt;
}

void Shard::update_meters(Tenant& tenant) {
  Meters& m = meters_for(tenant);
  const std::uint64_t bytes = tenant.bytes_in();
  const std::uint64_t frames = tenant.session().frames_ok();
  const std::uint64_t events = tenant.events_released();
  const std::uint64_t corrupt = tenant.session().stats().frames_corrupt;
  m.bytes->add(bytes - m.last_bytes);
  m.frames->add(frames - m.last_frames);
  m.events->add(events - m.last_events);
  m.corrupt->add(corrupt - m.last_corrupt);
  m.last_bytes = bytes;
  m.last_frames = frames;
  m.last_events = events;
  m.last_corrupt = corrupt;
}

std::string Shard::healthz_rows() {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, tenant] : tenants_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << name << "\",\"shard\":" << index_
        << ",\"state\":\"" << to_string(tenant->state()) << "\",\"attached\":"
        << (tenant->conn_id != 0 ? "true" : "false")
        << ",\"degraded\":" << (tenant->degraded() ? "true" : "false")
        << ",\"bytes_in\":" << tenant->bytes_in()
        << ",\"events\":" << tenant->events_released()
        << ",\"migrations\":" << tenant->migrations << ",\"health\":";
    tenant->monitor().health().to_json(out);
    out << "}";
  }
  for (const auto& [name, spilled] : spilled_) {
    if (!first) {
      out << ",";
    }
    first = false;
    // Evicted to the store: metadata only; the image is on disk and a
    // reconnect reloads it.
    out << "{\"name\":\"" << name << "\",\"shard\":" << index_
        << ",\"state\":\"spilled\",\"attached\":false,\"degraded\":"
        << (spilled.state == TenantState::kDegraded ||
                    spilled.state == TenantState::kShed
                ? "true"
                : "false")
        << ",\"bytes_in\":" << spilled.bytes_in
        << ",\"events\":" << spilled.events
        << ",\"migrations\":" << spilled.migrations << ",\"health\":null}";
  }
  return out.str();
}

std::string Shard::healthz_shard_json() {
  std::string out = "{\"shard\":" + std::to_string(index_) + ",\"store\":";
  if (store_ != nullptr) {
    out += "{\"degraded\":";
    out += store_degraded_ ? "true" : "false";
    out += ",\"append_errors\":" + std::to_string(append_errors_);
    out += ",\"unspill_errors\":" + std::to_string(unspill_errors_);
    out += ",\"spans\":" + std::to_string(store_->total_spans());
    out += ",\"pool\":";
    if (pool_ != nullptr) {
      const store::BufferPoolStats& bp = pool_->stats();
      out += "{\"hits\":" + std::to_string(bp.hits);
      out += ",\"misses\":" + std::to_string(bp.misses);
      out += ",\"evictions\":" + std::to_string(bp.evictions);
      out += ",\"load_errors\":" + std::to_string(bp.load_errors);
      out += ",\"frames\":" + std::to_string(bp.frames);
      out += ",\"bytes\":" + std::to_string(bp.bytes);
      out += ",\"pinned\":" + std::to_string(bp.pinned);
      out += ",\"compaction_backlog\":" +
             std::to_string(compactor_ != nullptr ? compactor_->backlog() : 0);
      out += "}";
    } else {
      out += "null";
    }
    out += "}";
  } else {
    out += "null";
  }
  out += ",\"replication\":";
  out += replicator_ != nullptr ? replicator_->healthz_json() : "null";
  out += "}";
  return out;
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
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  if (conn.state() == ConnState::kClosed) {
    close_conn(id);
    return;
  }
  switch (conn.flush_writes()) {
    case IoStatus::kOk:
      want_epollout(conn, false);
      if (conn.state() == ConnState::kClosing) {
        close_conn(id);
      }
      break;
    case IoStatus::kWouldBlock:
      want_epollout(conn, true);
      break;
    case IoStatus::kEof:
    case IoStatus::kError:
      detach_tenant(conn);
      close_conn(id);
      break;
  }
}

void Shard::want_epollout(Conn& conn, bool want) {
  if (want == conn.epollout_armed) {
    return;
  }
  poller_.mod(conn.fd(), want ? (EPOLLIN | EPOLLOUT) : EPOLLIN, conn.id());
  conn.epollout_armed = want;
}

void Shard::detach_tenant(Conn& conn) {
  if (conn.tenant.empty()) {
    return;
  }
  Tenant* tenant = find_tenant(conn.tenant);
  conn.tenant.clear();
  if (tenant == nullptr || tenant->conn_id != conn.id()) {
    return;
  }
  tenant->conn_id = 0;
  if (tenant->streaming()) {
    // A partial frame tail left in the session buffer is fine: the next
    // attach's bytes re-synchronize via the frame markers, and position
    // dedup makes any replay idempotent.
    tenant->detach_deadline_ms = clock_ms_ + config_.detach_linger_ms;
    registry_.counter("net.detaches").add(1);
  }
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
  clock_ms_ = now_ms();
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
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant->streaming()) {
      continue;
    }
    if (tenant->conn_id != 0) {
      // Attached: advance session time so resync grace and backoff fire
      // even when no bytes arrive, then forward whatever the tick raised.
      tenant->tick();
      const auto it = conns_.find(tenant->conn_id);
      if (it != conns_.end()) {
        pump_tenant(*it->second, *tenant);
        settle(tenant->conn_id);
      }
    } else if (tenant->detach_deadline_ms != 0 &&
               clock_ms_ >= tenant->detach_deadline_ms) {
      tenant->detach_deadline_ms = 0;
      tenant->finalize();
      update_meters(*tenant);
      registry_.counter("net.linger_finalized").add(1);
    }
  }
}

std::size_t Shard::checkpoint() {
  if (store_ == nullptr) {
    return 0;
  }
  // Incremental: append + fsync whatever input arrived since the last
  // group commit — O(dirty state), never a full image per tenant.
  std::size_t dirty = 0;
  for (const auto& [name, durable] : durable_) {
    if (!durable.pending.empty()) {
      ++dirty;
    }
  }
  flush_store();
  registry_.counter("net.checkpoints_written").add(dirty);
  return dirty;
}

std::uint64_t Shard::flush_interval_ms() const noexcept {
  return std::max<std::uint64_t>(1, config_.flush_interval_ms);
}

bool Shard::store_try(const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const Error&) {
    registry_.counter("store.errors").add(1);
    return false;
  }
}

void Shard::fold_store_stats() {
  if (store_ == nullptr) {
    return;
  }
  const auto fold = [this](const char* key, std::uint64_t current,
                           std::uint64_t& last) {
    if (current > last) {
      registry_.counter(key).add(current - last);
    }
    last = current;
  };
  const store::LogStats& log = store_->log_stats();
  fold("store.appends", log.appends, last_log_stats_.appends);
  fold("store.syncs", log.syncs, last_log_stats_.syncs);
  fold("store.rotations", log.rotations, last_log_stats_.rotations);
  fold("store.segments_collected", log.segments_deleted,
       last_log_stats_.segments_deleted);
  fold("store.torn_tail_bytes", log.torn_tail_bytes,
       last_log_stats_.torn_tail_bytes);
  fold("store.bytes_appended", log.total_bytes, last_log_stats_.total_bytes);
  const store::TenantStoreStats& ts = store_->stats();
  fold("store.genesis_records", ts.genesis_appends,
       last_store_stats_.genesis_appends);
  fold("store.base_records", ts.base_appends, last_store_stats_.base_appends);
  fold("store.delta_records", ts.delta_appends,
       last_store_stats_.delta_appends);
  fold("store.tombstone_records", ts.tombstone_appends,
       last_store_stats_.tombstone_appends);
  fold("store.delta_bytes", ts.delta_bytes, last_store_stats_.delta_bytes);
  fold("store.orphan_deltas", ts.orphan_deltas,
       last_store_stats_.orphan_deltas);
  fold("store.span_records", ts.span_appends, last_store_stats_.span_appends);
  fold("store.span_bytes", ts.span_bytes, last_store_stats_.span_bytes);
  fold("store.span_releases", ts.span_releases,
       last_store_stats_.span_releases);
  fold("store.spans_relocated", ts.spans_relocated,
       last_store_stats_.spans_relocated);
  fold("store.orphan_spans", ts.orphan_spans, last_store_stats_.orphan_spans);
  if (pool_ != nullptr) {
    const store::BufferPoolStats& bp = pool_->stats();
    fold("store.pool_hits", bp.hits, last_pool_stats_.hits);
    fold("store.pool_misses", bp.misses, last_pool_stats_.misses);
    fold("store.pool_evictions", bp.evictions, last_pool_stats_.evictions);
    fold("store.pool_load_errors", bp.load_errors,
         last_pool_stats_.load_errors);
  }
  if (compactor_ != nullptr) {
    const store::CompactorStats& cp = compactor_->stats();
    fold("store.compaction_ticks", cp.ticks, last_compactor_stats_.ticks);
    fold("store.compaction_spans_moved", cp.spans_moved,
         last_compactor_stats_.spans_moved);
    fold("store.compaction_segments_planned", cp.segments_planned,
         last_compactor_stats_.segments_planned);
    fold("store.compaction_rebases", cp.rebases_run,
         last_compactor_stats_.rebases_run);
    fold("store.compaction_rebase_failures", cp.rebase_failures,
         last_compactor_stats_.rebase_failures);
  }
}

void Shard::store_rebase(Tenant& tenant, std::uint64_t min_epoch) {
  if (store_ == nullptr || !tenant.can_checkpoint()) {
    return;
  }
  store_try([&] {
    std::ostringstream blob;
    tenant.checkpoint(blob);
    store_->append_base(tenant.name(), std::move(blob).str(), min_epoch);
  });
  store_work_pending_ = true;
}

bool Shard::flush_store() {
  if (store_ == nullptr) {
    return true;
  }
  bool all_ok = true;
  for (auto& [name, durable] : durable_) {
    if (!durable.pending.empty()) {
      // A disk fault may have swallowed the tenant's genesis record (it
      // is written outside the flush tick); deltas need a base to chain
      // from, so heal that first or the retry loop can never succeed.
      if (!store_->contains(name)) {
        Tenant* tenant = find_tenant(name);
        if (tenant == nullptr ||
            !store_try([&] {
              store_->append_genesis(name, tenant->patterns());
            })) {
          append_errors_ += 1;
          registry_.counter("store.append_errors").add(1);
          all_ok = false;
          continue;
        }
      }
      // Append before any re-base: a base written below supersedes the
      // delta chain, so the order delta-then-base is what makes the
      // re-base safe.
      std::string bytes = std::move(durable.pending);
      durable.pending.clear();
      if (store_try([&] { store_->append_delta(name, bytes); })) {
        durable.bytes_since_base += bytes.size();
      } else {
        // Put the bytes back for the retry tick.  Replay of a delta that
        // did make it to disk is idempotent (session positions dedup),
        // so re-appending after an ambiguous failure is safe.
        durable.pending = std::move(bytes);
        append_errors_ += 1;
        registry_.counter("store.append_errors").add(1);
        all_ok = false;
      }
    }
    if (config_.store_rebase_bytes != 0 &&
        durable.bytes_since_base >= config_.store_rebase_bytes) {
      if (compactor_ != nullptr) {
        // Off the flush tick: the compactor runs the (full-image, O(state))
        // rebase as its own quantum, so group-commit latency stays bounded
        // by the dirty bytes alone.  Re-scheduling until the rebase lands
        // is free — the queue dedups.
        compactor_->schedule_rebase(name);
      } else {
        Tenant* tenant = find_tenant(name);
        if (tenant != nullptr && tenant->can_checkpoint()) {
          store_rebase(*tenant, 0);
          durable.bytes_since_base = 0;
        }
      }
    }
  }
  if (store_->dirty()) {
    all_ok &= store_try([&] { store_->sync(); });  // the group commit
  }
  spill_pass();
  store_work_pending_ = !all_ok;
  fold_store_stats();
  return all_ok;
}

void Shard::spill_pass() {
  if (store_ == nullptr || config_.spill_bytes == 0) {
    return;
  }
  std::uint64_t resident = 0;
  for (const auto& [name, tenant] : tenants_) {
    resident += tenant->monitor().store().approx_bytes();
  }
  if (resident <= config_.spill_bytes) {
    return;
  }
  // Coldest-first over finished, detached, non-migrating tenants; an
  // attached or still-lingering tenant is never evicted from under its
  // producer.
  struct Candidate {
    std::uint64_t last_active_ms;
    std::string name;
  };
  std::vector<Candidate> candidates;
  for (const auto& [name, tenant] : tenants_) {
    if (tenant->conn_id != 0 || tenant->streaming() ||
        !tenant->can_checkpoint() || placement_.is_migrating(name)) {
      continue;
    }
    candidates.push_back(Candidate{durable_[name].last_active_ms, name});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.last_active_ms < b.last_active_ms;
            });
  for (const Candidate& candidate : candidates) {
    if (resident <= config_.spill_bytes) {
      break;
    }
    Tenant& tenant = *tenants_.at(candidate.name);
    const std::uint64_t bytes = tenant.monitor().store().approx_bytes();
    Durable& durable = durable_[candidate.name];
    bool ok = true;
    if (durable.bytes_since_base != 0 || !store_->has_base(candidate.name)) {
      ok = store_try([&] {
        std::ostringstream blob;
        tenant.checkpoint(blob);
        store_->append_base(candidate.name, std::move(blob).str());
      });
    }
    // The image must be durable before the RAM copy goes away.
    ok = ok && store_try([&] { store_->sync(); });
    if (!ok) {
      continue;
    }
    update_meters(tenant);
    spilled_[candidate.name] =
        Spilled{tenant.state(), tenant.shed_reason(), tenant.bytes_in(),
                tenant.migrations, tenant.events_released()};
    meters_.erase(candidate.name);
    durable_.erase(candidate.name);
    tenants_.erase(candidate.name);
    resident -= std::min(resident, bytes);
    registry_.counter("net.tenants_spilled").add(1);
  }
}

Tenant* Shard::unspill(const std::string& name) {
  const auto it = spilled_.find(name);
  if (it == spilled_.end() || store_ == nullptr) {
    return nullptr;
  }
  try {
    const store::TenantImage image = store_->read_tenant(name);
    auto tenant = rebuild_tenant(name, image);
    tenant->restore_bytes_in(it->second.bytes_in);
    tenant->migrations = it->second.migrations;
    Tenant& ref = *tenants_.insert_or_assign(name, std::move(tenant))
                       .first->second;
    seed_meters(ref);
    Durable& durable = durable_[name];
    durable.last_active_ms = clock_ms_;
    durable.bytes_since_base = 0;
    spilled_.erase(it);
    registry_.counter("net.tenants_unspilled").add(1);
    return &ref;
  } catch (const Error&) {
    registry_.counter("store.errors").add(1);
    return nullptr;  // spilled entry kept: a retry may succeed
  }
}

void Shard::graceful_shutdown() {
  poller_.del(ingest_->fd());
  ingest_->close();
  if (compactor_ != nullptr) {
    // Abandon any in-flight rewrite plan so the final flush below sees a
    // quiesced log; relocations already appended are already consistent.
    compactor_->quiesce();
  }
  if (replicator_ != nullptr) {
    // Final flush below still pumps nothing (we are past the loop), so
    // just push any queued frames and drop the link.
    replicator_->close_link();
  }
  // Tenants stay in whatever stream state they reached (a mid-stream
  // tenant is committed mid-stream — that is the restart-resume
  // contract).
  for (const auto& [name, tenant] : tenants_) {
    update_meters(*tenant);
  }
  checkpoint();
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
