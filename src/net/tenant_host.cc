#include "net/tenant_host.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "net/server.h"

namespace ocep::net {
namespace {

namespace fs = std::filesystem;

std::string tenant_label(const std::string& name) {
  return "tenant=\"" + name + "\"";
}

/// Each shard owns one log directory under the shared store root.
std::string store_shard_dir(const std::string& base, std::size_t index) {
  return base + "/shard-" + std::to_string(index);
}

/// Owes the producer the FIN of a tenant whose stream has ended.
void owe_fin(const Tenant& tenant, Outbox& out) {
  out.frames += encode_fin_frame(tenant.state() == TenantState::kDegraded ||
                                     tenant.state() == TenantState::kShed,
                                 tenant.shed_reason());
  out.fin = true;
}

}  // namespace

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

/// Routes one tenant's matcher spills and faults to the host's store +
/// pool.  Lives in the tenant's record, so it survives a spill and goes
/// only when the tenant leaves the shard.
class TenantHost::StoreSpanSink final : public SpanSink {
 public:
  StoreSpanSink(TenantHost& host, std::string tenant)
      : host_(host), tenant_(std::move(tenant)) {}

  bool spill(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq,
             std::span<const HistoryEntry> entries) override {
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
    const bool ok = host_.store_try(
        [&] { host_.store_->append_span(tenant_, payload); });
    if (ok) {
      host_.store_work_pending_ = true;
    }
    return ok;
  }

  bool fault(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq, std::vector<HistoryEntry>& out) override {
    const store::SpanKey key{pattern, leaf, trace, seq};
    const store::SpanPayload* span =
        host_.pool_->acquire(tenant_, key, *host_.store_);
    if (span == nullptr) {
      return false;
    }
    out.clear();
    out.reserve(span->entries.size());
    for (const auto& [index, comm_before] : span->entries) {
      out.push_back(HistoryEntry{static_cast<EventIndex>(index),
                                 static_cast<std::uint32_t>(comm_before)});
    }
    host_.pool_->unpin(tenant_, key);
    return true;
  }

  void release(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
               std::uint64_t seq) override {
    const store::SpanKey key{pattern, leaf, trace, seq};
    host_.pool_->invalidate(tenant_, key);
    host_.store_->release_span(tenant_, key);
  }

 private:
  TenantHost& host_;
  std::string tenant_;
};

TenantHost::TenantHost(const ServerConfig& config, std::size_t index,
                       PlacementMap& placement,
                       std::atomic<std::size_t>& tenant_total,
                       obs::Registry& registry, std::uint64_t now_ms)
    : config_(config),
      index_(index),
      placement_(placement),
      tenant_total_(tenant_total),
      registry_(registry) {
  if (!config_.store_dir.empty()) {
    // Corruption that is not a torn tail fails construction loudly — an
    // operator must intervene rather than serve from a silently partial
    // store (ocep_inspect --store diagnoses the damage).
    open_store();
    restore_from_store(now_ms);
  }
  next_flush_ms_ = now_ms + flush_interval_ms();
}

TenantHost::~TenantHost() = default;

const store::SegmentLog* TenantHost::log() const noexcept {
  return store_ != nullptr ? &store_->log() : nullptr;
}

Tenant* TenantHost::find_tenant(const std::string& name) {
  const auto it = records_.find(name);
  return it == records_.end() ? nullptr : it->second.tenant.get();
}

void TenantHost::open_store() {
  store::LogConfig log_config;
  log_config.dir = store_shard_dir(config_.store_dir, index_);
  log_config.segment_bytes = config_.store_segment_bytes;
  log_config.crash_hook = config_.store_crash_hook;
  store_ = std::make_unique<store::TenantStore>(std::move(log_config));
  if (config_.pool_bytes != 0) {
    pool_ = std::make_unique<store::BufferPool>(config_.pool_bytes);
    compactor_ =
        std::make_unique<store::Compactor>(*store_, store::CompactorConfig{});
  }
}

std::unique_ptr<Tenant> TenantHost::new_tenant(Record& rec,
                                               const std::string& name) {
  auto tenant =
      std::make_unique<Tenant>(name, config_.tenant, config_.observe_hook);
  if (pool_ != nullptr) {
    if (rec.sink == nullptr) {
      rec.sink = std::make_unique<StoreSpanSink>(*this, name);
    }
    tenant->set_span_sink(rec.sink.get());
  }
  return tenant;
}

void TenantHost::reconcile_spans(Tenant& tenant) {
  if (pool_ == nullptr) {
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

std::unique_ptr<Tenant> TenantHost::rebuild_tenant(
    Record& rec, const std::string& name, const store::TenantImage& image) {
  // The sink is attached before restore: the base image's spilled-span
  // metadata must be able to fault, and the delta replay's re-evictions
  // re-spill through the same sink (idempotently — the seqs repeat).
  auto tenant = new_tenant(rec, name);
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

void TenantHost::restore_from_store(std::uint64_t now_ms) {
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
    Record rec;
    try {
      rec.tenant = rebuild_tenant(rec, name, candidate.image);
    } catch (const Error&) {
      registry_.counter("net.restore_errors").add(1);
      continue;
    }
    Tenant& tenant = *rec.tenant;
    if (tenant.streaming()) {
      tenant.detach_deadline_ms = now_ms + config_.detach_linger_ms;
    }
    rec.durable.last_active_ms = now_ms;
    for (const std::string& delta : candidate.image.deltas) {
      rec.durable.bytes_since_base += delta.size();
    }
    registry_.counter("net.tenants_restored").add(1);
    tenant_total_.fetch_add(1, std::memory_order_relaxed);
    placement_.set_resident(name, index_);
    if (candidate.foreign) {
      // Claim the tenant in our own log at a higher epoch; the sibling
      // keeps its stale copy until settle_store() tombstones it.
      const std::uint64_t epoch = candidate.image.epoch + 1;
      if (tenant.can_checkpoint()) {
        if (write_base(name, &tenant, {}, epoch, false)) {
          rec.durable.bytes_since_base = 0;
        }
      } else {
        store_try([&] {
          store_->append_genesis(name, tenant.patterns(), epoch);
          for (const std::string& delta : candidate.image.deltas) {
            store_->append_delta(name, delta);
          }
        });
      }
    }
    records_.emplace(name, std::move(rec));
  }
  store_->drop_images();
  if (store_->dirty()) {
    store_try([&] { store_->sync(); });
  }
  fold_store_stats();
}

void TenantHost::settle_store() {
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

HandshakeAck TenantHost::attach(const HandshakeRequest& request,
                                std::uint64_t conn_id, std::uint64_t now_ms) {
  const std::string& name = request.tenant;
  HandshakeAck ack;
  ack.status = AckStatus::kRejected;
  auto it = records_.find(name);
  if (it != records_.end() && it->second.tenant == nullptr) {
    Spilled& spilled = it->second.spilled;
    if (spilled.state == TenantState::kShed) {
      // No need to reload the image just to refuse the producer.
      ack.message = "tenant was shed: " + spilled.shed_reason;
      return ack;
    }
    if (now_ms < spilled.retry_at_ms) {
      // A recent reload already failed; refuse without touching the
      // (possibly faulting) disk until the backoff window passes.
      ack.message = "tenant reload backing off; retry";
      return ack;
    }
    if (!unspill(it->second, name, now_ms)) {
      spilled.retry_backoff_ms =
          spilled.retry_backoff_ms == 0
              ? flush_interval_ms() * 2
              : std::min<std::uint64_t>(spilled.retry_backoff_ms * 2, 5000);
      spilled.retry_at_ms = now_ms + spilled.retry_backoff_ms;
      registry_.counter("store.unspill_errors").add(1);
      ack.message = "tenant reload from store failed; retry";
      return ack;
    }
  }
  Tenant* tenant = nullptr;
  if (it == records_.end()) {
    // max_tenants is daemon-wide: claim a slot in the shared count first,
    // back out on overflow.  Tenants are never erased, so the count only
    // grows and the claim cannot race a release.
    const std::size_t prev =
        tenant_total_.fetch_add(1, std::memory_order_relaxed);
    if (prev >= config_.max_tenants) {
      tenant_total_.fetch_sub(1, std::memory_order_relaxed);
      ack.message = "tenant limit reached";
      return ack;
    }
    Record rec;
    rec.tenant = new_tenant(rec, name);
    try {
      rec.tenant->register_patterns(request.patterns);
    } catch (const Error& e) {
      tenant_total_.fetch_sub(1, std::memory_order_relaxed);
      ack.message = std::string("bad pattern: ") + e.what();
      return ack;
    }
    rec.durable.last_active_ms = now_ms;
    tenant = rec.tenant.get();
    records_.emplace(name, std::move(rec));
    placement_.set_resident(name, index_);
    if (store_ != nullptr) {
      // Genesis first: the pattern list is the only coherent state a
      // brand-new tenant has, and recovery needs it to re-register.
      store_try([&] { store_->append_genesis(name, request.patterns); });
      store_work_pending_ = true;
    }
    ack.status = AckStatus::kFresh;
    ack.resume_position = 0;
  } else {
    tenant = it->second.tenant.get();
    if (tenant->conn_id != 0) {
      ack.message = "tenant already attached";
      return ack;
    }
    if (tenant->state() == TenantState::kShed) {
      ack.message = "tenant was shed: " + tenant->shed_reason();
      return ack;
    }
    if (tenant->patterns() != request.patterns) {
      ack.message = "pattern set does not match the registered tenant";
      return ack;
    }
    ack.status = AckStatus::kResumed;
    ack.resume_position = tenant->session().next_position();
  }
  tenant->conn_id = conn_id;
  tenant->detach_deadline_ms = 0;
  return ack;
}

bool TenantHost::feed(const std::string& name, std::string_view bytes,
                      std::uint64_t now_ms, Outbox& out) {
  const auto it = records_.find(name);
  if (it == records_.end() || it->second.tenant == nullptr) {
    return false;
  }
  Record& rec = it->second;
  Tenant& tenant = *rec.tenant;
  if (!tenant.streaming()) {
    // The stream already ended (a reconnect after completion): answer
    // with the terminal FIN.
    owe_fin(tenant, out);
    return true;
  }
  if (!bytes.empty()) {
    tenant.feed(bytes);
    if (store_ != nullptr) {
      // Capture the raw wire bytes for the durability log; the store
      // replays them through feed() on recovery.
      rec.durable.pending.append(bytes);
      rec.durable.last_active_ms = now_ms;
      store_work_pending_ = true;
    }
  }
  pump(rec, out);
  return true;
}

void TenantHost::pump(Record& rec, Outbox& out) {
  Tenant& tenant = *rec.tenant;
  for (const ResyncRequest& request : tenant.take_resyncs()) {
    registry_.counter("net.resyncs_forwarded").add(1);
    out.frames += encode_resync_frame(request);
  }
  bool shed = false;
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
      shed = true;
    }
  }
  update_meters(rec);
  if (shed || tenant.maybe_finish()) {
    owe_fin(tenant, out);
  }
}

void TenantHost::detach(const std::string& name, std::uint64_t conn_id,
                        std::uint64_t now_ms) {
  Tenant* tenant = find_tenant(name);
  if (tenant == nullptr || tenant->conn_id != conn_id) {
    return;
  }
  tenant->conn_id = 0;
  if (tenant->streaming()) {
    // A partial frame tail left in the session buffer is fine: the next
    // attach's bytes re-synchronize via the frame markers, and position
    // dedup makes any replay idempotent.
    tenant->detach_deadline_ms = now_ms + config_.detach_linger_ms;
    registry_.counter("net.detaches").add(1);
  }
}

void TenantHost::tick(
    std::uint64_t now_ms,
    const std::function<void(std::uint64_t, Outbox&)>& deliver) {
  for (auto& [name, rec] : records_) {
    Tenant* tenant = rec.tenant.get();
    if (tenant == nullptr || !tenant->streaming()) {
      continue;
    }
    if (tenant->conn_id != 0) {
      // Attached: advance session time so resync grace and backoff fire
      // even when no bytes arrive, then forward whatever the tick raised.
      tenant->tick();
      Outbox out;
      pump(rec, out);
      deliver(tenant->conn_id, out);
    } else if (tenant->detach_deadline_ms != 0 &&
               now_ms >= tenant->detach_deadline_ms) {
      tenant->detach_deadline_ms = 0;
      tenant->finalize();
      update_meters(rec);
      registry_.counter("net.linger_finalized").add(1);
    }
  }
}

int TenantHost::wait_bound_ms() const {
  int bound = INT_MAX;
  for (const auto& [name, rec] : records_) {
    const Tenant* tenant = rec.tenant.get();
    if (tenant == nullptr || !tenant->streaming()) {
      continue;
    }
    if (tenant->conn_id != 0) {
      bound = 5;  // drive session ticks (resync grace/backoff are tick-based)
      break;
    }
    if (tenant->detach_deadline_ms != 0) {
      bound = 50;
    }
  }
  if (store_ != nullptr && store_work_pending_) {
    // Unflushed input bytes bound the wait by the group-commit window.
    bound = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(bound), flush_interval_ms()));
  }
  if (compactor_ != nullptr && compactor_->backlog() != 0) {
    // Compaction progresses one tick per loop iteration; do not let an
    // idle shard sleep a whole poll interval between quanta.
    bound = std::min(bound, 5);
  }
  return bound;
}

void TenantHost::Meters::seed(Tenant& tenant) {
  last_bytes = tenant.bytes_in();
  last_frames = tenant.session().frames_ok();
  last_events = tenant.events_released();
  last_corrupt = tenant.session().stats().frames_corrupt;
}

void TenantHost::update_meters(Record& rec) {
  Tenant& tenant = *rec.tenant;
  Meters& m = rec.meters;
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

std::string TenantHost::healthz_rows() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, rec] : records_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << name << "\",\"shard\":" << index_;
    if (const Tenant* tenant = rec.tenant.get()) {
      out << ",\"state\":\"" << to_string(tenant->state())
          << "\",\"attached\":" << (tenant->conn_id != 0 ? "true" : "false")
          << ",\"degraded\":" << (tenant->degraded() ? "true" : "false")
          << ",\"bytes_in\":" << tenant->bytes_in()
          << ",\"events\":" << tenant->events_released()
          << ",\"migrations\":" << tenant->migrations << ",\"health\":";
      rec.tenant->monitor().health().to_json(out);
      out << "}";
      continue;
    }
    // Evicted to the store: metadata only; the image is on disk and a
    // reconnect reloads it.
    const Spilled& spilled = rec.spilled;
    out << ",\"state\":\"spilled\",\"attached\":false,\"degraded\":"
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

std::string TenantHost::healthz_store_json() const {
  if (store_ == nullptr) {
    return "null";
  }
  std::string out = "{\"degraded\":";
  out += store_degraded_ ? "true" : "false";
  out += ",\"append_errors\":" +
         std::to_string(registry_.counter_value("store.append_errors"));
  out += ",\"unspill_errors\":" +
         std::to_string(registry_.counter_value("store.unspill_errors"));
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
    out += ",\"compaction_backlog\":" + std::to_string(compactor_->backlog());
    out += "}";
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

std::optional<std::size_t> TenantHost::checkpoint() {
  // Incremental: append + fsync whatever input arrived since the last
  // group commit — O(dirty state), never a full image per tenant.
  std::size_t dirty = 0;
  for (auto& [name, rec] : records_) {
    if (rec.tenant != nullptr) {
      update_meters(rec);
    }
    if (!rec.durable.pending.empty()) {
      ++dirty;
    }
  }
  if (store_ == nullptr) {
    return 0;
  }
  if (!commit()) {
    return std::nullopt;
  }
  registry_.counter("net.checkpoints_written").add(dirty);
  return dirty;
}

std::optional<TenantExport> TenantHost::export_tenant(const std::string& name,
                                                      std::size_t target) {
  const auto it = records_.find(name);
  if (it == records_.end() || it->second.tenant == nullptr ||
      !it->second.tenant->can_checkpoint()) {
    // Absent, spilled, or handshook with the trace announcement still in
    // flight — nothing coherent to freeze yet.  Callers retry a beat
    // later.
    return std::nullopt;
  }
  Record& rec = it->second;
  Tenant& tenant = *rec.tenant;
  const MigrationHook& hook = config_.migration_hook;
  if (hook && hook(MigrationPhase::kFreeze, name)) {
    registry_.counter("net.tenant_migration_failures").add(1);
    return std::nullopt;
  }
  // From here handshakes route to the destination; until the adoption
  // lands they are refused with a retryable "migrating" message.
  placement_.begin_migration(name, target);
  if (pool_ != nullptr) {
    // Spilled spans live in this shard's log and the destination appends
    // to its own: fault everything back so the frozen image is
    // self-contained (the tombstone below reclaims the log copies).
    tenant.monitor().fault_all_spans();
  }
  TenantExport image;
  std::ostringstream blob;
  try {
    // Freeze: the checkpoint is cut at a frame boundary, so the blob is
    // the same OCEPNTC2 image a restart would read.
    tenant.checkpoint(blob);
  } catch (const Error&) {
    placement_.finish_migration(name, index_);
    registry_.counter("net.tenant_migration_failures").add(1);
    return std::nullopt;
  }
  image.blob = std::move(blob).str();
  if (hook && hook(MigrationPhase::kTransfer, name)) {
    placement_.finish_migration(name, index_);
    registry_.counter("net.tenant_migration_failures").add(1);
    return std::nullopt;
  }
  image.name = name;
  image.migrations = tenant.migrations + 1;
  image.bytes_in = tenant.bytes_in();
  image.detach_deadline_ms = tenant.detach_deadline_ms;
  image.store_epoch = store_ != nullptr ? store_->epoch_of(name) : 0;
  image.conn_id = tenant.conn_id;
  update_meters(rec);
  // The blob already covers any captured-but-unflushed input, so the
  // pending bytes go with the record.
  records_.erase(it);
  if (pool_ != nullptr) {
    pool_->invalidate_tenant(name);
  }
  if (compactor_ != nullptr) {
    // The tombstone below retires this tenant's spans; an in-flight
    // rewrite plan may have just gone dead, so re-plan from scratch.
    compactor_->quiesce();
  }
  if (store_ != nullptr) {
    // The tombstone keeps this log from resurrecting its stale copy on
    // the next restart.
    store_try([&] { store_->append_tombstone(name); });
    store_work_pending_ = true;
  }
  registry_.counter("net.tenant_migrations").add(1);
  return image;
}

bool TenantHost::import_tenant(const TenantExport& image, bool bounced,
                               bool final, std::uint64_t conn_id,
                               std::uint64_t now_ms) {
  const MigrationHook& hook = config_.migration_hook;
  // The blob is self-contained (the source faulted every span back
  // before freezing), but the adopted tenant spills here from now on.
  Record rec;
  rec.tenant = new_tenant(rec, image.name);
  bool restored =
      bounced || !hook || !hook(MigrationPhase::kAdopt, image.name);
  try {
    if (restored) {
      std::istringstream in(image.blob);
      rec.tenant->restore(in);
    }
  } catch (const Error&) {
    restored = false;
  }
  if (!restored) {
    registry_.counter("net.tenant_migration_failures").add(1);
    if (bounced) {
      // No way home: preserve the image in the store and surface the loss
      // — a tenant must never vanish silently.  Routing settles here so a
      // reconnecting producer is not refused forever.
      if (store_ != nullptr) {
        write_base(image.name, nullptr, image.blob, image.store_epoch + 1,
                   true);
      }
      placement_.finish_migration(image.name, index_);
      registry_.counter("net.tenant_migration_dropped").add(1);
    }
    return false;
  }
  Tenant& tenant = *rec.tenant;
  tenant.restore_bytes_in(image.bytes_in);
  tenant.migrations = image.migrations;
  tenant.conn_id = conn_id;
  if (conn_id == 0 && !final && tenant.streaming()) {
    tenant.detach_deadline_ms = image.detach_deadline_ms != 0
                                    ? image.detach_deadline_ms
                                    : now_ms + config_.detach_linger_ms;
  }
  rec.durable.last_active_ms = now_ms;
  rec.meters.seed(tenant);
  if (store_ != nullptr) {
    // Adopt at source epoch + 1 so a cross-log recovery scan prefers this
    // copy over the source's (now tombstoned) records.
    write_base(image.name, nullptr, image.blob, image.store_epoch + 1, final);
  }
  records_.insert_or_assign(image.name, std::move(rec));
  placement_.finish_migration(image.name, index_);
  registry_.counter(bounced ? "net.tenant_bounced" : "net.tenant_adoptions")
      .add(1);
  return true;
}

std::uint64_t TenantHost::flush_interval_ms() const noexcept {
  return std::max<std::uint64_t>(1, config_.flush_interval_ms);
}

bool TenantHost::store_try(const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const Error&) {
    registry_.counter("store.errors").add(1);
    return false;
  }
}

void TenantHost::fold_store_stats() {
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
    const store::CompactorStats& cp = compactor_->stats();
    fold("store.compaction_ticks", cp.ticks, last_compactor_stats_.ticks);
    fold("store.compaction_spans_moved", cp.spans_moved,
         last_compactor_stats_.spans_moved);
    fold("store.compaction_segments_planned", cp.segments_planned,
         last_compactor_stats_.segments_planned);
  }
}

bool TenantHost::write_base(const std::string& name, Tenant* tenant,
                            std::string_view blob, std::uint64_t min_epoch,
                            bool sync) {
  const bool ok = store_try([&] {
    if (tenant != nullptr) {
      std::ostringstream image;
      tenant->checkpoint(image);
      store_->append_base(name, std::move(image).str(), min_epoch);
    } else {
      store_->append_base(name, blob, min_epoch);
    }
    if (sync) {
      store_->sync();
    }
  });
  if (!sync) {
    store_work_pending_ = true;
  }
  return ok;
}

bool TenantHost::tick_store(std::uint64_t now_ms) {
  if (store_ == nullptr) {
    return false;
  }
  bool committed = false;
  if (now_ms >= next_flush_ms_) {
    if (commit()) {
      flush_backoff_ms_ = 0;
      store_degraded_ = false;
      next_flush_ms_ = now_ms + flush_interval_ms();
      committed = true;
    } else {
      // An I/O fault (ENOSPC, EIO) must not kill serving: stay up on the
      // in-RAM state and retry the commit with capped backoff.
      store_degraded_ = true;
      flush_backoff_ms_ =
          flush_backoff_ms_ == 0
              ? flush_interval_ms() * 2
              : std::min<std::uint64_t>(flush_backoff_ms_ * 2, 5000);
      next_flush_ms_ = now_ms + flush_backoff_ms_;
    }
  }
  // One bounded compaction quantum between poll waits; anything it
  // appended rides the next group commit (store_work_pending_ keeps the
  // wait inside the flush window).
  if (compactor_ != nullptr && !store_degraded_ && compactor_->tick()) {
    store_work_pending_ = true;
  }
  return committed;
}

bool TenantHost::commit() {
  if (store_ == nullptr) {
    return true;
  }
  bool all_ok = true;
  for (auto& [name, rec] : records_) {
    Durable& durable = rec.durable;
    if (!durable.pending.empty()) {
      // A disk fault may have swallowed the tenant's genesis record (it
      // is written outside the commit); deltas need a base to chain
      // from, so heal that first or the retry loop can never succeed.
      if (!store_->contains(name) && !store_try([&] {
            store_->append_genesis(name, rec.tenant->patterns());
          })) {
        registry_.counter("store.append_errors").add(1);
        all_ok = false;
        continue;
      }
      // Append before any re-base: a base written below supersedes the
      // delta chain, so the order delta-then-base is what makes the
      // re-base safe.
      std::string bytes = std::move(durable.pending);
      durable.pending.clear();
      if (store_try([&] { store_->append_delta(name, bytes); })) {
        durable.bytes_since_base += bytes.size();
      } else {
        // Put the bytes back for the retry.  Replay of a delta that did
        // make it to disk is idempotent (session positions dedup), so
        // re-appending after an ambiguous failure is safe.
        durable.pending = std::move(bytes);
        registry_.counter("store.append_errors").add(1);
        all_ok = false;
      }
    }
    // Re-base inline: one full image supersedes the delta chain.
    if (config_.store_rebase_bytes != 0 &&
        durable.bytes_since_base >= config_.store_rebase_bytes &&
        rec.tenant != nullptr && rec.tenant->can_checkpoint() &&
        write_base(name, rec.tenant.get(), {}, 0, false)) {
      durable.bytes_since_base = 0;
    }
  }
  if (store_->dirty()) {
    all_ok &= store_try([&] { store_->sync(); });  // the group commit
  }
  const std::size_t spilled = spill_pass();
  store_work_pending_ = !all_ok;
  // Fold before counting the spills, so a reader that sees a spill also
  // sees the base record that made it safe.
  fold_store_stats();
  registry_.counter("net.tenants_spilled").add(spilled);
  return all_ok;
}

std::size_t TenantHost::spill_pass() {
  if (config_.spill_bytes == 0) {
    return 0;
  }
  std::uint64_t resident = 0;
  for (const auto& [name, rec] : records_) {
    if (rec.tenant != nullptr) {
      resident += rec.tenant->monitor().store().approx_bytes();
    }
  }
  if (resident <= config_.spill_bytes) {
    return 0;
  }
  // Coldest-first over finished, detached, non-migrating tenants; an
  // attached or still-lingering tenant is never evicted from under its
  // producer.
  std::vector<std::pair<std::uint64_t, Record*>> candidates;
  for (auto& [name, rec] : records_) {
    const Tenant* tenant = rec.tenant.get();
    if (tenant == nullptr || tenant->conn_id != 0 || tenant->streaming() ||
        !tenant->can_checkpoint() || placement_.is_migrating(name)) {
      continue;
    }
    candidates.emplace_back(rec.durable.last_active_ms, &rec);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t spilled = 0;
  for (const auto& [last_active_ms, rec] : candidates) {
    if (resident <= config_.spill_bytes) {
      break;
    }
    Tenant& tenant = *rec->tenant;
    const std::string& name = tenant.name();
    // The image must be durable before the RAM copy goes away.  Input
    // the log does not hold yet (a failed delta append) needs a fresh
    // base too, or the spill would drop it.
    const bool needs_base = !rec->durable.pending.empty() ||
                            rec->durable.bytes_since_base != 0 ||
                            !store_->has_base(name);
    const bool ok = needs_base ? write_base(name, &tenant, {}, 0, true)
                               : store_try([&] { store_->sync(); });
    if (!ok) {
      continue;
    }
    const std::uint64_t bytes = tenant.monitor().store().approx_bytes();
    update_meters(*rec);
    rec->spilled = Spilled{tenant.state(), tenant.shed_reason(),
                           tenant.bytes_in(), tenant.migrations,
                           tenant.events_released()};
    rec->durable = Durable{};
    rec->tenant.reset();
    resident -= std::min(resident, bytes);
    ++spilled;
  }
  return spilled;
}

bool TenantHost::unspill(Record& rec, const std::string& name,
                         std::uint64_t now_ms) {
  try {
    const store::TenantImage image = store_->read_tenant(name);
    rec.tenant = rebuild_tenant(rec, name, image);
  } catch (const Error&) {
    registry_.counter("store.errors").add(1);
    return false;  // still spilled: a retry may succeed
  }
  rec.tenant->restore_bytes_in(rec.spilled.bytes_in);
  rec.tenant->migrations = rec.spilled.migrations;
  rec.meters.seed(*rec.tenant);
  rec.durable.last_active_ms = now_ms;
  registry_.counter("net.tenants_unspilled").add(1);
  return true;
}

}  // namespace ocep::net
