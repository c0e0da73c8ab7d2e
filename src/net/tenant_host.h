// Tenant lifecycle and durability for one shard, without sockets.
//
// A TenantHost keeps one record per tenant — the Tenant (or, while it is
// spilled to the store, the metadata /healthz and a reconnect need), its
// registry meters, its durability bookkeeping and its span sink — and
// owns the shard's TenantStore, span BufferPool and Compactor.  It makes
// every decision about a tenant: restore, handshake admission, feeding,
// shedding and the FIN, linger, the group commit and spill, unspill, and
// the OCEPNTC2 image a live migration carries.
//
// It never sees a file descriptor, a connection or a clock: the reactor
// (net/shard.h) passes opaque connection ids and its own now_ms, and
// turns the answers (HandshakeAck, Outbox) into frames.  So a test can
// drive it with bytes from a string and explicit times.  Every call comes
// from the owning reactor thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/placement.h"
#include "net/protocol.h"
#include "net/tenant.h"
#include "obs/metrics.h"
#include "store/buffer_pool.h"
#include "store/compactor.h"
#include "store/tenant_store.h"

namespace ocep::net {

struct ServerConfig;

/// Tenant names are keys of store records and Prometheus label values;
/// a conservative charset keeps both trivially safe to write and parse.
[[nodiscard]] bool valid_tenant_name(std::string_view name);

/// Reverse-channel frames the reactor owes a tenant's producer; after a
/// FIN (`fin`) the connection closes.
struct Outbox {
  std::string frames;
  bool fin = false;
};

/// A tenant frozen for a live shard migration: the OCEPNTC2 image (the
/// same bytes a store base record holds) plus the bookkeeping the image
/// deliberately omits.
struct TenantExport {
  std::string name;
  std::string blob;            ///< Tenant::checkpoint() bytes
  std::uint64_t bytes_in = 0;  ///< cumulative, for governance budgets
  std::uint64_t detach_deadline_ms = 0;  ///< linger expiry carried over
  std::uint64_t migrations = 0;          ///< hops including this one
  /// Source shard's store epoch for this tenant; the destination appends
  /// its base at store_epoch + 1 so cross-log recovery picks it over the
  /// source's (now tombstoned) copy.  0 when the store is off.
  std::uint64_t store_epoch = 0;
  std::uint64_t conn_id = 0;  ///< attached connection at the source, or 0
};

class TenantHost {
 public:
  /// With config.store_dir set, opens `<store_dir>/shard-<index>` and
  /// restores the tenants `placement` gives this shard (throwing on
  /// corruption that is not a torn tail).  `tenant_total` is the
  /// daemon-wide count max_tenants is enforced against.
  TenantHost(const ServerConfig& config, std::size_t index,
             PlacementMap& placement, std::atomic<std::size_t>& tenant_total,
             obs::Registry& registry, std::uint64_t now_ms);
  ~TenantHost();

  TenantHost(const TenantHost&) = delete;
  TenantHost& operator=(const TenantHost&) = delete;

  /// Disowns store records for tenants this shard holds but does not own
  /// (stale copies after a reshard).  Call once after every shard has
  /// restored — tombstoning during restore could erase a sibling's only
  /// copy before that sibling scanned it.
  void settle_store();

  /// Handshake admission for a request routed here: kFresh, kResumed
  /// (re-attached or unspilled), or kRejected with the reason in message.
  /// An admitted tenant is attached to `conn_id`.
  [[nodiscard]] HandshakeAck attach(const HandshakeRequest& request,
                                    std::uint64_t conn_id,
                                    std::uint64_t now_ms);

  /// Feeds stream bytes (kept for the next group commit), applies the
  /// byte and corrupt-frame budgets, and fills `out`.  A tenant whose
  /// stream ended takes no bytes and answers with its FIN.  False when
  /// `name` is not resident.
  bool feed(const std::string& name, std::string_view bytes,
            std::uint64_t now_ms, Outbox& out);

  /// Connection `conn_id` is gone; a streaming tenant starts lingering.
  void detach(const std::string& name, std::uint64_t conn_id,
              std::uint64_t now_ms);

  /// Session time, once per loop: attached streaming tenants tick and
  /// hand their frames to `deliver`; expired lingers are finalized.
  void tick(std::uint64_t now_ms,
            const std::function<void(std::uint64_t conn_id, Outbox& out)>&
                deliver);

  /// Longest the reactor may wait before tick()/tick_store() have work.
  [[nodiscard]] int wait_bound_ms() const;

  /// Once per loop: the group commit when due (capped backoff after a
  /// failure), then one compaction quantum.  True when a commit ran and
  /// succeeded.
  bool tick_store(std::uint64_t now_ms);

  /// POST /checkpoint and the SIGTERM drain: folds every tenant's meters
  /// and runs the group commit, now.  The tenants that had uncommitted
  /// input (added to net.checkpoints_written), or nullopt when the commit
  /// failed.  0 without a store.
  std::optional<std::size_t> checkpoint();

  /// Migration source: unless a hook faults, freezes `name` at a frame
  /// boundary, points routing at `target`, and forgets it here (its
  /// store copy is tombstoned).  nullopt leaves the tenant untouched.
  [[nodiscard]] std::optional<TenantExport> export_tenant(
      const std::string& name, std::size_t target);

  /// Migration destination: rebuilds `image` attached to `conn_id` (0 =
  /// detached) and writes its base, synced at once when `final` (the
  /// reactor stopped, so no group commit follows).  False when the adopt
  /// hook faults or the image does not restore: the caller bounces it
  /// home, and when the bounce (`bounced`) fails too the image is kept
  /// here as a synced base, routing settled here and the loss counted.
  bool import_tenant(const TenantExport& image, bool bounced, bool final,
                     std::uint64_t conn_id, std::uint64_t now_ms);

  /// The resident tenant; nullptr when absent or spilled.
  [[nodiscard]] Tenant* find_tenant(const std::string& name);
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return records_.size();
  }
  /// This shard's tenants as comma-joined /healthz JSON objects.
  [[nodiscard]] std::string healthz_rows() const;
  /// The /healthz store block ("null" without a store).
  [[nodiscard]] std::string healthz_store_json() const;
  /// The segment log for the replication tailer; nullptr without a store.
  [[nodiscard]] const store::SegmentLog* log() const noexcept;

 private:
  class StoreSpanSink;

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
    /// Starts the snapshot at `tenant`'s current values without adding:
    /// an adopted or reloaded tenant's history was already counted.
    void seed(Tenant& tenant);
  };
  /// Per-tenant durability bookkeeping while the store is on.
  struct Durable {
    std::string pending;  ///< input bytes not yet appended to the log
    std::uint64_t bytes_since_base = 0;  ///< delta chain length, for re-base
    std::uint64_t last_active_ms = 0;    ///< spill-pass coldness key
  };
  /// What /healthz and a reconnect gate need of a tenant evicted to the
  /// store, without reloading the image.
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
  /// One tenant.  `tenant` is null while it is spilled; `spilled` is
  /// meaningful only then.
  struct Record {
    std::unique_ptr<StoreSpanSink> sink;  ///< outlives `tenant`
    std::unique_ptr<Tenant> tenant;
    Meters meters;
    Durable durable;
    Spilled spilled;
  };

  void open_store();
  void restore_from_store(std::uint64_t now_ms);
  /// A fresh Tenant wired to `rec`'s span sink (made on first use).
  [[nodiscard]] std::unique_ptr<Tenant> new_tenant(Record& rec,
                                                   const std::string& name);
  /// Rebuilds a tenant from a stored image: restore the base (or
  /// re-register genesis patterns) and replay the input deltas.
  [[nodiscard]] std::unique_ptr<Tenant> rebuild_tenant(
      Record& rec, const std::string& name, const store::TenantImage& image);
  /// Kills span records the rebuilt tenant no longer references (crash
  /// orphans: spilled, then released in RAM, then crashed before sync).
  void reconcile_spans(Tenant& tenant);
  /// Reloads a spilled tenant; false (still spilled) on failure.
  bool unspill(Record& rec, const std::string& name, std::uint64_t now_ms);
  /// Resyncs, the budget check and the FIN decision after a feed or tick.
  void pump(Record& rec, Outbox& out);
  void update_meters(Record& rec);
  /// The one base-image writer: `name`'s image — `blob`, or a fresh
  /// checkpoint of `tenant` when non-null — at >= min_epoch, fsynced at
  /// once when `sync`.  False (counted) on an I/O fault.
  bool write_base(const std::string& name, Tenant* tenant,
                  std::string_view blob, std::uint64_t min_epoch, bool sync);
  /// Group commit: append pending input deltas, re-base heavy tenants,
  /// fsync, then spill.  False when any store mutation failed — the failed
  /// tenants' bytes stay queued for the next attempt.
  bool commit();
  /// Evicts the coldest finished, detached tenants while resident state
  /// exceeds spill_bytes; returns how many.
  std::size_t spill_pass();
  /// Runs a store mutation, absorbing StoreError into store.errors (an
  /// I/O fault must not take the reactor down).
  bool store_try(const std::function<void()>& fn);
  /// Folds store stats deltas into the registry counters.
  void fold_store_stats();
  [[nodiscard]] std::uint64_t flush_interval_ms() const noexcept;

  const ServerConfig& config_;
  std::size_t index_;
  PlacementMap& placement_;
  std::atomic<std::size_t>& tenant_total_;
  obs::Registry& registry_;

  std::map<std::string, Record> records_;

  /// Append-only tenant store (null when config.store_dir is empty).
  std::unique_ptr<store::TenantStore> store_;
  /// Span tier (null unless the store is on and pool_bytes > 0): the pool
  /// caches decoded span records shard-wide; the compactor relocates live
  /// spans, the only records it moves, out of mostly-dead segments.
  std::unique_ptr<store::BufferPool> pool_;
  std::unique_ptr<store::Compactor> compactor_;
  /// Tenants found in this shard's log at restore but owned elsewhere;
  /// tombstoned by settle_store() after every shard has scanned.
  std::vector<std::string> store_foreign_;
  std::uint64_t next_flush_ms_ = 0;
  bool store_work_pending_ = false;
  /// Disk-fault degradation: a failed timed commit doubles the retry
  /// delay (capped) instead of killing the daemon; /healthz flags it.
  std::uint64_t flush_backoff_ms_ = 0;
  bool store_degraded_ = false;
  /// Stats snapshots already folded into the registry (fold by delta).
  store::LogStats last_log_stats_;
  store::TenantStoreStats last_store_stats_;
  store::BufferPoolStats last_pool_stats_;
  store::CompactorStats last_compactor_stats_;
};

}  // namespace ocep::net
