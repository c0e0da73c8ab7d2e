// Tenant durability on top of the segment log: the record semantics that
// turn an append-only byte log into incremental checkpoints.
//
// Per tenant the log holds (in append order, across restarts):
//
//   genesis  — the pattern list of a tenant created before its trace
//              announcement arrived (nothing else is coherent to save yet)
//   base     — a full OCEPNTC2 image (Tenant::checkpoint() bytes); written
//              once at re-base/spill/adopt, it supersedes everything the
//              tenant appended before it
//   delta    — the raw session wire bytes fed since the previous append;
//              recovery replays them through Tenant::feed(), and the
//              session's position dedup makes replay idempotent
//   tombstone — the tenant left this log (migrated to another shard);
//              scanning stops resurrecting it here
//
// Every record carries an epoch.  A base/genesis at epoch E supersedes
// records below E; deltas apply only at their exact epoch.  Migration
// bumps the epoch on the destination log, so when recovery scans every
// shard's log after a reshard, the copy with the highest epoch is the
// live one and stale images lose deterministically.
//
// The in-RAM index keeps only RecordRefs + epochs after drop_images();
// payload bytes are re-read from the log (CRC re-checked) when a spilled
// tenant is reloaded.  Superseded records are marked dead, and fully-dead
// sealed segments are collected by the log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/segment_log.h"

namespace ocep::store {

/// Everything recovery needs to rebuild one tenant.
struct TenantImage {
  std::uint64_t epoch = 0;
  bool has_base = false;
  std::vector<std::string> patterns;  ///< meaningful when !has_base
  std::string base;                   ///< OCEPNTC2 bytes when has_base
  std::vector<std::string> deltas;    ///< wire bytes to replay, in order
};

struct TenantStoreStats {
  std::uint64_t genesis_appends = 0;
  std::uint64_t base_appends = 0;
  std::uint64_t delta_appends = 0;
  std::uint64_t tombstone_appends = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t orphan_deltas = 0;  ///< stale-epoch deltas seen at scan
  std::uint64_t span_appends = 0;
  std::uint64_t span_bytes = 0;
  std::uint64_t span_releases = 0;
  std::uint64_t spans_relocated = 0;  ///< compaction rewrites
  std::uint64_t orphan_spans = 0;     ///< unreferenced spans seen at scan
};

/// Fingerprint of one spilled leaf-history span.  Unlike deltas, spans
/// carry no ordering constraint: the monitor's checkpoint names the exact
/// seqs it may fault back, so a span record is valid wherever it sits in
/// the log (which is what makes span relocation compaction-safe).  A
/// history shared by several leaves is named by the first leaf that
/// declared its class (core/history_table.h).
struct SpanKey {
  std::uint32_t pattern = 0;  ///< pattern index within the tenant
  std::uint32_t leaf = 0;     ///< leaf (event-class) index in the pattern
  std::uint64_t trace = 0;    ///< trace the entries belong to
  std::uint64_t seq = 0;      ///< monitor-wide monotonic spill sequence
  friend auto operator<=>(const SpanKey&, const SpanKey&) = default;
};

/// Decoded span record payload: the key plus the evicted history entries
/// as (event index, comm_before) pairs with indices strictly ascending.
struct SpanPayload {
  SpanKey key;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
};

class TenantStore {
 public:
  /// Opens `config.dir`, replaying the log into per-tenant images.
  /// Throws StoreError on corruption that is not a torn tail.
  explicit TenantStore(LogConfig config);

  TenantStore(const TenantStore&) = delete;
  TenantStore& operator=(const TenantStore&) = delete;

  /// Images recovered at open; consume, then call drop_images() to free
  /// the payload bytes (the ref/epoch index stays).
  [[nodiscard]] const std::map<std::string, TenantImage>& images() const {
    return images_;
  }
  void drop_images();

  /// Re-reads one tenant's image from disk (for un-spilling); throws
  /// StoreError when absent or unreadable.
  [[nodiscard]] TenantImage read_tenant(const std::string& name) const;

  /// 0 when the tenant has no live records here.
  [[nodiscard]] std::uint64_t epoch_of(const std::string& name) const;
  [[nodiscard]] bool has_base(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.contains(name);
  }

  /// `min_epoch` lets a re-homing shard outrank a foreign log's copy.
  void append_genesis(const std::string& name,
                      const std::vector<std::string>& patterns,
                      std::uint64_t min_epoch = 0);
  void append_delta(const std::string& name, std::string_view bytes);
  /// `min_epoch` lets an adopting shard outrank the source's copy.
  void append_base(const std::string& name, std::string_view blob,
                   std::uint64_t min_epoch = 0);
  void append_tombstone(const std::string& name);

  // --- spilled leaf-history spans ------------------------------------
  // Spans ride the tenant's current epoch but survive base supersede (a
  // re-base blob still references them by key); a tombstone or genesis
  // kills them with the incarnation they belong to.  A re-append with the
  // same key supersedes the earlier copy (last wins), which is what makes
  // crash-replay re-spills idempotent.

  /// Appends one spilled span; throws when the tenant has no live entry.
  RecordRef append_span(const std::string& name, const SpanPayload& span);
  [[nodiscard]] bool has_span(const std::string& name,
                              const SpanKey& key) const;
  /// Re-reads + decodes one span from disk (CRC re-checked); throws
  /// StoreError when absent or malformed.
  [[nodiscard]] SpanPayload read_span(const std::string& name,
                                      const SpanKey& key) const;
  /// Marks one span dead (faulted back for good, or abandoned); no-op
  /// when absent.
  void release_span(const std::string& name, const SpanKey& key);
  /// Restart reconcile: kills every stored span of `name` whose key is
  /// not in `live` (a crash can lose the deltas that would have re-spilled
  /// them, leaving records nothing will ever fault).
  void retain_spans(const std::string& name,
                    const std::vector<SpanKey>& live);
  [[nodiscard]] std::uint64_t span_count(const std::string& name) const;
  [[nodiscard]] std::uint64_t total_spans() const noexcept;

  /// Compaction support: up to `max` spans whose record currently lives
  /// in `segment`, oldest-offset first.
  [[nodiscard]] std::vector<std::pair<std::string, SpanKey>>
  spans_in_segment(std::uint32_t segment, std::size_t max) const;
  /// Rewrites one span at the log tail and kills the old copy (append
  /// first, then mark dead — a crash in between leaves two copies and
  /// last-wins scan dedup collapses them).
  void relocate_span(const std::string& name, const SpanKey& key);

  /// Group commit: flushes appended records to disk.
  void sync() { log_->sync(); }
  [[nodiscard]] bool dirty() const noexcept { return log_->dirty(); }

  [[nodiscard]] const LogStats& log_stats() const noexcept {
    return log_->stats();
  }
  /// The underlying log, for the replication tailer (same owner thread).
  [[nodiscard]] const SegmentLog& log() const noexcept { return *log_; }
  [[nodiscard]] const TenantStoreStats& stats() const noexcept {
    return stats_;
  }

  /// One-shot read-only scan of another shard's log directory (used when
  /// a restart repartitions tenants); empty map when the directory does
  /// not exist or holds an empty store.
  [[nodiscard]] static std::map<std::string, TenantImage> read_images(
      const std::string& dir);

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    bool has_base = false;
    bool has_genesis = false;
    RecordRef base_ref;     ///< base when has_base, else genesis record
    std::vector<RecordRef> delta_refs;
  };

  void on_scan(const Record& record, const RecordRef& ref);
  void kill_ref(const RecordRef& ref);
  void kill_entry_records(Entry& entry);
  void kill_tenant_spans(const std::string& name);
  [[nodiscard]] std::uint64_t next_epoch(const std::string& name) const;
  void retire_tombstone(const std::string& name, std::uint64_t epoch);

  std::unique_ptr<SegmentLog> log_;
  std::map<std::string, Entry> entries_;
  /// A tombstone stays live (its record guards earlier stale copies)
  /// until a genesis/base at a higher epoch supersedes it.
  struct Tombstone {
    RecordRef ref;
    std::uint64_t epoch = 0;
  };
  std::map<std::string, Tombstone> tombstones_;
  std::map<std::string, std::map<SpanKey, RecordRef>> spans_;
  std::map<std::string, TenantImage> images_;
  bool images_dropped_ = false;
  /// mark_dead calls deferred during the constructor scan (the log is
  /// not ready for compaction while it is still being replayed).
  std::vector<RecordRef> deferred_dead_;
  bool scanning_ = true;
  TenantStoreStats stats_;
};

/// Pattern-list payload codec for genesis records (varint count, then
/// length-prefixed strings) — shared with the inspector.
[[nodiscard]] std::string encode_patterns(
    const std::vector<std::string>& patterns);
[[nodiscard]] bool decode_patterns(std::string_view payload,
                                   std::vector<std::string>& out);

/// Span payload codec (pattern | leaf | trace | seq | count, then the
/// entries with delta-encoded indices) — shared with the inspector.
[[nodiscard]] std::string encode_span_payload(const SpanPayload& span);
[[nodiscard]] bool decode_span_payload(std::string_view payload,
                                       SpanPayload& out);
/// Decodes only the leading fingerprint (what the scan index needs).
[[nodiscard]] bool decode_span_key(std::string_view payload, SpanKey& out);

}  // namespace ocep::store
