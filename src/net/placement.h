// Tenant -> shard placement for the serving daemon.
//
// Default placement is the pure affinity hash (shard_for): stable across
// restarts, needs no state.  Live rebalancing breaks that purity — a
// migrated tenant, or a fresh tenant placed least-loaded, lives somewhere
// the hash does not predict — so this map records the exceptions.  Every
// shard consults it when routing a handshake, the rebalancer consults it
// for residency, and the overridden entries persist to
// `<store_dir>/placement.map` so a restart re-homes stored tenants to
// the shard that last owned them (entries whose shard index no longer
// exists after a --shards change fall back to the hash).  Without a
// store nothing persists.
//
// Thread model: one mutex.  Shard threads touch it once per handshake and
// once per migration edge; the admin thread reads residency per rebalance
// cycle.  It is never on the per-byte serving path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ocep::net {

/// Stable tenant -> shard affinity: FNV-1a (64-bit) of the name, mod the
/// shard count.  Deterministic across processes and restarts, so
/// store restore and producer reconnects agree on placement.
[[nodiscard]] std::size_t shard_for(std::string_view tenant,
                                    std::size_t shard_count) noexcept;

class PlacementMap {
 public:
  explicit PlacementMap(std::size_t shard_count);

  /// Where handshakes and store restores route `tenant`: its
  /// recorded placement when one exists, the affinity hash otherwise.
  [[nodiscard]] std::size_t owner_of(std::string_view tenant) const;

  /// Recorded placement, when any (residency or override); nullopt means
  /// the tenant has never been seen and the hash rules.
  [[nodiscard]] std::optional<std::size_t> shard_of(
      std::string_view tenant) const;

  /// True while a migration for `tenant` is in flight (frozen on the
  /// source, not yet adopted); handshakes are refused with a retryable
  /// message during the window.
  [[nodiscard]] bool is_migrating(std::string_view tenant) const;

  /// Routing with least-loaded placement for fresh tenants: a recorded
  /// tenant keeps its shard; an unknown one is assigned the shard with
  /// the lowest load hint (resident count as tie-break) and the choice is
  /// recorded as a persistent override.
  [[nodiscard]] std::size_t route_or_assign(const std::string& tenant);

  /// Records where a tenant actually lives (create / restore / adopt).
  /// Keeps any override bit already present.
  void set_resident(const std::string& tenant, std::size_t shard);

  /// Migration edges.  begin points routing at `target` and raises the
  /// in-flight flag (the choice persists as an override so a crash
  /// mid-migration still re-homes to one defined place); finish settles
  /// routing on the shard that ended up holding the tenant, the source
  /// when the migration was called off.
  void begin_migration(const std::string& tenant, std::size_t target);
  void finish_migration(const std::string& tenant, std::size_t shard);

  /// Rebalancer feedback: per-shard load scores consulted by
  /// route_or_assign.  Size must equal shard_count().
  void set_load_hints(std::vector<double> hints);

  /// Snapshot of settled residents (in-flight tenants excluded), for the
  /// rebalancer's per-shard load accounting.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> residents()
      const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] std::size_t override_count() const;

  /// Persistence: one "OCEPPLC2" frame (common/frame.h) whose body is
  /// varint count, count x (string name, varint shard).  Only
  /// overridden entries are written — hash-placed tenants re-home by
  /// hash, which is what keeps a plain (never rebalanced) daemon's
  /// reshard-restart behaviour byte-for-byte unchanged.
  void save(std::ostream& out) const;
  /// Throws SerializationError on corruption, leaving the map as it
  /// was.  Entries naming a shard index >= shard_count() are dropped:
  /// after a --shards shrink those tenants fall back to the affinity hash.
  void load(std::istream& in);
  /// tmp + rename into `<dir>/placement.map`, skipped while the
  /// overrides are unchanged since the last load or save; false (counted
  /// by the caller) on I/O failure.  No-op when dir is empty.
  bool save_file(const std::string& dir);
  /// Missing file or empty dir is a no-op; corrupt files throw (and are
  /// replaced by the next save).
  void load_file(const std::string& dir);

 private:
  struct Entry {
    std::size_t shard = 0;
    bool overridden = false;  ///< survives restarts via placement.map
    bool migrating = false;
  };

  mutable std::mutex mutex_;
  std::size_t shard_count_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<double> load_hints_;
  /// Counts changes to what save() writes; save_file() writes only when
  /// it moved past saved_changes_.
  std::uint64_t changes_ = 0;
  std::uint64_t saved_changes_ = 0;
};

}  // namespace ocep::net
