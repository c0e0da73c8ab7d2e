#include "net/placement.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/error.h"
#include "common/frame.h"

namespace ocep::net {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kPlacementMagic = "OCEPPLC2";
constexpr std::string_view kPlacementFile = "placement.map";
constexpr std::uint64_t kMaxPlacementEntries = 1U << 20U;

}  // namespace

std::size_t shard_for(std::string_view tenant,
                      std::size_t shard_count) noexcept {
  if (shard_count <= 1) {
    return 0;
  }
  // FNV-1a, 64-bit: stable across builds and platforms, so restart with a
  // different shard count repartitions tenants deterministically.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : tenant) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash % shard_count);
}

PlacementMap::PlacementMap(std::size_t shard_count)
    : shard_count_(shard_count == 0 ? 1 : shard_count),
      load_hints_(shard_count_, 0.0) {}

std::size_t PlacementMap::owner_of(std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(tenant);
  if (it != entries_.end() && it->second.shard < shard_count_) {
    return it->second.shard;
  }
  return shard_for(tenant, shard_count_);
}

std::optional<std::size_t> PlacementMap::shard_of(
    std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(tenant);
  if (it == entries_.end() || it->second.shard >= shard_count_) {
    return std::nullopt;
  }
  return it->second.shard;
}

bool PlacementMap::is_migrating(std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(tenant);
  return it != entries_.end() && it->second.migrating;
}

std::size_t PlacementMap::route_or_assign(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(tenant);
  if (it != entries_.end() && it->second.shard < shard_count_) {
    return it->second.shard;
  }
  // Least-loaded: primary key is the rebalancer's load hint, resident
  // count breaks ties (so an idle daemon round-robins), index last for
  // determinism.
  std::vector<std::size_t> counts(shard_count_, 0);
  for (const auto& [name, entry] : entries_) {
    if (entry.shard < shard_count_) {
      ++counts[entry.shard];
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < shard_count_; ++i) {
    const bool lighter =
        load_hints_[i] < load_hints_[best] ||
        (load_hints_[i] == load_hints_[best] && counts[i] < counts[best]);
    if (lighter) {
      best = i;
    }
  }
  entries_[tenant] = Entry{best, /*overridden=*/true, /*migrating=*/false};
  ++changes_;
  return best;
}

void PlacementMap::set_resident(const std::string& tenant, std::size_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[tenant];
  if (entry.overridden && entry.shard != shard) {
    ++changes_;
  }
  entry.shard = shard;
  entry.migrating = false;
}

void PlacementMap::begin_migration(const std::string& tenant,
                                   std::size_t target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[tenant];
  entry.shard = target;
  entry.overridden = true;
  entry.migrating = true;
  ++changes_;
}

void PlacementMap::finish_migration(const std::string& tenant,
                                    std::size_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[tenant];
  entry.shard = shard;
  entry.overridden = true;
  entry.migrating = false;
  ++changes_;
}

void PlacementMap::set_load_hints(std::vector<double> hints) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (hints.size() == shard_count_) {
    load_hints_ = std::move(hints);
  }
}

std::vector<std::pair<std::string, std::size_t>> PlacementMap::residents()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    if (!entry.migrating && entry.shard < shard_count_) {
      out.emplace_back(name, entry.shard);
    }
  }
  return out;
}

std::size_t PlacementMap::override_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.overridden) {
      ++n;
    }
  }
  return n;
}

void PlacementMap::save(std::ostream& out) const {
  std::string body;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t overridden = 0;
    for (const auto& [name, entry] : entries_) {
      if (entry.overridden) {
        ++overridden;
      }
    }
    put_varint(body, overridden);
    for (const auto& [name, entry] : entries_) {
      if (!entry.overridden) {
        continue;
      }
      put_string(body, name);
      put_varint(body, entry.shard);
    }
  }
  write_frame(out, kPlacementMagic, body);
  if (!out) {
    throw SerializationError("placement map: write failed");
  }
}

void PlacementMap::load(std::istream& in) {
  const std::string body =
      read_frame(in, kPlacementMagic, kMaxFrameBody, "placement map");
  ByteReader reader(body);
  const std::uint64_t count = reader.varint();
  if (count > kMaxPlacementEntries) {
    throw SerializationError("placement map: implausible entry count");
  }
  std::vector<std::pair<std::string_view, std::uint64_t>> parsed;
  for (std::uint64_t i = 0; reader.ok() && i < count; ++i) {
    const std::string_view name = reader.str();
    parsed.emplace_back(name, reader.varint());
  }
  if (!reader.done()) {
    throw SerializationError("placement map: malformed body");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, shard] : parsed) {
    // A shard index from a bigger daemon falls back to the hash: the
    // tenant's checkpoint is then restored by its hash owner.
    if (shard < shard_count_) {
      entries_[std::string(name)] =
          Entry{static_cast<std::size_t>(shard), /*overridden=*/true,
                /*migrating=*/false};
    } else {
      ++changes_;  // the next save drops the entry from the file too
    }
  }
}

bool PlacementMap::save_file(const std::string& dir) {
  if (dir.empty()) {
    return true;
  }
  std::uint64_t changes = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (changes_ == saved_changes_) {
      return true;
    }
    changes = changes_;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path final_path = fs::path(dir) / kPlacementFile;
  try {
    // Serialize first, then replace the file durably (fsync + rename +
    // dir fsync) — a crash or power cut never leaves a torn map, and the
    // rename itself cannot be lost.  A change racing the serialization
    // keeps changes_ ahead, so the next save writes it.
    std::ostringstream out;
    save(out);
    if (!write_file_durable(final_path.string(), std::move(out).str())) {
      return false;
    }
  } catch (const Error&) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  saved_changes_ = changes;
  return true;
}

void PlacementMap::load_file(const std::string& dir) {
  if (dir.empty()) {
    return;
  }
  const fs::path path = fs::path(dir) / kPlacementFile;
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    return;
  }
  std::ifstream in(path, std::ios::binary);
  try {
    load(in);
  } catch (const Error&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++changes_;  // the next save replaces the damaged file
    throw;
  }
}

}  // namespace ocep::net
