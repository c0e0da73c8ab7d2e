// Type-keyed dispatch index: which of a Monitor's patterns an event is
// offered to, and which of its history classes (core/history_table.h) the
// event is appended to.
//
// A pattern is offered an event when one of its leaves can accept the
// event's type: a leaf with a literal type accepts that type only, a leaf
// with a wildcard or variable type accepts every type.  Classes are listed
// the same way.  The index is a superset filter; the class's own check
// (type, text and process) stays exact, so keying on the type alone keeps
// the index as small as the patterns' type literals, whatever texts the
// stream carries.  A pattern not offered an event would have appended it
// to no history and run no search, so skipping it changes nothing but the
// call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/string_pool.h"
#include "core/history_table.h"
#include "pattern/compiled.h"

namespace ocep {

class DispatchIndex {
 public:
  /// What one event type is offered to, each list ascending.
  struct Offer {
    std::span<const std::uint32_t> patterns;
    std::span<const std::uint32_t> classes;
  };

  /// Registers the next pattern; patterns are numbered in add order.
  void add(const pattern::CompiledPattern& pattern) {
    const auto id = static_cast<std::uint32_t>(patterns_++);
    bool any_type = false;
    for (const pattern::Leaf& leaf : pattern.leaves) {
      any_type = any_type || leaf.type.kind != pattern::Attr::Kind::kLiteral;
    }
    if (any_type) {
      any_type_.patterns.push_back(id);
      for (Bucket& bucket : buckets_) {
        bucket.entry.patterns.push_back(id);
      }
      return;
    }
    for (const pattern::Leaf& leaf : pattern.leaves) {
      Entry& entry = bucket_for(leaf.type.literal);
      if (entry.patterns.empty() || entry.patterns.back() != id) {
        entry.patterns.push_back(id);
      }
    }
  }

  /// Registers history class `id`; classes are added in ascending id
  /// order.
  void add_class(std::uint32_t id, const LeafClass& cls) {
    if (cls.type.any) {
      any_type_.classes.push_back(id);
      for (Bucket& bucket : buckets_) {
        bucket.entry.classes.push_back(id);
      }
      return;
    }
    bucket_for(cls.type.literal).classes.push_back(id);
  }

  /// What an event of type `type` is offered to.
  [[nodiscard]] Offer offered(Symbol type) const {
    const std::size_t at = lower(type);
    const Entry& entry = at < buckets_.size() && buckets_[at].type == type
                             ? buckets_[at].entry
                             : any_type_;
    return {entry.patterns, entry.classes};
  }

 private:
  struct Entry {
    std::vector<std::uint32_t> patterns;  ///< ascending
    std::vector<std::uint32_t> classes;   ///< ascending
  };
  struct Bucket {
    Symbol type = kEmptySymbol;
    Entry entry;
  };

  /// Position of the first bucket whose type is not below `type`.
  [[nodiscard]] std::size_t lower(Symbol type) const {
    std::size_t lo = 0;
    std::size_t hi = buckets_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (buckets_[mid].type < type) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// The entry of `type`, created (holding everything of any type so far)
  /// on first use.
  Entry& bucket_for(Symbol type) {
    const std::size_t at = lower(type);
    if (at == buckets_.size() || buckets_[at].type != type) {
      const auto pos = buckets_.begin() + static_cast<std::ptrdiff_t>(at);
      buckets_.insert(pos, Bucket{type, any_type_});
    }
    return buckets_[at].entry;
  }

  std::size_t patterns_ = 0;
  /// Sorted by type: one bucket per type literal of any pattern or class.
  std::vector<Bucket> buckets_;
  /// Patterns with a wildcard- or variable-type leaf, and classes of any
  /// type.
  Entry any_type_;
};

}  // namespace ocep
