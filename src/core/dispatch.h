// Type-keyed dispatch index: which of a Monitor's patterns an event is
// offered to.
//
// A pattern is offered an event when one of its leaves can accept the
// event's type: a leaf with a literal type accepts that type only, a leaf
// with a wildcard or variable type accepts every type.  The index is a
// superset filter; the matcher's own leaf check (type, text and process)
// stays exact, so keying on the type alone keeps the index as small as
// the patterns' type literals, whatever texts the stream carries.  A
// pattern not offered an event would have appended it to no history and
// run no search, so skipping it changes nothing but the call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/string_pool.h"
#include "pattern/compiled.h"

namespace ocep {

class DispatchIndex {
 public:
  /// Registers the next pattern; patterns are numbered in add order.
  void add(const pattern::CompiledPattern& pattern) {
    const auto id = static_cast<std::uint32_t>(patterns_++);
    bool any_type = false;
    for (const pattern::Leaf& leaf : pattern.leaves) {
      any_type = any_type || leaf.type.kind != pattern::Attr::Kind::kLiteral;
    }
    if (any_type) {
      any_type_.push_back(id);
      for (Bucket& bucket : buckets_) {
        bucket.patterns.push_back(id);
      }
      return;
    }
    for (const pattern::Leaf& leaf : pattern.leaves) {
      Bucket& bucket = bucket_for(leaf.type.literal);
      if (bucket.patterns.empty() || bucket.patterns.back() != id) {
        bucket.patterns.push_back(id);
      }
    }
  }

  /// The patterns offered an event of type `type`, in ascending order.
  [[nodiscard]] std::span<const std::uint32_t> offered(Symbol type) const {
    const std::size_t at = lower(type);
    if (at < buckets_.size() && buckets_[at].type == type) {
      return buckets_[at].patterns;
    }
    return any_type_;
  }

 private:
  struct Bucket {
    Symbol type = kEmptySymbol;
    std::vector<std::uint32_t> patterns;  ///< ascending
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

  /// The bucket of `type`, created (holding every any-type pattern so far)
  /// on first use.
  Bucket& bucket_for(Symbol type) {
    const std::size_t at = lower(type);
    if (at == buckets_.size() || buckets_[at].type != type) {
      const auto pos = buckets_.begin() + static_cast<std::ptrdiff_t>(at);
      buckets_.insert(pos, Bucket{type, any_type_});
    }
    return buckets_[at];
  }

  std::size_t patterns_ = 0;
  /// Sorted by type: one bucket per type literal of any pattern.
  std::vector<Bucket> buckets_;
  /// Patterns with a wildcard- or variable-type leaf (ascending).
  std::vector<std::uint32_t> any_type_;
};

}  // namespace ocep
