// Representative subset of matches (paper §IV-B).
//
// A subset of all matches is representative when, for every pattern leaf
// and every trace, it contains at least one occurrence of that leaf's
// event on that trace if any complete match binds the leaf there.  Such a
// subset has cardinality at most k * n (k = pattern size, n = traces),
// which is what bounds OCEP's storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "model/ids.h"

namespace ocep {

/// A complete match: one event per pattern leaf.
struct Match {
  std::vector<EventId> bindings;
};

class RepresentativeSubset {
 public:
  void reset(std::size_t leaves, std::size_t traces) {
    leaves_ = leaves;
    traces_ = traces;
    slot_.assign(leaves * traces, kUnset);
    covered_traces_.assign(leaves, 0);
    matches_.clear();
  }

  [[nodiscard]] bool covered(std::uint32_t leaf, TraceId trace) const {
    return slot_[index(leaf, trace)] != kUnset;
  }

  /// Traces on which `leaf` is covered.
  [[nodiscard]] std::size_t covered_traces(std::uint32_t leaf) const {
    OCEP_ASSERT(leaf < leaves_);
    return covered_traces_[leaf];
  }

  /// Adds the match if it covers any (leaf, trace) pair not yet covered.
  /// Returns true when the match was retained.
  bool add(const Match& match) {
    OCEP_ASSERT(match.bindings.size() == leaves_);
    bool fresh = false;
    for (std::uint32_t leaf = 0; leaf < leaves_; ++leaf) {
      if (!covered(leaf, match.bindings[leaf].trace)) {
        fresh = true;
        break;
      }
    }
    if (!fresh) {
      return false;
    }
    const auto match_id = static_cast<std::uint32_t>(matches_.size());
    matches_.push_back(match);
    for (std::uint32_t leaf = 0; leaf < leaves_; ++leaf) {
      std::uint32_t& entry = slot_[index(leaf, match.bindings[leaf].trace)];
      if (entry == kUnset) {
        entry = match_id;
        ++covered_traces_[leaf];
      }
    }
    return true;
  }

  /// Retained matches; at most leaves * traces of them.
  [[nodiscard]] const std::vector<Match>& matches() const noexcept {
    return matches_;
  }

  /// Raw coverage table for checkpointing: (leaf, trace) -> match id, with
  /// kUnset (0xffffffff) marking uncovered pairs.
  [[nodiscard]] std::span<const std::uint32_t> slots() const noexcept {
    return slot_;
  }

  /// Checkpoint support: replaces the coverage table and retained matches
  /// after reset() sized them.  Slot values must be kUnset or valid match
  /// ids — the caller validates before handing over.
  void restore(std::vector<std::uint32_t> slots, std::vector<Match> matches) {
    OCEP_ASSERT(slots.size() == leaves_ * traces_);
    slot_ = std::move(slots);
    matches_ = std::move(matches);
    for (std::uint32_t leaf = 0; leaf < leaves_; ++leaf) {
      covered_traces_[leaf] = static_cast<std::size_t>(std::count_if(
          slot_.begin() + static_cast<std::ptrdiff_t>(leaf * traces_),
          slot_.begin() + static_cast<std::ptrdiff_t>((leaf + 1) * traces_),
          [](std::uint32_t entry) { return entry != kUnset; }));
    }
  }

  /// The sentinel used in slots().
  static constexpr std::uint32_t kUnsetSlot = 0xffffffffU;

  /// Number of covered (leaf, trace) pairs.
  [[nodiscard]] std::size_t coverage() const noexcept {
    std::size_t count = 0;
    for (const std::uint32_t entry : slot_) {
      count += entry != kUnset ? 1 : 0;
    }
    return count;
  }

  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaves_; }
  [[nodiscard]] std::size_t trace_count() const noexcept { return traces_; }

 private:
  static constexpr std::uint32_t kUnset = 0xffffffffU;

  [[nodiscard]] std::size_t index(std::uint32_t leaf, TraceId trace) const {
    OCEP_ASSERT(leaf < leaves_ && trace < traces_);
    return static_cast<std::size_t>(leaf) * traces_ + trace;
  }

  std::size_t leaves_ = 0;
  std::size_t traces_ = 0;
  std::vector<std::uint32_t> slot_;  // (leaf, trace) -> match id
  /// Per leaf, the traces on which it is covered.
  std::vector<std::size_t> covered_traces_;
  std::vector<Match> matches_;
};

}  // namespace ocep
