// Per-shard background span compaction: segment rewriting sliced into
// bounded quanta the reactor runs between poll waits.
//
// Not a thread.  The compactor is an incremental state machine driven by
// tick() on the shard thread that owns the store, so it composes with the
// single-owner SegmentLog contract, with SIGTERM drain, and with the
// migration freeze: quiesce() abandons the in-flight plan and the log is
// untouched until the next tick.
//
// A sealed segment whose dead-byte ratio crosses the trigger gets its
// live span records rewritten at the log tail (spans are position-free —
// see tenant_store.h — so this is the only record type that is safe to
// relocate).  Once the segment's remaining live bytes are bases/deltas
// only, the owner's inline re-bases (the group commit) supersede those
// and the log collects the fully-dead segment.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "store/tenant_store.h"

namespace ocep::store {

struct CompactorConfig {
  /// Dead-byte ratio on a sealed segment that triggers span relocation.
  double dead_ratio = 0.5;
  /// Spans relocated per tick — the yield quantum.
  std::size_t quantum_spans = 8;
};

struct CompactorStats {
  std::uint64_t ticks = 0;
  std::uint64_t spans_moved = 0;
  std::uint64_t segments_planned = 0;
};

class Compactor {
 public:
  Compactor(TenantStore& store, CompactorConfig config)
      : store_(store), config_(config) {}

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Runs one bounded quantum of work; returns true when anything was
  /// done (the owner keeps its poll timeout short while this is true).
  bool tick();

  /// Pending work estimate: 1 while a segment rewrite is in flight.
  [[nodiscard]] std::uint64_t backlog() const;

  /// Abandons the in-flight plan (SIGTERM drain, migration freeze); the
  /// log sees no compaction writes until the next tick.
  void quiesce();

  [[nodiscard]] const CompactorStats& stats() const noexcept {
    return stats_;
  }

 private:
  [[nodiscard]] bool pick_segment();

  TenantStore& store_;
  CompactorConfig config_;
  std::uint32_t target_segment_ = 0;  ///< 0 = no rewrite in flight
  /// Sealed segments with no live spans left to move (their remaining
  /// live bytes are bases/deltas, which only rebases can retire) — never
  /// worth re-picking, since sealed segments gain no new records.
  std::set<std::uint32_t> barren_;
  CompactorStats stats_;
};

}  // namespace ocep::store
