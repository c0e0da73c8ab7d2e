#include "store/compactor.h"

#include <utility>
#include <vector>

namespace ocep::store {

bool Compactor::pick_segment() {
  const std::vector<SegmentUsage> usage = store_.log().segment_usage();
  // Prune bookkeeping for segments the log already collected.
  std::set<std::uint32_t> present;
  for (const SegmentUsage& seg : usage) {
    present.insert(seg.id);
  }
  std::erase_if(barren_, [&present](std::uint32_t id) {
    return !present.contains(id);
  });

  std::uint32_t best = 0;
  std::uint64_t best_live = 0;
  for (const SegmentUsage& seg : usage) {
    if (!seg.sealed || seg.bytes == 0 || barren_.contains(seg.id)) {
      continue;
    }
    const std::uint64_t dead = seg.bytes - std::min(seg.live_bytes, seg.bytes);
    const double ratio =
        static_cast<double>(dead) / static_cast<double>(seg.bytes);
    if (ratio < config_.dead_ratio) {
      continue;
    }
    if (best == 0 || seg.live_bytes < best_live) {
      best = seg.id;
      best_live = seg.live_bytes;
    }
  }
  if (best == 0) {
    return false;
  }
  target_segment_ = best;
  stats_.segments_planned += 1;
  return true;
}

bool Compactor::tick() {
  stats_.ticks += 1;
  if (target_segment_ == 0 && !pick_segment()) {
    return false;
  }
  const std::vector<std::pair<std::string, SpanKey>> spans =
      store_.spans_in_segment(target_segment_, config_.quantum_spans);
  if (spans.empty()) {
    // Nothing movable left: the survivors are bases/deltas that only a
    // rebase can retire, so stop re-picking this segment.
    barren_.insert(target_segment_);
    target_segment_ = 0;
    return false;
  }
  for (const auto& [tenant, key] : spans) {
    store_.relocate_span(tenant, key);
    stats_.spans_moved += 1;
  }
  if (spans.size() < config_.quantum_spans) {
    target_segment_ = 0;  // segment drained of spans this tick
  }
  return true;
}

std::uint64_t Compactor::backlog() const {
  return target_segment_ != 0 ? 1 : 0;
}

void Compactor::quiesce() {
  target_segment_ = 0;
}

}  // namespace ocep::store
