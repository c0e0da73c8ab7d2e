// A span sink (core/span_sink.h) that keeps spans in memory, for tests
// that need the spill tier without a tenant store.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "core/span_sink.h"

namespace ocep::testing {

class MemorySpanSink final : public SpanSink {
 public:
  bool spill(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq,
             std::span<const HistoryEntry> entries) override {
    spans_[{pattern, leaf, trace, seq}].assign(entries.begin(),
                                               entries.end());
    ++spills;
    return true;
  }
  bool fault(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq, std::vector<HistoryEntry>& out) override {
    const auto it = spans_.find({pattern, leaf, trace, seq});
    if (it == spans_.end()) {
      return false;
    }
    out = it->second;
    ++faults;
    return true;
  }
  void release(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
               std::uint64_t seq) override {
    spans_.erase({pattern, leaf, trace, seq});
  }

  std::uint64_t spills = 0;
  std::uint64_t faults = 0;

 private:
  std::map<std::tuple<std::uint32_t, std::uint32_t, TraceId, std::uint64_t>,
           std::vector<HistoryEntry>>
      spans_;
};

}  // namespace ocep::testing
