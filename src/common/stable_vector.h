// Append-only vector whose growth never copies.
//
// Storage is chunked (geometrically growing chunks reached through a small
// inline directory), so push_back never moves an element: a reference
// obtained from operator[] stays valid for the container's lifetime, and
// growing allocates one new chunk instead of copying every earlier element
// into a bigger block.  That is why the event store keeps its per-trace
// rows here and not in a std::vector: a trace's timestamp rows are
// appended one at a time, and a std::vector would copy all earlier rows
// on each regrowth and keep the abandoned blocks resident.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "common/assert.h"

namespace ocep {

/// `kFirstChunkLog2` sets the first chunk's capacity (2^k elements); each
/// subsequent chunk doubles, so the directory stays tiny while small
/// instances (e.g. sparse timestamp columns) don't over-allocate.
template <typename T, unsigned kFirstChunkLog2 = 9>
class StableVector {
  static_assert(kFirstChunkLog2 < 32, "first chunk must be addressable");
  /// Enough chunks that cumulative capacity exceeds 2^32 elements.
  static constexpr std::size_t kChunks = 33U - kFirstChunkLog2;
  static constexpr std::size_t kFirst = std::size_t{1} << kFirstChunkLog2;

 public:
  StableVector() = default;

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  StableVector(StableVector&& other) noexcept { steal(other); }
  StableVector& operator=(StableVector&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  ~StableVector() { destroy(); }

  void push_back(const T& value) {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    locate(size_, chunk, offset);
    if (chunks_[chunk] == nullptr) {
      chunks_[chunk] = new T[kFirst << chunk]();
    }
    chunks_[chunk][offset] = value;
    ++size_;
  }

  /// Appends `values` as one block, copied chunk by chunk across chunk
  /// boundaries.
  void append(std::span<const T> values) {
    std::size_t done = 0;
    while (done < values.size()) {
      std::size_t chunk = 0;
      std::size_t offset = 0;
      locate(size_ + done, chunk, offset);
      if (chunks_[chunk] == nullptr) {
        chunks_[chunk] = new T[kFirst << chunk]();
      }
      const std::size_t n =
          std::min((kFirst << chunk) - offset, values.size() - done);
      std::copy_n(values.data() + done, n, chunks_[chunk] + offset);
      done += n;
    }
    size_ += values.size();
  }

  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    locate(i, chunk, offset);
    return chunks_[chunk][offset];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Allocated capacity in elements (for memory accounting).
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      if (chunks_[c] != nullptr) {
        total += kFirst << c;
      }
    }
    return total;
  }

 private:
  static void locate(std::size_t i, std::size_t& chunk,
                     std::size_t& offset) noexcept {
    // Chunk c holds indices [kFirst*(2^c - 1), kFirst*(2^(c+1) - 1)).
    const std::size_t block = (i >> kFirstChunkLog2) + 1;
    chunk = static_cast<std::size_t>(std::bit_width(block)) - 1;
    offset = i - (kFirst * ((std::size_t{1} << chunk) - 1));
    OCEP_ASSERT(chunk < kChunks);
  }

  void steal(StableVector& other) noexcept {
    for (std::size_t c = 0; c < kChunks; ++c) {
      chunks_[c] = other.chunks_[c];
      other.chunks_[c] = nullptr;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void destroy() noexcept {
    for (std::size_t c = 0; c < kChunks; ++c) {
      delete[] chunks_[c];
      chunks_[c] = nullptr;
    }
  }

  T* chunks_[kChunks] = {};
  std::size_t size_ = 0;
};

}  // namespace ocep
