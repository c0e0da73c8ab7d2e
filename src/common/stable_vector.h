// Append-only vector with stable element addresses and a single-writer /
// many-reader publication contract.
//
// Storage is chunked (geometrically growing chunks reached through a small
// inline directory), so push_back never moves an element: a reference
// obtained from operator[] stays valid for the container's lifetime.  That
// is what lets the matching pipeline's worker threads read the event store
// while the delivery thread keeps appending.
//
// Publication contract: exactly one thread calls push_back() and append();
// each call release-stores the new size into an atomic *visible size*.  A
// reader thread that acquire-loads visible_size() may access any index
// below the loaded value — the release/acquire pair orders the element
// (and chunk-directory) writes before the reads, so no locking is needed.
// size() is the writer's own view and must not be called concurrently
// with the writer by other threads; readers use visible_size().
#pragma once

#include <algorithm>
#include <atomic>
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

  /// Moves are writer-side operations: they must not race with any reader
  /// of the moved-from container.
  StableVector(StableVector&& other) noexcept { steal(other); }
  StableVector& operator=(StableVector&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  ~StableVector() { destroy(); }

  /// Writer only.  Publishes the element before returning.
  void push_back(const T& value) {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    locate(size_, chunk, offset);
    if (chunks_[chunk] == nullptr) {
      chunks_[chunk] = new T[kFirst << chunk]();
    }
    chunks_[chunk][offset] = value;
    ++size_;
    visible_.store(size_, std::memory_order_release);
  }

  /// Writer only.  Appends `values` as one block, copied chunk by chunk
  /// across chunk boundaries, and publishes the whole block at once.
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
    visible_.store(size_, std::memory_order_release);
  }

  /// Valid for the writer at any index < size(), and for readers at any
  /// index below an acquire-loaded visible_size().
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    locate(i, chunk, offset);
    return chunks_[chunk][offset];
  }

  /// Writer's view of the size.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reader-safe size: every index below the returned value is readable.
  [[nodiscard]] std::size_t visible_size() const noexcept {
    return visible_.load(std::memory_order_acquire);
  }

  /// Allocated capacity in elements (writer only; for memory accounting).
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
    visible_.store(size_, std::memory_order_relaxed);
    other.visible_.store(0, std::memory_order_relaxed);
  }

  void destroy() noexcept {
    for (std::size_t c = 0; c < kChunks; ++c) {
      delete[] chunks_[c];
      chunks_[c] = nullptr;
    }
  }

  T* chunks_[kChunks] = {};
  std::size_t size_ = 0;
  std::atomic<std::size_t> visible_{0};
};

}  // namespace ocep
