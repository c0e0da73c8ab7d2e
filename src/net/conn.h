// Per-connection state machine: buffers, write queue, and accounting.
//
// A Conn owns the mechanics of one accepted socket — edge-triggered
// read-until-EAGAIN, a bounded userspace write queue flushed until the
// kernel buffer pushes back, and byte counters — while the Server owns
// the policy (handshakes, tenants, HTTP routing).  Keeping the two apart
// means every EINTR/EAGAIN/short-write subtlety lives in exactly one
// place.
//
// Backpressure: outbound bytes queue in `wq_` only while the kernel
// buffer is full (EPOLLOUT rearms the flush).  The queue is bounded; a
// peer that stops reading long enough to overflow it is closed rather
// than allowed to pin server memory.  Inbound backpressure is the read
// loop itself: bytes are handed to the tenant session synchronously, so a
// slow pipeline simply slows the reads and lets TCP flow control push
// back to the producer.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "net/poller.h"
#include "net/socket.h"

namespace ocep::net {

enum class ConnKind : std::uint8_t { kIngest, kAdmin };

enum class ConnState : std::uint8_t {
  kHandshake,  ///< ingest: waiting for the handshake envelope
  kStreaming,  ///< ingest: forwarding session frames to a tenant
  kRequest,    ///< admin: accumulating one HTTP request
  kClosing,    ///< flush the write queue, then close
  kClosed,
};

class Conn {
 public:
  Conn(OwnedFd fd, std::uint64_t id, ConnKind kind)
      : fd_(std::move(fd)),
        id_(id),
        kind_(kind),
        state_(kind == ConnKind::kAdmin ? ConnState::kRequest
                                        : ConnState::kHandshake) {}

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] ConnKind kind() const noexcept { return kind_; }
  [[nodiscard]] ConnState state() const noexcept { return state_; }
  void set_state(ConnState state) noexcept { state_ = state; }

  /// Drains the socket into the read buffer until EAGAIN, EOF, or error.
  /// Returns the terminal condition of the drain: kWouldBlock is the
  /// normal "caller should process what arrived" outcome; kEof and
  /// kError may still have delivered bytes first, so callers process the
  /// buffer before acting on them.
  [[nodiscard]] IoStatus fill();

  /// Unconsumed inbound bytes.
  [[nodiscard]] std::string_view pending() const noexcept {
    return std::string_view(rbuf_).substr(rpos_);
  }
  /// Marks `n` pending bytes consumed and compacts lazily.
  void consume(std::size_t n);
  /// Parser cursor into rbuf_ for incremental envelope parsing: the
  /// buffer with its consumed prefix, as (buffer view, consumed offset).
  [[nodiscard]] const std::string& rbuf() const noexcept { return rbuf_; }
  [[nodiscard]] std::size_t rpos() const noexcept { return rpos_; }

  /// Queues bytes and flushes opportunistically.  Returns false when the
  /// queue bound was exceeded (caller must close: the peer is not
  /// reading).
  [[nodiscard]] bool queue_write(std::string bytes);

  /// Writes queued bytes until EAGAIN or empty.  kOk means the queue is
  /// empty; kWouldBlock means EPOLLOUT should be armed.
  [[nodiscard]] IoStatus flush_writes();

  /// Queues a complete "Connection: close" HTTP/1.0 response and marks
  /// the connection closing; false (connection closed) when the write
  /// queue overflowed.
  bool respond_http(int code, std::string_view content_type,
                    std::string_view body);

  /// After a read or a write: flushes the queue and keeps this
  /// connection's EPOLLOUT interest in `poller` in step with what is
  /// left.  True when the connection is done — closed, flushed while
  /// closing, or its peer gone — and the owner should close it.
  [[nodiscard]] bool settle(Poller& poller);

  [[nodiscard]] bool write_pending() const noexcept { return !wq_.empty(); }

  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept {
    return bytes_out_;
  }

  /// Injects bytes ahead of socket reads, as if they had arrived on the
  /// wire.  Used when a connection migrates between reactor shards: the
  /// source shard hands over whatever it had buffered past the handshake
  /// and the adopting shard seeds its fresh Conn with them.
  void seed_inbound(std::string_view bytes) {
    rbuf_.append(bytes);
    bytes_in_ += bytes.size();
  }

  /// Relinquishes the socket without closing it (shard migration).  The
  /// Conn is dead afterwards (kClosed) and must be discarded.
  [[nodiscard]] OwnedFd take_fd() noexcept {
    state_ = ConnState::kClosed;
    return std::move(fd_);
  }

  /// Drains the write queue into one string without sending it,
  /// honouring the partial-write offset of the head chunk, and leaves the
  /// queue empty.  A live tenant migration carries these bytes to the
  /// adopting shard so no queued resync/FIN frame is lost mid-hop.
  [[nodiscard]] std::string take_pending_writes();

  /// Tenant this ingest connection is attached to ("" before handshake).
  std::string tenant;
  /// Millisecond timestamp of the last read/write, maintained by the
  /// server's clock for idle sweeps.
  std::uint64_t last_active_ms = 0;
  /// Set when EPOLLOUT interest is currently registered.
  bool epollout_armed = false;

  /// Hard bound on queued outbound bytes (control frames and admin
  /// responses only, so generous).
  static constexpr std::size_t kMaxWriteQueue = 8U << 20U;
  /// Bound on the inbound buffer while untrusted (handshake / HTTP head).
  static constexpr std::size_t kMaxPrefaceBytes = (1U << 20U) + 4096U;

 private:
  OwnedFd fd_;
  std::uint64_t id_;
  ConnKind kind_;
  ConnState state_;
  std::string rbuf_;
  std::size_t rpos_ = 0;
  std::deque<std::string> wq_;
  std::size_t wq_bytes_ = 0;
  std::size_t wq_head_off_ = 0;  ///< bytes of wq_.front() already written
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace ocep::net
