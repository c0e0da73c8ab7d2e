// Thin epoll wrapper.  The server runs one edge-triggered readiness loop:
// every registration uses EPOLLET, so a readiness event means "drain until
// EAGAIN", and a missed drain is a hang, not a slowdown.  Registrations
// carry a plain 64-bit tag (the server maps tags to listeners, the wake
// pipe, and connection ids) instead of pointers, so stale events after a
// close cannot dangle.  WakePipe is the self-pipe every event loop
// registers so other threads and signal handlers can interrupt a wait.
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace ocep::net {

class Poller {
 public:
  struct Event {
    std::uint64_t tag = 0;
    std::uint32_t events = 0;
  };

  Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` edge-triggered for `events` (EPOLLET is added here).
  void add(int fd, std::uint32_t events, std::uint64_t tag);
  /// Rearms `fd` with a new interest mask (EPOLLET added).
  void mod(int fd, std::uint32_t events, std::uint64_t tag);
  /// Deregisters; ignores ENOENT so teardown paths need not track whether
  /// registration happened.
  void del(int fd) noexcept;

  /// Waits up to `timeout_ms` (-1 = forever) and fills `out`.  EINTR is
  /// reported as zero events so callers re-check their clocks.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

 private:
  OwnedFd epfd_;
  std::vector<epoll_event> raw_;
};

/// CLOCK_MONOTONIC in milliseconds: the event loops' clock.
[[nodiscard]] std::uint64_t monotonic_ms() noexcept;

/// A non-blocking self-pipe: register fd() for EPOLLIN, call wake() from
/// any thread or signal handler, drain() when it reports readable.
class WakePipe {
 public:
  WakePipe();

  [[nodiscard]] int fd() const noexcept { return read_.get(); }
  /// Async-signal-safe: one write(2) of one byte; a full pipe already
  /// guarantees a pending wakeup.
  void wake() const noexcept;
  void drain() const noexcept;

 private:
  OwnedFd read_;
  OwnedFd write_;
};

}  // namespace ocep::net
