#include "net/poller.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

namespace ocep::net {

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)), raw_(64) {
  if (!epfd_.valid()) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
}

void Poller::add(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
  }
}

void Poller::mod(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(MOD): ") + std::strerror(errno));
  }
}

void Poller::del(int fd) noexcept {
  static_cast<void>(::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr));
}

std::size_t Poller::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  const int got = ::epoll_wait(epfd_.get(), raw_.data(),
                               static_cast<int>(raw_.size()), timeout_ms);
  if (got < 0) {
    if (errno == EINTR) {
      return 0;
    }
    throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  out.reserve(static_cast<std::size_t>(got));
  for (int i = 0; i < got; ++i) {
    out.push_back(Event{raw_[static_cast<std::size_t>(i)].data.u64,
                        raw_[static_cast<std::size_t>(i)].events});
  }
  if (static_cast<std::size_t>(got) == raw_.size()) {
    raw_.resize(raw_.size() * 2);  // never starve under a full batch
  }
  return static_cast<std::size_t>(got);
}

std::uint64_t monotonic_ms() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000U +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000U;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw NetError(std::string("pipe2(wake): ") + std::strerror(errno));
  }
  read_.reset(fds[0]);
  write_.reset(fds[1]);
}

void WakePipe::wake() const noexcept {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t rc = ::write(write_.get(), &byte, 1);
}

void WakePipe::drain() const noexcept {
  char sink[64];
  while (::read(read_.get(), sink, sizeof(sink)) > 0) {
  }
}

}  // namespace ocep::net
