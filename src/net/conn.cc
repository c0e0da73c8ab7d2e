#include "net/conn.h"

namespace ocep::net {

IoStatus Conn::fill() {
  char chunk[65536];
  while (true) {
    const IoResult result = read_some(fd_.get(), chunk, sizeof(chunk));
    switch (result.status) {
      case IoStatus::kOk:
        bytes_in_ += result.bytes;
        rbuf_.append(chunk, result.bytes);
        continue;
      case IoStatus::kWouldBlock:
      case IoStatus::kEof:
      case IoStatus::kError:
        return result.status;
    }
  }
}

void Conn::consume(std::size_t n) {
  rpos_ += n;
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ > 65536) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
}

bool Conn::queue_write(std::string bytes) {
  if (bytes.empty()) {
    return true;
  }
  if (wq_bytes_ + bytes.size() > kMaxWriteQueue) {
    return false;
  }
  wq_bytes_ += bytes.size();
  wq_.push_back(std::move(bytes));
  return true;
}

std::string Conn::take_pending_writes() {
  std::string out;
  out.reserve(wq_bytes_);
  bool head = true;
  for (const std::string& chunk : wq_) {
    if (head) {
      out.append(chunk, wq_head_off_, std::string::npos);
      head = false;
    } else {
      out.append(chunk);
    }
  }
  wq_.clear();
  wq_bytes_ = 0;
  wq_head_off_ = 0;
  return out;
}

IoStatus Conn::flush_writes() {
  while (!wq_.empty()) {
    const std::string& head = wq_.front();
    const IoResult result = write_some(fd_.get(), head.data() + wq_head_off_,
                                       head.size() - wq_head_off_);
    switch (result.status) {
      case IoStatus::kOk:
        bytes_out_ += result.bytes;
        wq_head_off_ += result.bytes;
        wq_bytes_ -= result.bytes;
        if (wq_head_off_ == head.size()) {
          wq_.pop_front();
          wq_head_off_ = 0;
        }
        continue;
      case IoStatus::kWouldBlock:
      case IoStatus::kEof:
      case IoStatus::kError:
        return result.status;
    }
  }
  return IoStatus::kOk;
}

bool Conn::respond_http(int code, std::string_view content_type,
                        std::string_view body) {
  const char* reason = code == 200   ? "OK"
                       : code == 404 ? "Not Found"
                       : code == 409 ? "Conflict"
                       : code == 503 ? "Service Unavailable"
                                     : "Error";
  std::string response = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                         "\r\nContent-Type: " + std::string(content_type) +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n";
  response += body;
  if (!queue_write(std::move(response))) {
    state_ = ConnState::kClosed;
    return false;
  }
  state_ = ConnState::kClosing;
  return true;
}

bool Conn::settle(Poller& poller) {
  if (state_ == ConnState::kClosed) {
    return true;
  }
  const IoStatus status = flush_writes();
  if (status == IoStatus::kEof || status == IoStatus::kError) {
    return true;
  }
  const bool want = status == IoStatus::kWouldBlock;
  if (want != epollout_armed) {
    poller.mod(fd(), want ? (EPOLLIN | EPOLLOUT) : EPOLLIN, id_);
    epollout_armed = want;
  }
  return !want && state_ == ConnState::kClosing;
}

}  // namespace ocep::net
