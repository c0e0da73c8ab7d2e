#include "net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

namespace ocep::net {

Connector::Connector(const ConnectorConfig& config) : config_(config) {
  fd_ = tcp_connect(config_.host, config_.port);
  const std::string hello = [&] {
    HandshakeRequest request;
    request.flags = kFlagResume;
    request.tenant = config_.tenant;
    request.patterns = config_.patterns;
    return encode_handshake(request);
  }();
  write_all(fd_.get(), hello, config_.io_timeout_ms);
  // Block until the ack envelope is complete.
  while (true) {
    std::string error;
    const ParseStatus status = parse_ack(rbuf_, rpos_, ack_, error);
    if (status == ParseStatus::kDone) {
      break;
    }
    if (status == ParseStatus::kError) {
      throw NetError("handshake ack: " + error);
    }
    if (!wait_readable(fd_.get(), config_.io_timeout_ms)) {
      throw NetError("handshake ack: timed out");
    }
    char chunk[4096];
    const IoResult got = read_some(fd_.get(), chunk, sizeof(chunk));
    if (got.status == IoStatus::kOk) {
      rbuf_.append(chunk, got.bytes);
    } else if (got.status == IoStatus::kEof) {
      throw NetError("handshake ack: server closed the connection");
    } else if (got.status == IoStatus::kError) {
      throw NetError("handshake ack: " + got.error);
    }
  }
}

Connector::~Connector() = default;

void Connector::write(std::string_view bytes) {
  if (config_.write_chunk == 0) {
    write_all(fd_.get(), bytes, config_.io_timeout_ms);
    return;
  }
  while (!bytes.empty()) {
    const std::size_t take = std::min(config_.write_chunk, bytes.size());
    write_all(fd_.get(), bytes.substr(0, take), config_.io_timeout_ms);
    bytes.remove_prefix(take);
  }
}

std::size_t Connector::poll_reverse(SessionServer* server, int timeout_ms) {
  std::size_t handled = 0;
  bool may_wait = timeout_ms > 0;
  while (fd_.valid()) {
    // Drain complete frames already buffered.
    while (true) {
      ReverseFrame frame;
      std::string error;
      const ParseStatus status = parse_reverse_frame(rbuf_, rpos_, frame,
                                                     error);
      if (status == ParseStatus::kDone) {
        ++handled;
        handle_frame(frame, server);
        continue;
      }
      if (status == ParseStatus::kError) {
        throw NetError("reverse channel: " + error);
      }
      break;  // kNeedMore
    }
    if (rpos_ == rbuf_.size()) {
      rbuf_.clear();
      rpos_ = 0;
    }
    const int wait_ms = may_wait && handled == 0 ? timeout_ms : 0;
    may_wait = false;
    if (!wait_readable(fd_.get(), wait_ms)) {
      return handled;
    }
    char chunk[4096];
    const IoResult got = read_some(fd_.get(), chunk, sizeof(chunk));
    if (got.status == IoStatus::kOk) {
      rbuf_.append(chunk, got.bytes);
      continue;
    }
    if (got.status == IoStatus::kWouldBlock) {
      return handled;
    }
    // EOF or error: the server is gone; nothing more will arrive.
    fd_.reset();
    return handled;
  }
  return handled;
}

void Connector::handle_frame(const ReverseFrame& frame,
                             SessionServer* server) {
  switch (frame.type) {
    case kReverseResync:
      if (server != nullptr) {
        ++resyncs_answered_;
        try {
          server->handle_resync(frame.resync);
        } catch (const NetError&) {
          // The server closed while its resync request was in flight; a
          // FIN may still be sitting behind it in the buffer, so keep
          // draining instead of propagating.
        }
      }
      break;
    case kReverseFin:
      fin_ = frame;
      fin_received_ = true;
      break;
    case kReverseNotice:
      last_notice_ = frame.message;
      break;
    default:
      break;
  }
}

bool Connector::wait_fin(SessionServer* server, int timeout_ms) {
  const int slice = 50;
  int waited = 0;
  while (!fin_received_ && fd_.valid()) {
    poll_reverse(server, slice);
    waited += slice;
    if (timeout_ms >= 0 && waited >= timeout_ms) {
      break;
    }
  }
  return fin_received_;
}

void Connector::shutdown_send() noexcept {
  if (fd_.valid()) {
    ::shutdown(fd_.get(), SHUT_WR);
  }
}

namespace {

/// Suppresses the forward stream until opened: used to resume by sending
/// only the tail while the SessionServer still retains everything.
class GateSink final : public ByteSink {
 public:
  explicit GateSink(ByteSink& next) : next_(next) {}
  void write(std::string_view bytes) override {
    if (open) {
      next_.write(bytes);
    }
  }
  bool open = true;

 private:
  ByteSink& next_;
};

}  // namespace

StreamResult stream_store(const EventStore& store, const StringPool& pool,
                          const ConnectorConfig& config,
                          const StreamOptions& options) {
  StreamResult result;
  Connector connector(config);
  result.ack = connector.ack();
  if (result.ack.status == AckStatus::kRejected) {
    return result;
  }

  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  GateSink gate(connector);
  gate.open = options.skip_below == 0;  // HELLO suppressed when resuming
  SessionServer session(gate, pool, names);

  const std::uint64_t total = store.event_count();
  const std::uint64_t limit =
      options.max_events == 0 ? total : std::min(options.max_events, total);
  for (std::uint64_t pos = 0; pos < total; ++pos) {
    if (pos >= limit) {
      // Producer "killed" mid-stream: no BYE, no FIN, socket torn down by
      // the destructor.
      result.session = session.stats();
      return result;
    }
    if (!gate.open && pos >= options.skip_below) {
      gate.open = true;
    }
    if (options.before_write) {
      options.before_write(pos);
    }
    const EventId id = store.arrival(pos);
    session.write(store.event(id), store.clock(id));
    if (gate.open) {
      ++result.events_sent;
    }
    if (options.poll_every != 0 && (pos + 1) % options.poll_every == 0) {
      connector.poll_reverse(&session, 0);
    }
  }
  gate.open = true;
  session.finish();
  // Keep the forward direction open while waiting: the server may still
  // request a resync (a skip_below gap, or faults upstream), and the
  // snapshot answer travels forward.  On a clean FIN the server closes
  // the connection itself.
  result.fin_received = connector.wait_fin(&session, options.fin_timeout_ms);
  result.fin = connector.fin();
  result.session = session.stats();
  return result;
}

}  // namespace ocep::net
