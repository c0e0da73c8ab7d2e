// Producer-side connector: dials an ocep_served ingest port, performs the
// handshake, and then acts as the ByteSink under a SessionServer so the
// existing session encoder streams events over TCP unchanged.
//
// The connector is deliberately blocking (it lives in tools, tests, and
// the bench driver, not in the reactor): forward writes block on the
// socket with a timeout, and the reverse channel is polled between event
// writes so server-issued resync requests are answered promptly.  See
// docs/SERVER.md for the wire grammar.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "poet/event_store.h"
#include "poet/session.h"

namespace ocep::net {

struct ConnectorConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string tenant;
  std::vector<std::string> patterns;
  /// Per-write timeout; a server stuck longer than this fails the write.
  int io_timeout_ms = 30000;
  /// Split every outbound buffer into chunks of this many bytes (0 = send
  /// whole buffers).  Tests use 1 to prove byte-at-a-time reassembly.
  std::size_t write_chunk = 0;
};

/// One ingest connection.  Construct (connects + handshakes, always
/// announcing kFlagResume, so the ack carries the server's release
/// watermark), check ack().status, then hand it to a SessionServer as its
/// ByteSink.
class Connector final : public ByteSink {
 public:
  explicit Connector(const ConnectorConfig& config);
  ~Connector() override;

  Connector(const Connector&) = delete;
  Connector& operator=(const Connector&) = delete;

  /// Handshake outcome; on kRejected the message says why and the socket
  /// is already dead for writing.
  [[nodiscard]] const HandshakeAck& ack() const noexcept { return ack_; }

  /// ByteSink: ships session-frame bytes to the server (blocking, looping
  /// over short writes; throws NetError on timeout or a dead peer).
  void write(std::string_view bytes) override;

  /// Drains available reverse frames, answering resync requests through
  /// `server` (nullptr = drop them).  Waits up to `timeout_ms` for the
  /// first frame (0 = only what is already readable).  Returns the number
  /// of frames handled.
  std::size_t poll_reverse(SessionServer* server, int timeout_ms = 0);

  /// Polls until the FIN frame arrives or `timeout_ms` elapses, answering
  /// resyncs meanwhile.  Returns true when the FIN was received.
  bool wait_fin(SessionServer* server, int timeout_ms = 30000);

  [[nodiscard]] bool fin_received() const noexcept { return fin_received_; }
  [[nodiscard]] const ReverseFrame& fin() const noexcept { return fin_; }
  [[nodiscard]] const std::string& last_notice() const noexcept {
    return last_notice_;
  }
  [[nodiscard]] std::uint64_t resyncs_answered() const noexcept {
    return resyncs_answered_;
  }

  /// Half-closes the send direction (EOF at the server) while the reverse
  /// channel stays open for the FIN.
  void shutdown_send() noexcept;
  /// Hard close, as an abrupt producer death would.
  void close() noexcept { fd_.reset(); }
  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }

 private:
  void handle_frame(const ReverseFrame& frame, SessionServer* server);

  ConnectorConfig config_;
  OwnedFd fd_;
  HandshakeAck ack_;
  std::string rbuf_;
  std::size_t rpos_ = 0;
  ReverseFrame fin_;
  bool fin_received_ = false;
  std::string last_notice_;
  std::uint64_t resyncs_answered_ = 0;
};

/// One-call producer: streams `store` to a server as tenant
/// `config.tenant`, answering resyncs, and (optionally) waits for the FIN.
struct StreamOptions {
  /// Events between reverse-channel polls.
  std::uint64_t poll_every = 64;
  /// Stop after this many events without BYE or FIN — simulates a
  /// producer killed mid-stream (0 = stream everything and finish).
  std::uint64_t max_events = 0;
  /// Suppress event frames below this global position (the HELLO is
  /// suppressed too when > 0).  Set to the ack's resume_position to send
  /// only the tail, or above the server watermark to force a snapshot
  /// resync; the SessionServer still retains the full stream either way,
  /// so resyncs can refill anything.
  std::uint64_t skip_below = 0;
  /// Invoked just before event at global position `pos` is encoded
  /// (bench latency tap).
  std::function<void(std::uint64_t pos)> before_write;
  int fin_timeout_ms = 30000;
};

struct StreamResult {
  HandshakeAck ack;
  bool fin_received = false;
  ReverseFrame fin;
  std::uint64_t events_sent = 0;
  SessionServer::Stats session;
};

[[nodiscard]] StreamResult stream_store(const EventStore& store,
                                        const StringPool& pool,
                                        const ConnectorConfig& config,
                                        const StreamOptions& options = {});

}  // namespace ocep::net
