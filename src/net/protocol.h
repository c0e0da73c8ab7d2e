// The ocep_served connection protocol (docs/SERVER.md).
//
// A connection opens with one client->server handshake, answered by one
// server->client ack; after that the two directions diverge:
//
//  * forward (client -> server): raw session frames exactly as
//    SessionServer emits them (marker | seq | len | crc | payload,
//    poet/session.h).  The server feeds the bytes verbatim into the
//    tenant's SessionClient, so every loss-tolerance property of the
//    session layer — CRC containment, marker resync, position dedup,
//    snapshot refill — carries over to TCP unchanged.
//  * reverse (server -> client): small typed control frames — resync
//    requests, the final FIN, operator notices.  TCP already guarantees
//    integrity and order here; the CRC guards against a desynchronized
//    *implementation* (a parser bug), not the wire.
//
// The handshake, the ack and the reverse frames are frames of the shared
// codec (common/frame.h), tagged with the handshake magic, the ack magic,
// or the control frame's type byte.  The length prefix makes incremental
// parsing trivial and bounds memory before a peer is trusted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "poet/session.h"

namespace ocep::net {

inline constexpr std::string_view kHandshakeMagic = "OCEPNET2";
inline constexpr std::string_view kAckMagic = "OCEPNTA2";

/// Bound on a handshake/ack body; larger advertisements are rejected
/// before any allocation trusts the peer.
inline constexpr std::uint32_t kMaxHandshakeBody = 1U << 20U;

/// Handshake flag bits.
inline constexpr std::uint64_t kFlagResume = 1;

struct HandshakeRequest {
  std::uint64_t flags = 0;
  std::string tenant;
  /// Pattern sources registered for this tenant, in order.  On re-attach
  /// and checkpoint-resume the set must match the registered one.
  std::vector<std::string> patterns;

  [[nodiscard]] bool want_resume() const noexcept {
    return (flags & kFlagResume) != 0;
  }
};

enum class AckStatus : std::uint8_t {
  kFresh = 0,    ///< tenant created, stream from position 0
  kResumed = 1,  ///< tenant re-attached or restored; dedup handles replay
  kRejected = 2, ///< message says why; the server closes after sending
};

struct HandshakeAck {
  AckStatus status = AckStatus::kFresh;
  /// First global position the server's session still lacks; a resuming
  /// producer may skip retained prefixes below it (replaying them is also
  /// correct — the session dedups on position).
  std::uint64_t resume_position = 0;
  std::string message;
  /// Index of the shard that answered (the tenant's current placement —
  /// which live rebalancing may have moved off the affinity hash).
  /// Informational: producers need not act on it.
  std::uint64_t shard = 0;
};

/// Reverse-channel frame types.
inline constexpr char kReverseResync = 'R';
inline constexpr char kReverseFin = 'F';
inline constexpr char kReverseNotice = 'E';

struct ReverseFrame {
  char type = 0;
  ResyncRequest resync;   ///< kReverseResync
  bool degraded = false;  ///< kReverseFin
  std::string message;    ///< kReverseFin / kReverseNotice
};

[[nodiscard]] std::string encode_handshake(const HandshakeRequest& request);
[[nodiscard]] std::string encode_ack(const HandshakeAck& ack);
[[nodiscard]] std::string encode_resync_frame(const ResyncRequest& request);
[[nodiscard]] std::string encode_fin_frame(bool degraded,
                                           std::string_view message);
[[nodiscard]] std::string encode_notice_frame(std::string_view message);

enum class ParseStatus : std::uint8_t {
  kNeedMore,  ///< incomplete; feed more bytes and retry
  kDone,      ///< parsed; `pos` advanced past the consumed bytes
  kError,     ///< malformed; the connection cannot be trusted further
};

/// Incremental parsers over an accumulation buffer.  They consume from
/// `buf[pos..)` and advance `pos` only on kDone; on kError the message
/// explains what broke (bad tag or version, oversized body, CRC
/// mismatch) and at which byte of the frame.
[[nodiscard]] ParseStatus parse_handshake(std::string_view buf,
                                          std::size_t& pos,
                                          HandshakeRequest& out,
                                          std::string& error);
[[nodiscard]] ParseStatus parse_ack(std::string_view buf, std::size_t& pos,
                                    HandshakeAck& out, std::string& error);
[[nodiscard]] ParseStatus parse_reverse_frame(std::string_view buf,
                                              std::size_t& pos,
                                              ReverseFrame& out,
                                              std::string& error);

// --- admin planes: one HTTP/1.0 request per connection -----------------

struct HttpRequest {
  std::string method;
  std::string path;   ///< the target up to any '?'
  std::string query;  ///< the target after the '?', undecoded
};

/// Parses a request head (request line, headers, blank line) at
/// buf[pos..), skipping the headers.  kNeedMore until the blank line
/// arrives; kError when the head outgrows `max_head` bytes or the request
/// line is not "METHOD TARGET VERSION".
[[nodiscard]] ParseStatus parse_http_request(std::string_view buf,
                                             std::size_t& pos,
                                             std::size_t max_head,
                                             HttpRequest& out);

}  // namespace ocep::net
