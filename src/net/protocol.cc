#include "net/protocol.h"

#include "common/bytes.h"
#include "common/frame.h"

namespace ocep::net {
namespace {

/// Decodes one frame at `buf[pos..)` with the shared codec; `pos` moves
/// past it only on kDone.
ParseStatus decode(std::string_view buf, std::size_t& pos,
                   std::string_view tag, std::string_view& body,
                   std::string& error) {
  const DecodedFrame frame =
      decode_frame(buf.substr(pos), tag, kMaxHandshakeBody);
  switch (frame.status) {
    case FrameStatus::kNeedMore:
      return ParseStatus::kNeedMore;
    case FrameStatus::kCorrupt:
      error = std::string(frame.error) + " at byte " +
              std::to_string(frame.error_offset);
      return ParseStatus::kError;
    case FrameStatus::kDone:
      break;
  }
  body = frame.body;
  pos += frame.consumed;
  return ParseStatus::kDone;
}

std::string reverse_frame(char type, std::string_view body) {
  return encode_frame(std::string_view(&type, 1), body);
}

}  // namespace

std::string encode_handshake(const HandshakeRequest& request) {
  std::string body;
  put_varint(body, request.flags);
  put_string(body, request.tenant);
  put_varint(body, request.patterns.size());
  for (const std::string& pattern : request.patterns) {
    put_string(body, pattern);
  }
  return encode_frame(kHandshakeMagic, body);
}

std::string encode_ack(const HandshakeAck& ack) {
  std::string body;
  put_varint(body, static_cast<std::uint64_t>(ack.status));
  put_varint(body, ack.resume_position);
  put_string(body, ack.message);
  put_varint(body, ack.shard);
  return encode_frame(kAckMagic, body);
}

std::string encode_resync_frame(const ResyncRequest& request) {
  std::string body;
  put_varint(body, request.request_id);
  put_varint(body, request.next_position);
  return reverse_frame(kReverseResync, body);
}

std::string encode_fin_frame(bool degraded, std::string_view message) {
  std::string body;
  put_varint(body, degraded ? 1 : 0);
  put_string(body, message);
  return reverse_frame(kReverseFin, body);
}

std::string encode_notice_frame(std::string_view message) {
  std::string body;
  put_string(body, message);
  return reverse_frame(kReverseNotice, body);
}

ParseStatus parse_handshake(std::string_view buf, std::size_t& pos,
                            HandshakeRequest& out, std::string& error) {
  std::string_view body;
  const ParseStatus status = decode(buf, pos, kHandshakeMagic, body, error);
  if (status != ParseStatus::kDone) {
    return status;
  }
  ByteReader reader(body);
  out.flags = reader.varint();
  out.tenant = std::string(reader.str());
  const std::uint64_t n = reader.varint();
  if (!reader.ok() || n > 1024) {
    error = "malformed handshake body";
    return ParseStatus::kError;
  }
  out.patterns.clear();
  out.patterns.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.patterns.emplace_back(reader.str());
  }
  if (!reader.done() || out.tenant.empty()) {
    error = "malformed handshake body";
    return ParseStatus::kError;
  }
  return ParseStatus::kDone;
}

ParseStatus parse_ack(std::string_view buf, std::size_t& pos,
                      HandshakeAck& out, std::string& error) {
  std::string_view body;
  const ParseStatus status = decode(buf, pos, kAckMagic, body, error);
  if (status != ParseStatus::kDone) {
    return status;
  }
  ByteReader reader(body);
  const std::uint64_t raw_status = reader.varint();
  out.resume_position = reader.varint();
  out.message = std::string(reader.str());
  out.shard = reader.varint();
  if (!reader.done() ||
      raw_status > static_cast<std::uint64_t>(AckStatus::kRejected)) {
    error = "malformed ack body";
    return ParseStatus::kError;
  }
  out.status = static_cast<AckStatus>(raw_status);
  return ParseStatus::kDone;
}

ParseStatus parse_reverse_frame(std::string_view buf, std::size_t& pos,
                                ReverseFrame& out, std::string& error) {
  if (pos == buf.size()) {
    return ParseStatus::kNeedMore;
  }
  const char type = buf[pos];
  if (type != kReverseResync && type != kReverseFin &&
      type != kReverseNotice) {
    error = "unknown reverse frame type";
    return ParseStatus::kError;
  }
  std::string_view body;
  const ParseStatus status =
      decode(buf, pos, buf.substr(pos, 1), body, error);
  if (status != ParseStatus::kDone) {
    return status;
  }
  ByteReader reader(body);
  out = ReverseFrame{};
  out.type = type;
  switch (type) {
    case kReverseResync:
      out.resync.request_id = reader.varint();
      out.resync.next_position = reader.varint();
      break;
    case kReverseFin:
      out.degraded = reader.varint() == 1;
      out.message = std::string(reader.str());
      break;
    default:  // kReverseNotice
      out.message = std::string(reader.str());
      break;
  }
  if (!reader.done()) {
    error = "malformed reverse frame body";
    return ParseStatus::kError;
  }
  return ParseStatus::kDone;
}

ParseStatus parse_http_request(std::string_view buf, std::size_t& pos,
                               std::size_t max_head, HttpRequest& out) {
  const std::string_view pending = buf.substr(pos);
  const std::size_t head_end = pending.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return pending.size() > max_head ? ParseStatus::kError
                                     : ParseStatus::kNeedMore;
  }
  const std::string_view line = pending.substr(0, pending.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return ParseStatus::kError;
  }
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target.find('?');
  out.method = std::string(line.substr(0, sp1));
  out.path = std::string(target.substr(0, query));
  out.query = query == std::string_view::npos
                  ? std::string()
                  : std::string(target.substr(query + 1));
  pos += head_end + 4;
  return ParseStatus::kDone;
}

}  // namespace ocep::net
