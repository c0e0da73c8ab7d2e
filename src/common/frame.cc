#include "common/frame.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/assert.h"
#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/error.h"

namespace ocep {
namespace {

/// Appends tag | len | crc for `body`.
void put_header(std::string& out, std::string_view tag,
                std::string_view body) {
  OCEP_ASSERT_MSG(body.size() <= kMaxFrameBody,
                  "frame body exceeds the u32 length field");
  out += tag;
  put_u32le(out, static_cast<std::uint32_t>(body.size()));
  put_u32le(out, crc32c(body, crc32c(tag)));
}

DecodedFrame corrupt(std::size_t offset, const char* why) {
  DecodedFrame out;
  out.status = FrameStatus::kCorrupt;
  out.error_offset = offset;
  out.error = why;
  return out;
}

}  // namespace

std::string encode_frame(std::string_view tag, std::string_view body) {
  std::string out;
  out.reserve(tag.size() + kFrameFieldBytes + body.size());
  put_header(out, tag, body);
  out += body;
  return out;
}

DecodedFrame decode_frame(std::string_view buf, std::string_view tag,
                          std::uint64_t max_body) {
  for (std::size_t i = 0; i < tag.size() && i < buf.size(); ++i) {
    if (buf[i] != tag[i]) {
      return corrupt(i, tag.size() > 1 && i + 1 == tag.size()
                            ? "unsupported format version"
                            : "bad tag");
    }
  }
  const std::size_t len_at = tag.size();
  if (buf.size() < len_at + 4) {
    return {};
  }
  const std::uint32_t len = get_u32le(buf.data() + len_at);
  if (len > max_body) {
    return corrupt(len_at, "body length above the bound");
  }
  const std::size_t header = len_at + kFrameFieldBytes;
  if (buf.size() < header || buf.size() - header < len) {
    return {};
  }
  const std::string_view body = buf.substr(header, len);
  if (crc32c(body, crc32c(tag)) != get_u32le(buf.data() + len_at + 4)) {
    return corrupt(len_at + 4, "CRC mismatch");
  }
  DecodedFrame out;
  out.status = FrameStatus::kDone;
  out.consumed = header + len;
  out.body = body;
  return out;
}

void write_frame(std::ostream& out, std::string_view tag,
                 std::string_view body) {
  std::string header;
  put_header(header, tag, body);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

DecodedFrame decode_exact_frame(std::string_view buf, std::string_view tag,
                                std::uint64_t max_body) {
  const DecodedFrame frame = decode_frame(buf, tag, max_body);
  if (frame.status == FrameStatus::kNeedMore) {
    return corrupt(buf.size(), "truncated frame");
  }
  if (frame.status == FrameStatus::kDone && frame.consumed != buf.size()) {
    return corrupt(frame.consumed, "trailing bytes after the frame");
  }
  return frame;
}

std::string read_frame(std::istream& in, std::string_view tag,
                       std::uint64_t max_body, std::string_view what) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string data = std::move(buffer).str();
  const DecodedFrame frame = decode_exact_frame(data, tag, max_body);
  if (frame.status != FrameStatus::kDone) {
    throw SerializationError(std::string(what) + ": " + frame.error,
                             static_cast<std::int64_t>(frame.error_offset));
  }
  data.erase(0, data.size() - frame.body.size());
  return data;
}

}  // namespace ocep
