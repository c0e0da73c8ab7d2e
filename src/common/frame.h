// The one frame codec for every tagged, CRC-sealed structure: checkpoints,
// tenant images, the placement map, the segment log's manifest, segment
// header and records, and the handshake, control and replication frames
// on the wire.  (Session frames keep their own marker-resync layout,
// poet/session.h.)  One layout:
//
//   tag | u32le body_len | u32le crc32c(tag ‖ body) | body
//
// The tag is fixed per format and may be empty (segment-log records, whose
// bytes are then exactly `len | crc32c(body) | body`, since CRC-32C chained
// over an empty prefix is the identity).  An 8-byte tag is a magic whose
// last byte is the format's version digit; a format whose bytes change
// gets a new digit, and a reader refuses the old one at that byte.  The
// CRC covers the tag, so a flipped tag bit is a corrupt frame, never a
// valid frame of another type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace ocep {

/// The length and CRC fields between the tag and the body.
inline constexpr std::size_t kFrameFieldBytes = 8;

/// The largest body the length field can announce.
inline constexpr std::uint64_t kMaxFrameBody = 0xffffffffULL;

enum class FrameStatus : std::uint8_t {
  kDone,      ///< a whole, CRC-valid frame starts the buffer
  kNeedMore,  ///< a valid prefix of a frame; feed more bytes and retry
  kCorrupt,   ///< cannot become a valid frame, whatever follows
};

struct DecodedFrame {
  FrameStatus status = FrameStatus::kNeedMore;
  std::size_t consumed = 0;   ///< whole frame on kDone, else 0
  std::string_view body;      ///< on kDone, a view into the input
  std::size_t error_offset = 0;  ///< on kCorrupt, where in the input
  const char* error = "";        ///< on kCorrupt, why
};

/// One whole frame.  The body must fit the length field.
[[nodiscard]] std::string encode_frame(std::string_view tag,
                                       std::string_view body);

/// Decodes the frame at the start of `buf`, which may hold any prefix of
/// it (or more than it).  A body longer than `max_body` is corrupt at the
/// length field before any of it is buffered; a tag mismatch is corrupt
/// at its first differing byte as soon as that byte arrives.  Never
/// allocates.
[[nodiscard]] DecodedFrame decode_frame(std::string_view buf,
                                        std::string_view tag,
                                        std::uint64_t max_body);

/// decode_frame() for a buffer that must hold exactly one frame: a short
/// buffer, or bytes past the frame, is corrupt as well.
[[nodiscard]] DecodedFrame decode_exact_frame(std::string_view buf,
                                              std::string_view tag,
                                              std::uint64_t max_body);

/// Writes one frame to a stream, without copying the body.
void write_frame(std::ostream& out, std::string_view tag,
                 std::string_view body);

/// Reads `in` to its end, decodes it with decode_exact_frame() and
/// returns the body.  Memory grows with the bytes actually read, never
/// with the length field.  Throws SerializationError prefixed with `what`
/// and positioned at the offending byte.
[[nodiscard]] std::string read_frame(std::istream& in, std::string_view tag,
                                     std::uint64_t max_body,
                                     std::string_view what);

}  // namespace ocep
