// The shared frame codec (common/frame.h) and byte helpers
// (common/bytes.h): round trips, incremental decoding, and corruption that
// must never decode as a valid frame.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/frame.h"
#include "common/rng.h"

namespace ocep {
namespace {

const std::vector<std::string> kTags = {"", "K", "OCEPTST1"};

std::string sample_body() {
  std::string body;
  put_varint(body, 300);
  put_string(body, "payload");
  body.push_back('\0');
  body += "\xff binary";
  return body;
}

TEST(FrameCodec, RoundTripsWithEmptyOneAndEightByteTags) {
  const std::string body = sample_body();
  for (const std::string& tag : kTags) {
    const std::string wire = encode_frame(tag, body);
    ASSERT_EQ(wire.size(), tag.size() + kFrameFieldBytes + body.size());
    const DecodedFrame frame = decode_frame(wire, tag, 1024);
    ASSERT_EQ(frame.status, FrameStatus::kDone) << "tag '" << tag << "'";
    EXPECT_EQ(frame.consumed, wire.size());
    EXPECT_EQ(frame.body, body);
    // The body is a view into the input, not a copy.
    EXPECT_EQ(frame.body.data(), wire.data() + tag.size() + kFrameFieldBytes);
  }
  // An empty tag leaves exactly len | crc32c(body) | body.
  std::string expected;
  put_u32le(expected, static_cast<std::uint32_t>(body.size()));
  put_u32le(expected, crc32c(body));
  expected += body;
  EXPECT_EQ(encode_frame({}, body), expected);
}

TEST(FrameCodec, EveryStrictPrefixNeedsMore) {
  const std::string body = sample_body();
  for (const std::string& tag : kTags) {
    const std::string wire = encode_frame(tag, body);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_EQ(decode_frame(wire.substr(0, cut), tag, 1024).status,
                FrameStatus::kNeedMore)
          << "tag '" << tag << "' cut " << cut;
    }
  }
}

TEST(FrameCodec, EverySingleBitFlipIsNeverDone) {
  const std::string body = sample_body();
  for (const std::string& tag : kTags) {
    const std::string wire = encode_frame(tag, body);
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = wire;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        const FrameStatus status = decode_frame(flipped, tag, 1024).status;
        EXPECT_NE(status, FrameStatus::kDone)
            << "tag '" << tag << "' byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(FrameCodec, WrongTagIsCorruptAtTheDifferingByte) {
  const std::string wire = encode_frame("OCEPTST1", "body");
  const DecodedFrame version = decode_frame(wire, "OCEPTST2", 1024);
  EXPECT_EQ(version.status, FrameStatus::kCorrupt);
  EXPECT_EQ(version.error_offset, 7U);
  EXPECT_STREQ(version.error, "unsupported format version");
  // Detected as soon as the differing byte arrives.
  const DecodedFrame early = decode_frame("OCX", "OCEPTST2", 1024);
  EXPECT_EQ(early.status, FrameStatus::kCorrupt);
  EXPECT_EQ(early.error_offset, 2U);
}

// Refused from the header alone, before any of the announced body is
// buffered; decode_frame returns only views into its input, so there is
// nothing for it to allocate.
TEST(FrameCodec, LengthAboveTheBoundIsCorruptAtTheLengthField) {
  for (const std::string& tag : kTags) {
    std::string header = tag;
    put_u32le(header, 0xfffffff0U);
    const DecodedFrame frame = decode_frame(header, tag, 1U << 20U);
    EXPECT_EQ(frame.status, FrameStatus::kCorrupt) << "tag '" << tag << "'";
    EXPECT_EQ(frame.error_offset, tag.size());
  }
  // At the bound exactly, the frame is merely incomplete.
  std::string header = "K";
  put_u32le(header, 16);
  EXPECT_EQ(decode_frame(header, "K", 16).status, FrameStatus::kNeedMore);
}

TEST(FrameCodec, BackToBackFramesAreConsumedOneAtATime) {
  const std::string wire = encode_frame("K", "first") + encode_frame("K", "") +
                           encode_frame("K", "third body");
  std::string_view rest = wire;
  std::vector<std::string> bodies;
  while (!rest.empty()) {
    const DecodedFrame frame = decode_frame(rest, "K", 1024);
    ASSERT_EQ(frame.status, FrameStatus::kDone);
    bodies.emplace_back(frame.body);
    rest.remove_prefix(frame.consumed);
  }
  EXPECT_EQ(bodies, (std::vector<std::string>{"first", "", "third body"}));
}

TEST(FrameCodec, RandomBuffersNeverDecodeUnlessTheCrcMatches) {
  Rng rng(20260101);
  int done = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string& tag = kTags[rng.below(kTags.size())];
    std::string buf;
    // Half the buffers start with the right tag and a small length, so
    // the CRC check is reached rather than the cheaper rejections.
    if (rng.below(2) == 0) {
      buf = tag;
      put_u32le(buf, static_cast<std::uint32_t>(rng.below(24)));
    }
    const std::uint64_t extra = rng.below(48);
    for (std::uint64_t b = 0; b < extra; ++b) {
      buf.push_back(static_cast<char>(rng.below(256)));
    }
    const DecodedFrame frame = decode_frame(buf, tag, 64);
    if (frame.status != FrameStatus::kDone) {
      continue;
    }
    ++done;
    ASSERT_EQ(std::string_view(buf).substr(0, tag.size()), tag);
    ASSERT_EQ(crc32c(frame.body, crc32c(tag)),
              get_u32le(buf.data() + tag.size() + 4));
  }
  // Random bytes match a 32-bit CRC about never; every success above was
  // checked all the same.
  EXPECT_LE(done, 1);
}

TEST(FrameCodec, ReadFrameTakesExactlyOneFrameFromAStream) {
  std::ostringstream out;
  write_frame(out, "OCEPTST1", "hello");
  const std::string wire = out.str();
  EXPECT_EQ(wire, encode_frame("OCEPTST1", "hello"));
  std::istringstream in(wire);
  EXPECT_EQ(read_frame(in, "OCEPTST1", 64, "test"), "hello");

  std::istringstream trailing(wire + "x");
  try {
    (void)read_frame(trailing, "OCEPTST1", 64, "test");
    FAIL() << "trailing bytes must be refused";
  } catch (const SerializationError& error) {
    EXPECT_EQ(error.byte_offset(), static_cast<std::int64_t>(wire.size()));
  }
  std::istringstream old_version(encode_frame("OCEPTST0", "hello"));
  try {
    (void)read_frame(old_version, "OCEPTST1", 64, "test");
    FAIL() << "an older version digit must be refused";
  } catch (const SerializationError& error) {
    EXPECT_EQ(error.byte_offset(), 7);
  }
}

TEST(ByteReader, PoisonsOnTheFirstBadReadAndTellsShortFromMalformed) {
  std::string buf;
  put_varint(buf, 1U << 20U);
  put_string(buf, "abc");
  buf.push_back('\x7f');
  put_u32le(buf, 0xdeadbeefU);
  ByteReader reader(buf);
  EXPECT_EQ(reader.varint(), 1U << 20U);
  EXPECT_EQ(reader.str(), "abc");
  EXPECT_EQ(reader.u8(), 0x7fU);
  EXPECT_EQ(get_u32le(reader.rest().data()), 0xdeadbeefU);
  EXPECT_TRUE(reader.done());

  // A string longer than what is left: short input, and poisoned.
  std::string lying;
  put_varint(lying, 1000);
  lying += "abc";
  ByteReader short_reader(lying);
  EXPECT_TRUE(short_reader.str().empty());
  EXPECT_TRUE(short_reader.short_input());
  EXPECT_EQ(short_reader.varint(), 0U);
  EXPECT_FALSE(short_reader.ok());

  // Eleven continuation bytes: malformed, not short.
  const std::string overlong = std::string(11, '\x80') + "\x01";
  ByteReader bad_reader(overlong);
  EXPECT_EQ(bad_reader.varint(), 0U);
  EXPECT_FALSE(bad_reader.ok());
  EXPECT_FALSE(bad_reader.short_input());
}

}  // namespace
}  // namespace ocep
