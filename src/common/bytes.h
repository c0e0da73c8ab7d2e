// Byte helpers shared by every binary format that lives in a std::string:
// little-endian u32, LEB128 varints, varint-length-prefixed byte strings,
// and one bounded reader.  Header-only and inline: the session codec runs
// these on every event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ocep {

inline void put_u32le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xffU));
  out.push_back(static_cast<char>((value >> 8U) & 0xffU));
  out.push_back(static_cast<char>((value >> 16U) & 0xffU));
  out.push_back(static_cast<char>((value >> 24U) & 0xffU));
}

/// The u32 stored little-endian at `bytes[0..4)`; the caller has checked
/// that four bytes are there.
[[nodiscard]] inline std::uint32_t get_u32le(const char* bytes) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1]))
          << 8U) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
          << 16U) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
          << 24U);
}

inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7fU) | 0x80U));
    value >>= 7U;
  }
  out.push_back(static_cast<char>(value));
}

/// Varint length, then the bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

/// Bounded reader over an in-memory buffer.  A malformed or truncated read
/// poisons the reader: it and every later read return 0 or an empty view,
/// so a decoder reads all its fields and checks ok() once.  Views point
/// into the buffer and live as long as it does.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) noexcept : buf_(buf) {}

  std::uint64_t varint() noexcept {
    std::uint64_t value = 0;
    int shift = 0;
    while (state_ == State::kOk) {
      if (pos_ >= buf_.size()) {
        state_ = State::kShort;
        break;
      }
      if (shift >= 64) {
        state_ = State::kBad;
        break;
      }
      const auto c = static_cast<unsigned char>(buf_[pos_++]);
      value |= static_cast<std::uint64_t>(c & 0x7fU) << shift;
      if ((c & 0x80U) == 0) {
        return value;
      }
      shift += 7;
    }
    return 0;
  }

  std::uint8_t u8() noexcept {
    const std::string_view b = raw(1);
    return b.empty() ? 0 : static_cast<std::uint8_t>(b[0]);
  }

  /// A varint-length-prefixed byte string; the length is bounded by what
  /// is left of the buffer, never trusted beyond it.
  std::string_view str() noexcept { return raw(varint()); }

  /// Everything not read yet.
  std::string_view rest() noexcept { return raw(buf_.size() - pos_); }

  [[nodiscard]] bool ok() const noexcept { return state_ == State::kOk; }
  /// ok() with every byte consumed: the decoder found no trailing bytes.
  [[nodiscard]] bool done() const noexcept {
    return ok() && pos_ == buf_.size();
  }
  /// A read failed because the buffer ended first (more bytes might
  /// complete it), as opposed to malformed bytes such as an overlong
  /// varint.
  [[nodiscard]] bool short_input() const noexcept {
    return state_ == State::kShort;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  enum class State : std::uint8_t { kOk, kShort, kBad };

  std::string_view raw(std::uint64_t n) noexcept {
    if (state_ != State::kOk) {
      return {};
    }
    if (n > buf_.size() - pos_) {
      state_ = State::kShort;
      return {};
    }
    const std::string_view out = buf_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  State state_ = State::kOk;
};

}  // namespace ocep
