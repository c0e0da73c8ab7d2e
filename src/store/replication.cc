#include "store/replication.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/durable.h"
#include "common/error.h"
#include "common/frame.h"

namespace ocep::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMaxSegmentId = 1U << 20U;

/// Consumed bytes (> 0) with `body` set, 0 for short input, -1 corrupt.
std::int64_t try_decode(std::string_view buf, std::string_view tag,
                        std::string_view& body) {
  const DecodedFrame frame = decode_frame(buf, tag, kReplMaxFrameBytes);
  switch (frame.status) {
    case FrameStatus::kNeedMore:
      return 0;
    case FrameStatus::kCorrupt:
      return -1;
    case FrameStatus::kDone:
      break;
  }
  body = frame.body;
  return static_cast<std::int64_t>(frame.consumed);
}

/// Reads a segment id; 0 (never a valid id) when it is out of range.
std::uint32_t segment_id(ByteReader& reader) {
  const std::uint64_t id = reader.varint();
  return id == 0 || id > kMaxSegmentId ? 0 : static_cast<std::uint32_t>(id);
}

}  // namespace

std::string encode_repl_hello(const ReplHello& hello) {
  std::string body;
  put_varint(body, hello.proto);
  put_varint(body, hello.shard_index);
  put_varint(body, hello.shard_count);
  return encode_frame(kReplHelloMagic, body);
}

std::int64_t try_decode_repl_hello(std::string_view buf, ReplHello& out) {
  std::string_view body;
  const std::int64_t consumed = try_decode(buf, kReplHelloMagic, body);
  if (consumed <= 0) {
    return consumed;
  }
  ByteReader reader(body);
  out.proto = reader.varint();
  out.shard_index = reader.varint();
  out.shard_count = reader.varint();
  return reader.done() ? consumed : -1;
}

std::string encode_repl_state(const std::vector<ReplSegmentState>& segments) {
  std::string body;
  put_varint(body, segments.size());
  for (const ReplSegmentState& seg : segments) {
    put_varint(body, seg.id);
    put_varint(body, seg.bytes);
    put_varint(body, seg.crc);
  }
  return encode_frame(kReplStateMagic, body);
}

std::int64_t try_decode_repl_state(std::string_view buf,
                                   std::vector<ReplSegmentState>& out) {
  std::string_view body;
  const std::int64_t consumed = try_decode(buf, kReplStateMagic, body);
  if (consumed <= 0) {
    return consumed;
  }
  ByteReader reader(body);
  const std::uint64_t count = reader.varint();
  if (!reader.ok() || count > kMaxSegmentId) {
    return -1;
  }
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t id = segment_id(reader);
    const std::uint64_t bytes = reader.varint();
    const std::uint64_t crc = reader.varint();
    if (!reader.ok() || id == 0 || crc > 0xffffffffULL) {
      return -1;
    }
    out.push_back({id, bytes, static_cast<std::uint32_t>(crc)});
  }
  return reader.done() ? consumed : -1;
}

std::string encode_repl_frame(ReplFrameType type, std::string_view payload) {
  const char tag = static_cast<char>(type);
  return encode_frame(std::string_view(&tag, 1), payload);
}

std::int64_t try_decode_repl_frame(std::string_view buf, ReplFrameType& type,
                                   std::string& payload) {
  if (buf.empty()) {
    return 0;
  }
  const char t = buf[0];
  if (t != 'R' && t != 'S' && t != 'A' && t != 'C' && t != 'D' && t != 'K') {
    return -1;
  }
  std::string_view body;
  const std::int64_t consumed = try_decode(buf, buf.substr(0, 1), body);
  if (consumed > 0) {
    type = static_cast<ReplFrameType>(t);
    payload.assign(body);
  }
  return consumed;
}

std::string encode_repl_open(std::uint32_t id) {
  std::string payload;
  put_varint(payload, id);
  return encode_repl_frame(ReplFrameType::kOpenSegment, payload);
}

bool decode_repl_open(std::string_view payload, std::uint32_t& id) {
  ByteReader reader(payload);
  id = segment_id(reader);
  return reader.done() && id != 0;
}

std::string encode_repl_append(std::uint32_t id, std::uint64_t offset,
                               std::string_view bytes) {
  std::string payload;
  payload.reserve(12 + bytes.size());
  put_varint(payload, id);
  put_varint(payload, offset);
  payload += bytes;
  return encode_repl_frame(ReplFrameType::kAppend, payload);
}

bool decode_repl_append(std::string_view payload, std::uint32_t& id,
                        std::uint64_t& offset, std::string_view& bytes) {
  ByteReader reader(payload);
  id = segment_id(reader);
  offset = reader.varint();
  bytes = reader.rest();
  return reader.ok() && id != 0 && !bytes.empty();
}

std::string encode_repl_commit(std::uint64_t seq) {
  std::string payload;
  put_varint(payload, seq);
  return encode_repl_frame(ReplFrameType::kCommit, payload);
}

bool decode_repl_commit(std::string_view payload, std::uint64_t& seq) {
  ByteReader reader(payload);
  seq = reader.varint();
  return reader.done();
}

std::string encode_repl_drop(std::uint32_t id) {
  std::string payload;
  put_varint(payload, id);
  return encode_repl_frame(ReplFrameType::kDrop, payload);
}

bool decode_repl_drop(std::string_view payload, std::uint32_t& id) {
  return decode_repl_open(payload, id);
}

std::string encode_repl_ack(const ReplAck& ack) {
  std::string payload;
  put_varint(payload, ack.seq);
  put_varint(payload, ack.segment);
  put_varint(payload, ack.offset);
  put_varint(payload, ack.records);
  return encode_repl_frame(ReplFrameType::kAck, payload);
}

bool decode_repl_ack(std::string_view payload, ReplAck& out) {
  ByteReader reader(payload);
  out.seq = reader.varint();
  const std::uint64_t segment = reader.varint();
  out.offset = reader.varint();
  out.records = reader.varint();
  if (!reader.done() || segment > kMaxSegmentId) {
    return false;
  }
  out.segment = static_cast<std::uint32_t>(segment);
  return true;
}

std::uint64_t count_record_frames(std::string& pending,
                                  std::string_view chunk) {
  std::string_view data;
  const bool merged = !pending.empty();
  if (merged) {
    pending.append(chunk.data(), chunk.size());
    data = pending;
  } else {
    data = chunk;
  }
  // Record frames carry an empty tag, so each starts with its body
  // length; counting needs only the lengths.
  std::uint64_t count = 0;
  std::uint64_t pos = 0;
  while (data.size() - pos >= 4) {
    const std::uint64_t len = get_u32le(data.data() + pos);
    if (len == 0 || len > kMaxRecordBytes) {
      // Not a record boundary — the stream is damaged; stop counting
      // rather than buffering unbounded garbage.  Disk CRCs catch the
      // damage; the count only feeds a lag gauge.
      pending.clear();
      return count;
    }
    if (data.size() - pos < kFrameFieldBytes + len) {
      break;
    }
    count += 1;
    pos += kFrameFieldBytes + len;
  }
  if (merged) {
    pending.erase(0, pos);
  } else {
    pending.assign(chunk.substr(pos));
  }
  return count;
}

// --- ReplicaLog --------------------------------------------------------

ReplicaLog::ReplicaLog(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw StoreError("cannot create replica directory: " + ec.message(),
                     dir_, -1);
  }
  open_existing();
}

ReplicaLog::~ReplicaLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string ReplicaLog::segment_path(std::uint32_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.log", id);
  return dir_ + "/" + name;
}

void ReplicaLog::write_manifest() {
  const std::string path = dir_ + "/manifest";
  if (ids_.empty()) {
    ::unlink(path.c_str());
    fsync_path(dir_);
    return;
  }
  // next id mirrors the primary's invariant: always max(ids) + 1, so the
  // manifest bytes match the primary's for the same segment set.
  if (!write_file_durable(path,
                          encode_manifest_file(ids_, ids_.back() + 1))) {
    throw StoreError("replica manifest write failed", path, -1);
  }
}

void ReplicaLog::wipe() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink((dir_ + "/manifest").c_str());
  ::unlink((dir_ + "/manifest.tmp").c_str());
  fsync_path(dir_);
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (ec || !entry.is_regular_file()) {
      continue;
    }
    if (parse_segment_file_name(entry.path().filename().string()) != 0) {
      ::unlink(entry.path().string().c_str());
    }
  }
  fsync_path(dir_);
  ids_.clear();
  size_ = 0;
  dirty_ = false;
  pending_.clear();
}

void ReplicaLog::open_active_fd() {
  const std::string path = segment_path(ids_.back());
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw StoreError("cannot open replica segment for append", path, -1);
  }
  std::error_code ec;
  size_ = static_cast<std::uint64_t>(fs::file_size(path, ec));
  if (ec) {
    throw StoreError("cannot stat replica segment", path, -1);
  }
  dirty_ = false;
  pending_.clear();
}

void ReplicaLog::seal_active() {
  if (fd_ < 0) {
    return;
  }
  // Seal durably before the successor exists, so a crash can only tear
  // the *last* segment — the one open() knows how to truncate.
  if (dirty_ && ::fdatasync(fd_) != 0) {
    throw StoreError("replica seal fdatasync failed",
                     segment_path(ids_.back()), -1);
  }
  ::close(fd_);
  fd_ = -1;
  dirty_ = false;
}

void ReplicaLog::open_existing() {
  std::string manifest;
  if (!read_whole_file(dir_ + "/manifest", manifest)) {
    // No manifest: a fresh replica, or a crash mid-reset.  Either way
    // segment files are dead bytes under manifest-is-truth.
    wipe();
    return;
  }
  std::uint32_t next_id = 0;
  if (DecodeError error; !decode_manifest_file(manifest, ids_, next_id,
                                               error)) {
    wipe();  // local damage; the primary will drive a full resync
    return;
  }
  ::unlink((dir_ + "/manifest.tmp").c_str());
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (ec || !entry.is_regular_file()) {
      continue;
    }
    const std::uint32_t id =
        parse_segment_file_name(entry.path().filename().string());
    if (id != 0 &&
        std::find(ids_.begin(), ids_.end(), id) == ids_.end()) {
      ::unlink(entry.path().string().c_str());
    }
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::string path = segment_path(ids_[i]);
    std::string data;
    DecodeError error;
    if (!read_whole_file(path, data) ||
        !check_segment_header(data, ids_[i], error)) {
      wipe();
      return;
    }
    if (i + 1 == ids_.size()) {
      // Truncate the torn tail of the active segment back to the last
      // whole record frame; the primary resumes from exactly there.
      std::uint64_t offset = kSegmentHeaderBytes;
      Record scratch;
      while (offset < data.size()) {
        const std::uint64_t frame = try_parse_frame(data, offset, scratch);
        if (frame == 0) {
          break;
        }
        offset += frame;
      }
      if (offset < data.size()) {
        stats_.torn_tail_bytes += data.size() - offset;
        if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
          throw StoreError("replica torn-tail truncate failed", path,
                           static_cast<std::int64_t>(offset));
        }
        fsync_path(path);
      }
    }
  }
  open_active_fd();
}

std::vector<ReplSegmentState> ReplicaLog::state() const {
  std::vector<ReplSegmentState> out;
  out.reserve(ids_.size());
  for (const std::uint32_t id : ids_) {
    std::string data;
    if (!read_whole_file(segment_path(id), data)) {
      throw StoreError("replica segment unreadable", segment_path(id), -1);
    }
    out.push_back({id, data.size(), crc32c(data)});
  }
  return out;
}

void ReplicaLog::reset() {
  wipe();
  stats_.resets += 1;
}

void ReplicaLog::open_segment(std::uint32_t id) {
  if (!ids_.empty() && id <= ids_.back()) {
    throw StoreError("replica open_segment out of order", segment_path(id),
                     -1);
  }
  seal_active();
  const std::string path = segment_path(id);
  fd_ = ::open(path.c_str(),
               O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw StoreError("cannot create replica segment: " +
                         std::string(std::strerror(errno)),
                     path, -1);
  }
  const std::string header = encode_segment_header(id);
  std::size_t written = 0;
  while (written < header.size()) {
    const ssize_t n =
        ::write(fd_, header.data() + written, header.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw StoreError("replica segment header write failed", path, -1);
    }
    written += static_cast<std::size_t>(n);
  }
  // Header durable before the manifest names the segment — the same
  // rotation contract as the primary's SegmentLog.
  if (::fsync(fd_) != 0) {
    throw StoreError("replica segment header fsync failed", path, -1);
  }
  fsync_path(dir_);
  ids_.push_back(id);
  write_manifest();
  size_ = kSegmentHeaderBytes;
  dirty_ = false;
  pending_.clear();
}

void ReplicaLog::append(std::uint32_t id, std::uint64_t offset,
                        std::string_view bytes) {
  if (ids_.empty() || id != ids_.back() || fd_ < 0) {
    throw StoreError("replica append to non-active segment",
                     segment_path(id), -1);
  }
  if (offset != size_) {
    throw StoreError("replica append offset mismatch (have " +
                         std::to_string(size_) + ", got " +
                         std::to_string(offset) + ")",
                     segment_path(id), static_cast<std::int64_t>(offset));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw StoreError("replica append write failed", segment_path(id),
                       static_cast<std::int64_t>(size_));
    }
    written += static_cast<std::size_t>(n);
  }
  size_ += bytes.size();
  dirty_ = true;
  records_applied_ += count_record_frames(pending_, bytes);
  stats_.appends += 1;
  stats_.bytes_appended += bytes.size();
}

void ReplicaLog::drop_segment(std::uint32_t id) {
  const auto pos = std::find(ids_.begin(), ids_.end(), id);
  if (pos == ids_.end()) {
    throw StoreError("replica drop of unknown segment", segment_path(id), -1);
  }
  const bool was_active = id == ids_.back();
  if (was_active && fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ids_.erase(pos);
  write_manifest();
  ::unlink(segment_path(id).c_str());
  fsync_path(dir_);
  if (was_active) {
    size_ = 0;
    pending_.clear();
    if (!ids_.empty()) {
      open_active_fd();
    }
  }
}

void ReplicaLog::commit() {
  if (fd_ >= 0 && dirty_) {
    if (::fdatasync(fd_) != 0) {
      throw StoreError("replica commit fdatasync failed",
                       segment_path(ids_.back()), -1);
    }
    dirty_ = false;
  }
  stats_.commits += 1;
}

// --- compare_store_dirs ------------------------------------------------

namespace {

/// Log directories under a store root, keyed by a stable name.  A root
/// that is itself a log (has a manifest) maps to the single key ".".
std::vector<std::pair<std::string, std::string>> log_dirs(
    const std::string& root) {
  std::vector<std::pair<std::string, std::string>> out;
  std::error_code ec;
  if (fs::exists(root + "/manifest", ec)) {
    out.emplace_back(".", root);
    return out;
  }
  if (!fs::is_directory(root, ec)) {
    return out;
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (ec || !entry.is_directory()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) == 0) {
      out.emplace_back(name, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void compare_logs(const std::string& dir_a, const std::string& dir_b,
                  CompareReport& report) {
  report.logs += 1;
  auto load = [&report](const std::string& dir,
                        std::vector<std::uint32_t>& ids) {
    std::string manifest;
    if (!read_whole_file(dir + "/manifest", manifest)) {
      return true;  // empty store: vacuously a prefix of anything
    }
    std::uint32_t next_id = 0;
    if (DecodeError error; !decode_manifest_file(manifest, ids, next_id,
                                                 error)) {
      report.issues.push_back(
          {dir + "/manifest", "manifest: " + error.message});
      return false;
    }
    return true;
  };
  std::vector<std::uint32_t> ids_a;
  std::vector<std::uint32_t> ids_b;
  if (!load(dir_a, ids_a) || !load(dir_b, ids_b)) {
    return;
  }
  for (const std::uint32_t id : ids_a) {
    if (std::find(ids_b.begin(), ids_b.end(), id) == ids_b.end()) {
      continue;  // lag or compaction skew, not divergence
    }
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%08u.log", id);
    const std::string path_a = dir_a + "/" + name;
    const std::string path_b = dir_b + "/" + name;
    std::string data_a;
    std::string data_b;
    if (!read_whole_file(path_a, data_a)) {
      report.issues.push_back({path_a, "segment named by manifest missing"});
      continue;
    }
    if (!read_whole_file(path_b, data_b)) {
      report.issues.push_back({path_b, "segment named by manifest missing"});
      continue;
    }
    const std::size_t common = std::min(data_a.size(), data_b.size());
    report.segments += 1;
    report.bytes_compared += common;
    if (std::memcmp(data_a.data(), data_b.data(), common) != 0) {
      std::size_t at = 0;
      while (at < common && data_a[at] == data_b[at]) {
        ++at;
      }
      report.issues.push_back(
          {path_a, "diverges from " + path_b + " at byte " +
                       std::to_string(at)});
    }
  }
}

}  // namespace

CompareReport compare_store_dirs(const std::string& a, const std::string& b) {
  CompareReport report;
  std::error_code ec;
  if (!fs::exists(a, ec)) {
    report.issues.push_back({a, "store root missing"});
    return report;
  }
  if (!fs::exists(b, ec)) {
    report.issues.push_back({b, "store root missing"});
    return report;
  }
  const auto dirs_a = log_dirs(a);
  const auto dirs_b = log_dirs(b);
  for (const auto& [name, dir_a] : dirs_a) {
    for (const auto& [name_b, dir_b] : dirs_b) {
      if (name == name_b) {
        compare_logs(dir_a, dir_b, report);
      }
    }
  }
  return report;
}

}  // namespace ocep::store
