#include "store/segment_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/error.h"
#include "common/frame.h"
#include "store/tenant_store.h"  // span payload codec, for verify_log

namespace ocep::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMaxSegments = 1U << 20U;
constexpr std::uint64_t kMaxNameBytes = 1024;

/// Fires `hook` (when set) at edge `phase` + `step`, e.g. "pre:append".
void fire(const CrashHook& hook, CrashEdge edge, const char* phase,
          std::string_view step) {
  if (hook) {
    hook(edge, std::string(phase).append(step));
  }
}

std::string manifest_tmp_path(const std::string& dir) {
  return manifest_path(dir) + ".tmp";
}

/// Serializes the record body (type | epoch | name | payload).
std::string encode_record_body(const Record& record) {
  std::string body;
  body.reserve(2 + 10 + record.name.size() + record.payload.size());
  body.push_back(static_cast<char>(record.type));
  put_varint(body, record.epoch);
  put_string(body, record.name);
  body += record.payload;
  return body;
}

/// Parses a record body; false on malformed input (bad type, short name).
bool decode_record_body(std::string_view body, Record& out) {
  ByteReader reader(body);
  const std::uint8_t type = reader.u8();
  const std::uint64_t epoch = reader.varint();
  const std::string_view name = reader.str();
  if (!reader.ok() ||
      type < static_cast<std::uint8_t>(RecordType::kGenesis) ||
      type > static_cast<std::uint8_t>(RecordType::kSpan) || name.empty() ||
      name.size() > kMaxNameBytes) {
    return false;
  }
  out.type = static_cast<RecordType>(type);
  out.epoch = epoch;
  out.name.assign(name);
  out.payload.assign(reader.rest());
  return true;
}

std::string encode_manifest_file(const std::vector<std::uint32_t>& ids,
                                 std::uint32_t next_id) {
  std::string body;
  put_varint(body, ids.size());
  for (const std::uint32_t id : ids) {
    put_varint(body, id);
  }
  put_varint(body, next_id);
  return encode_frame(kManifestMagic, body);
}

bool decode_manifest_file(std::string_view file,
                          std::vector<std::uint32_t>& ids,
                          std::uint32_t& next_id, DecodeError& error) {
  const DecodedFrame frame =
      decode_exact_frame(file, kManifestMagic, kMaxFrameBody);
  if (frame.status != FrameStatus::kDone) {
    error = {frame.error, static_cast<std::int64_t>(frame.error_offset)};
    return false;
  }
  const std::int64_t body_at =
      static_cast<std::int64_t>(file.size() - frame.body.size());
  ByteReader reader(frame.body);
  const std::uint64_t count = reader.varint();
  if (!reader.ok() || count == 0 || count > kMaxSegments) {
    error = {"implausible segment count", body_at};
    return false;
  }
  ids.clear();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = reader.varint();
    if (!reader.ok() || id == 0 || id <= prev || id > kMaxSegments) {
      error = {"segment ids not ascending", body_at};
      return false;
    }
    ids.push_back(static_cast<std::uint32_t>(id));
    prev = id;
  }
  const std::uint64_t next = reader.varint();
  if (!reader.done() || next <= prev) {
    error = {"bad next segment id", body_at};
    return false;
  }
  next_id = static_cast<std::uint32_t>(next);
  return true;
}

std::string encode_segment_header(std::uint32_t id) {
  std::string body;
  put_u32le(body, id);
  return encode_frame(kSegmentMagic, body);
}

/// seg-NNNNNNNN.log -> id, or 0 when the name does not match the scheme.
std::uint32_t parse_segment_file_name(const std::string& name) {
  if (name.size() != 16 || name.compare(0, 4, "seg-") != 0 ||
      name.compare(12, 4, ".log") != 0) {
    return 0;
  }
  std::uint32_t id = 0;
  for (std::size_t i = 4; i < 12; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      return 0;
    }
    id = id * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return id;
}

/// Ids of the seg-NNNNNNNN.log regular files in `dir`, ascending.
std::vector<std::uint32_t> list_segment_files(const std::string& dir) {
  std::vector<std::uint32_t> ids;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return ids;
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec || !entry.is_regular_file()) {
      continue;
    }
    if (const std::uint32_t id =
            parse_segment_file_name(entry.path().filename().string());
        id != 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Attempts to parse one record frame at `offset` of `data`.  Returns the
/// frame size (header + body) and fills `out` on success; 0 when the
/// bytes do not form a valid record.
std::uint64_t try_parse_frame(std::string_view data, std::uint64_t offset,
                              Record& out) {
  if (offset > data.size()) {
    return 0;
  }
  const DecodedFrame frame =
      decode_frame(data.substr(offset), {}, kMaxRecordBytes);
  if (frame.status != FrameStatus::kDone ||
      !decode_record_body(frame.body, out)) {
    return 0;
  }
  return frame.consumed;
}

/// Reads exactly `size` bytes of `path` at `offset` (pread, retrying
/// EINTR).  Throws StoreError at the first byte it could not read.
std::string read_exact(const std::string& path, std::uint64_t offset,
                       std::uint64_t size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError("cannot open segment for read", path,
                     static_cast<std::int64_t>(offset));
  }
  std::string out(static_cast<std::size_t>(size), '\0');
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      ::close(fd);
      throw StoreError("short read of segment", path,
                       static_cast<std::int64_t>(offset + got));
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return out;
}

}  // namespace

// --- the segment-directory format ---------------------------------------

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest";
}

std::string segment_path(const std::string& dir, std::uint32_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.log", id);
  return dir + "/" + name;
}

FileStatus read_manifest(const std::string& dir,
                         std::vector<std::uint32_t>& ids,
                         std::uint32_t& next_id, DecodeError& error) {
  ids.clear();
  std::string file;
  if (!read_whole_file(manifest_path(dir), file)) {
    return FileStatus::kMissing;
  }
  if (!decode_manifest_file(file, ids, next_id, error)) {
    ids.clear();
    return FileStatus::kCorrupt;
  }
  return FileStatus::kOk;
}

void write_manifest(const std::string& dir,
                    const std::vector<std::uint32_t>& ids,
                    std::uint32_t next_id, const CrashHook& hook) {
  const std::string path = manifest_path(dir);
  const std::string tmp = manifest_tmp_path(dir);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw StoreError("manifest: cannot open tmp: " +
                         std::string(std::strerror(errno)),
                     tmp, -1);
  }
  try {
    write_fully(fd, encode_manifest_file(ids, next_id), tmp, "manifest",
                hook);
    fire(hook, CrashEdge::kSync, "pre:", "manifest");
    if (::fsync(fd) != 0) {
      throw StoreError("manifest: fsync failed", tmp, -1);
    }
    fire(hook, CrashEdge::kSync, "post:", "manifest");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  fire(hook, CrashEdge::kRename, "pre:", "manifest");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw StoreError("manifest: rename failed: " +
                         std::string(std::strerror(errno)),
                     path, -1);
  }
  fire(hook, CrashEdge::kRename, "post:", "manifest");
  fire(hook, CrashEdge::kSync, "pre:", "manifest-dir");
  fsync_path(dir);
  fire(hook, CrashEdge::kSync, "post:", "manifest-dir");
}

void remove_stale_files(const std::string& dir,
                        const std::vector<std::uint32_t>& ids) {
  for (const std::uint32_t id : list_segment_files(dir)) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ::unlink(segment_path(dir, id).c_str());
    }
  }
  ::unlink(manifest_tmp_path(dir).c_str());
}

int create_segment(const std::string& dir, std::uint32_t id,
                   const CrashHook& hook) {
  const std::string path = segment_path(dir, id);
  const int fd = ::open(
      path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw StoreError("cannot create segment: " +
                         std::string(std::strerror(errno)),
                     path, -1);
  }
  try {
    write_fully(fd, encode_segment_header(id), path, "segment-header", hook);
    // The header must be durable before a manifest can name the segment:
    // "a manifest-listed segment always has a valid header".
    fire(hook, CrashEdge::kSync, "pre:", "segment-create");
    if (::fsync(fd) != 0) {
      throw StoreError("segment header fsync failed", path, -1);
    }
    fsync_path(dir);
    fire(hook, CrashEdge::kSync, "post:", "segment-create");
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

int reopen_segment(const std::string& dir, std::uint32_t id) {
  const std::string path = segment_path(dir, id);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError("cannot reopen segment for append", path, -1);
  }
  return fd;
}

FileStatus read_segment(const std::string& dir, std::uint32_t id,
                        std::string& data, DecodeError& error) {
  if (!read_whole_file(segment_path(dir, id), data)) {
    return FileStatus::kMissing;
  }
  const DecodedFrame frame = decode_frame(data, kSegmentMagic, 4);
  if (frame.status == FrameStatus::kCorrupt) {
    error = {frame.error, static_cast<std::int64_t>(frame.error_offset)};
    return FileStatus::kCorrupt;
  }
  if (frame.status == FrameStatus::kNeedMore || frame.body.size() != 4 ||
      get_u32le(frame.body.data()) != id) {
    error = {"bad segment header", 0};
    return FileStatus::kCorrupt;
  }
  return FileStatus::kOk;
}

FrameWalk walk_frames(std::uint32_t id, std::string_view data,
                      const SegmentLog::ScanCallback& visit) {
  FrameWalk walk{kSegmentHeaderBytes, false};
  Record record;
  while (walk.end < data.size()) {
    const std::uint64_t frame = try_parse_frame(data, walk.end, record);
    if (frame == 0) {
      break;
    }
    if (visit) {
      visit(record, RecordRef{id, walk.end, frame});
    }
    walk.end += frame;
  }
  // Any parseable record past the stop tells mid-log damage (records
  // would vanish silently) from a torn tail (garbage to end of file).
  for (std::uint64_t p = walk.end;
       !walk.valid_after && p + kFrameFieldBytes + 1 <= data.size(); ++p) {
    walk.valid_after = try_parse_frame(data, p, record) != 0;
  }
  return walk;
}

void truncate_segment(const std::string& dir, std::uint32_t id,
                      std::uint64_t size) {
  const std::string path = segment_path(dir, id);
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    throw StoreError("torn-tail truncate failed", path,
                     static_cast<std::int64_t>(size));
  }
  fsync_path(path);
}

void write_fully(int fd, std::string_view bytes, const std::string& file,
                 const char* step, const CrashHook& hook) {
  fire(hook, CrashEdge::kWrite, "pre:", step);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw StoreError(std::string(step) + ": write failed: " +
                           std::strerror(errno),
                       file, -1);
    }
    written += static_cast<std::size_t>(n);
  }
  fire(hook, CrashEdge::kWrite, "post:", step);
}

void sync_segment(int fd, const std::string& file, const CrashHook& hook) {
  fire(hook, CrashEdge::kSync, "pre:", "segment");
  if (::fdatasync(fd) != 0) {
    throw StoreError("segment fdatasync failed", file, -1);
  }
  fire(hook, CrashEdge::kSync, "post:", "segment");
}

// --- SegmentLog -----------------------------------------------------------

SegmentLog::SegmentLog(LogConfig config, const ScanCallback& on_scan)
    : config_(std::move(config)) {
  if (config_.segment_bytes < kSegmentHeaderBytes + 16) {
    config_.segment_bytes = kSegmentHeaderBytes + 16;
  }
  if (!config_.read_only) {
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec) {
      throw StoreError("cannot create store directory: " + ec.message(),
                       config_.dir, -1);
    }
  }
  open_or_create();
  for (std::size_t i = 0; i < segment_ids_.size(); ++i) {
    scan_segment(segment_ids_[i], i + 1 == segment_ids_.size(), on_scan);
  }
  stats_.segments = segment_ids_.size();
}

SegmentLog::~SegmentLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void SegmentLog::begin_segment(int fd) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
  write_offset_ = kSegmentHeaderBytes;
  synced_offset_ = kSegmentHeaderBytes;
  dirty_ = false;
}

void SegmentLog::open_or_create() {
  DecodeError error;
  switch (read_manifest(config_.dir, segment_ids_, next_segment_id_, error)) {
    case FileStatus::kOk:
      if (!config_.read_only) {
        // Orphans — a segment created whose manifest write never landed,
        // or one a crashed compaction dropped from the manifest but could
        // not unlink — are dead by the manifest-is-truth rule.
        remove_stale_files(config_.dir, segment_ids_);
      }
      return;
    case FileStatus::kCorrupt:
      throw StoreError("manifest: " + error.message,
                       manifest_path(config_.dir), error.offset);
    case FileStatus::kMissing:
      break;
  }
  // No manifest.  A fresh directory, or a crash before the very first
  // manifest write — in which case every segment present must still be
  // empty (record appends only start once the manifest exists).
  for (const std::uint32_t id : list_segment_files(config_.dir)) {
    const std::string path = segment_path(config_.dir, id);
    std::error_code ec;
    if (fs::file_size(path, ec) > kSegmentHeaderBytes) {
      throw StoreError("segments present without a manifest", path, -1);
    }
  }
  if (config_.read_only) {
    return;  // an empty (or not-yet-created) store
  }
  remove_stale_files(config_.dir, {});
  begin_segment(create_segment(config_.dir, 1, config_.crash_hook));
  segment_ids_ = {1};
  next_segment_id_ = 2;
  write_manifest(config_.dir, segment_ids_, next_segment_id_,
                 config_.crash_hook);
}

void SegmentLog::scan_segment(std::uint32_t id, bool last,
                              const ScanCallback& on_scan) {
  const std::string path = segment_path(config_.dir, id);
  std::string data;
  DecodeError error;
  switch (read_segment(config_.dir, id, data, error)) {
    case FileStatus::kOk:
      break;
    case FileStatus::kMissing:
      throw StoreError("segment named by manifest is missing", path, -1);
    case FileStatus::kCorrupt:
      // Rotation fsyncs the header before the manifest names the
      // segment, so a bad header is disk corruption, never a torn write.
      throw StoreError("segment header: " + error.message, path,
                       error.offset);
  }
  const auto index = [this, &on_scan](const Record& record,
                                      const RecordRef& ref) {
    live_bytes_[ref.segment] += ref.frame_bytes;
    stats_.records += 1;
    stats_.live_bytes += ref.frame_bytes;
    stats_.total_bytes += ref.frame_bytes;
    if (on_scan) {
      on_scan(record, ref);
    }
  };
  const FrameWalk walk = walk_frames(id, data, index);
  if (walk.end < data.size()) {
    if (!last || walk.valid_after) {
      throw StoreError("corrupt record", path,
                       static_cast<std::int64_t>(walk.end));
    }
    // Torn tail: an append (or its tail) that never completed before the
    // crash.  Discard — the loss is bounded by the group-commit interval
    // — and reclaim the bytes so appends restart cleanly.
    stats_.torn_tail_bytes += data.size() - walk.end;
    if (!config_.read_only) {
      truncate_segment(config_.dir, id, walk.end);
    }
  }
  if (last && !config_.read_only) {
    fd_ = reopen_segment(config_.dir, id);
    write_offset_ = walk.end;
    synced_offset_ = walk.end;
    dirty_ = false;
  }
}

RecordRef SegmentLog::append(const Record& record) {
  if (config_.read_only || fd_ < 0) {
    throw StoreError("append to a read-only store", config_.dir, -1);
  }
  const std::string body = encode_record_body(record);
  if (body.size() > kMaxRecordBytes) {
    throw StoreError("record exceeds the 1 GiB frame bound", config_.dir, -1);
  }
  const std::string frame = encode_frame({}, body);
  const RecordRef ref{segment_ids_.back(), write_offset_, frame.size()};
  try {
    write_fully(fd_, frame, config_.dir, "append", config_.crash_hook);
  } catch (...) {
    // Make a failed append atomic so the caller may retry on the next
    // flush tick (disk-fault degradation): drop any partial frame tail.
    static_cast<void>(::ftruncate(fd_, static_cast<off_t>(write_offset_)));
    throw;
  }
  write_offset_ += frame.size();
  dirty_ = true;
  live_bytes_[ref.segment] += frame.size();
  stats_.appends += 1;
  stats_.records += 1;
  stats_.live_bytes += frame.size();
  stats_.total_bytes += frame.size();
  if (write_offset_ >= config_.segment_bytes) {
    rotate();
  }
  return ref;
}

void SegmentLog::rotate() {
  // Seal the full segment durably, then create + fsync the successor
  // BEFORE the manifest names it: a crash at any edge leaves either the
  // old manifest (orphan empty successor, cleaned at open) or the new
  // one (empty last segment, valid).  Appends move only after both; a
  // failure before that keeps them on the old segment, and the next
  // append retries the rotation.
  sync();
  const std::uint32_t id = next_segment_id_;
  const int fd = create_segment(config_.dir, id, config_.crash_hook);
  segment_ids_.push_back(id);
  try {
    write_manifest(config_.dir, segment_ids_, id + 1, config_.crash_hook);
  } catch (...) {
    segment_ids_.pop_back();
    ::close(fd);
    throw;
  }
  begin_segment(fd);
  next_segment_id_ = id + 1;
  stats_.rotations += 1;
  stats_.segments = segment_ids_.size();
}

void SegmentLog::sync() {
  if (!dirty_ || fd_ < 0) {
    return;
  }
  sync_segment(fd_, config_.dir, config_.crash_hook);
  synced_offset_ = write_offset_;
  dirty_ = false;
  stats_.syncs += 1;
}

void SegmentLog::mark_dead(const RecordRef& ref) {
  stats_.records -= stats_.records == 0 ? 0 : 1;
  stats_.live_bytes -= std::min(stats_.live_bytes, ref.frame_bytes);
  const auto it = live_bytes_.find(ref.segment);
  if (it == live_bytes_.end()) {
    return;
  }
  it->second -= std::min(it->second, ref.frame_bytes);
  if (config_.read_only || it->second != 0 || segment_ids_.empty() ||
      ref.segment == segment_ids_.back()) {
    return;
  }
  // Fully-dead sealed segment: drop it from the manifest durably first,
  // then unlink.  A crash in between leaves an orphan file, which the
  // next open deletes under the manifest-is-truth rule.
  const auto pos =
      std::find(segment_ids_.begin(), segment_ids_.end(), ref.segment);
  if (pos == segment_ids_.end()) {
    return;
  }
  segment_ids_.erase(pos);
  write_manifest(config_.dir, segment_ids_, next_segment_id_,
                 config_.crash_hook);
  ::unlink(segment_path(config_.dir, ref.segment).c_str());
  fsync_path(config_.dir);
  live_bytes_.erase(it);
  stats_.segments_deleted += 1;
  stats_.segments = segment_ids_.size();
}

std::uint64_t SegmentLog::durable_size(std::uint32_t id) const {
  if (fd_ >= 0 && id == segment_ids_.back()) {
    return synced_offset_;
  }
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(segment_path(config_.dir, id), ec);
  if (ec) {
    throw StoreError("cannot stat segment: " + ec.message(),
                     segment_path(config_.dir, id), -1);
  }
  return static_cast<std::uint64_t>(size);
}

std::vector<SegmentView> SegmentLog::segments() const {
  std::vector<SegmentView> views;
  views.reserve(segment_ids_.size());
  for (const std::uint32_t id : segment_ids_) {
    views.push_back({id, durable_size(id)});
  }
  return views;
}

std::vector<SegmentUsage> SegmentLog::segment_usage() const {
  const std::vector<SegmentView> views = segments();
  std::vector<SegmentUsage> usage;
  usage.reserve(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    SegmentUsage entry;
    entry.id = views[i].id;
    entry.bytes = views[i].bytes > kSegmentHeaderBytes
                      ? views[i].bytes - kSegmentHeaderBytes
                      : 0;
    if (const auto it = live_bytes_.find(entry.id); it != live_bytes_.end()) {
      entry.live_bytes = it->second;
    }
    entry.sealed = i + 1 != views.size();
    usage.push_back(entry);
  }
  return usage;
}

std::string SegmentLog::read_range(std::uint32_t id, std::uint64_t offset,
                                   std::uint64_t max_bytes) const {
  if (std::find(segment_ids_.begin(), segment_ids_.end(), id) ==
      segment_ids_.end()) {
    throw StoreError("read_range of unknown segment",
                     segment_path(config_.dir, id), -1);
  }
  const std::uint64_t end = durable_size(id);
  if (offset >= end || max_bytes == 0) {
    return {};
  }
  return read_exact(segment_path(config_.dir, id), offset,
                    std::min(max_bytes, end - offset));
}

std::string SegmentLog::read_payload(const RecordRef& ref) const {
  const std::string path = segment_path(config_.dir, ref.segment);
  const std::string frame = read_exact(path, ref.offset, ref.frame_bytes);
  Record record;
  if (try_parse_frame(frame, 0, record) != ref.frame_bytes) {
    throw StoreError("stored record failed re-read CRC", path,
                     static_cast<std::int64_t>(ref.offset));
  }
  return std::move(record.payload);
}

VerifyReport verify_log(const std::string& dir) {
  VerifyReport report;
  std::vector<std::uint32_t> ids;
  std::uint32_t next_id = 0;
  DecodeError error;
  const std::vector<std::uint32_t> present = list_segment_files(dir);
  switch (read_manifest(dir, ids, next_id, error)) {
    case FileStatus::kOk:
      break;
    case FileStatus::kMissing:
      for (const std::uint32_t id : present) {
        const std::string path = segment_path(dir, id);
        std::error_code ec;
        if (fs::file_size(path, ec) > kSegmentHeaderBytes) {
          report.issues.push_back(
              {path, -1, "segment has records but no manifest exists", true});
        }
      }
      return report;  // an empty / never-created store is fine
    case FileStatus::kCorrupt:
      report.issues.push_back({manifest_path(dir), error.offset,
                               "manifest: " + error.message, true});
      return report;
  }
  report.segments = ids.size();

  std::string data;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string path = segment_path(dir, ids[i]);
    switch (read_segment(dir, ids[i], data, error)) {
      case FileStatus::kOk:
        break;
      case FileStatus::kMissing:
        report.issues.push_back(
            {path, -1, "segment named by manifest is missing", true});
        continue;
      case FileStatus::kCorrupt:
        report.issues.push_back(
            {path, error.offset, "segment header: " + error.message, true});
        continue;
    }
    const auto tally = [&report, &path](const Record& record,
                                        const RecordRef& ref) {
      report.records += 1;
      report.record_bytes += ref.frame_bytes;
      TenantCounts& counts = report.tenants[record.name];
      switch (record.type) {
        case RecordType::kGenesis:
          counts.genesis += 1;
          break;
        case RecordType::kBase:
          counts.bases += 1;
          break;
        case RecordType::kDelta:
          counts.deltas += 1;
          break;
        case RecordType::kTombstone:
          counts.tombstones += 1;
          break;
        case RecordType::kSpan: {
          counts.spans += 1;
          SpanPayload span;
          if (!decode_span_payload(record.payload, span)) {
            // The log frame is intact but the store layer cannot use it;
            // runtime scanning kills it as an orphan, so note, not fatal.
            report.issues.push_back(
                {path, static_cast<std::int64_t>(ref.offset),
                 "span record payload does not decode", false});
          }
          break;
        }
      }
      counts.bytes += record.payload.size();
      counts.last_epoch = std::max(counts.last_epoch, record.epoch);
    };
    const FrameWalk walk = walk_frames(ids[i], data, tally);
    if (walk.end >= data.size()) {
      continue;
    }
    if (i + 1 == ids.size() && !walk.valid_after) {
      report.torn_tail_bytes += data.size() - walk.end;
      report.issues.push_back({path, static_cast<std::int64_t>(walk.end),
                               "torn tail: " +
                                   std::to_string(data.size() - walk.end) +
                                   " bytes past the last valid record",
                               false});
    } else {
      report.issues.push_back({path, static_cast<std::int64_t>(walk.end),
                               "record fails CRC/length check", true});
    }
  }
  for (const std::uint32_t id : present) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      report.issues.push_back({segment_path(dir, id), -1,
                               "orphan segment not named by the manifest",
                               false});
    }
  }
  return report;
}

}  // namespace ocep::store
