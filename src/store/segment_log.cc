#include "store/segment_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

/// Any parseable record at or after `offset`?  Distinguishes a torn tail
/// (garbage to end of file — safe to truncate) from mid-log corruption
/// (valid data beyond the failure — records would vanish silently).
bool valid_frame_after(std::string_view data, std::uint64_t offset) {
  Record scratch;
  for (std::uint64_t p = offset; p + kFrameFieldBytes + 1 <= data.size();
       ++p) {
    if (try_parse_frame(data, p, scratch) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string encode_record_body(const Record& record) {
  std::string body;
  body.reserve(2 + 10 + record.name.size() + record.payload.size());
  body.push_back(static_cast<char>(record.type));
  put_varint(body, record.epoch);
  put_string(body, record.name);
  body += record.payload;
  return body;
}

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

bool check_segment_header(std::string_view data, std::uint32_t id,
                          DecodeError& error) {
  const DecodedFrame frame = decode_frame(data, kSegmentMagic, 4);
  if (frame.status == FrameStatus::kCorrupt) {
    error = {frame.error, static_cast<std::int64_t>(frame.error_offset)};
    return false;
  }
  if (frame.status == FrameStatus::kNeedMore || frame.body.size() != 4 ||
      get_u32le(frame.body.data()) != id) {
    error = {"bad segment header", 0};
    return false;
  }
  return true;
}

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

std::string SegmentLog::segment_path(std::uint32_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.log", id);
  return config_.dir + "/" + name;
}

void SegmentLog::hook(CrashEdge edge, const std::string& detail) const {
  if (config_.crash_hook) {
    config_.crash_hook(edge, detail);
  }
}

void SegmentLog::full_write(std::string_view bytes, const char* what) {
  hook(CrashEdge::kWrite, std::string("pre:") + what);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw StoreError(std::string(what) + ": write failed: " +
                           std::strerror(errno),
                       config_.dir, -1);
    }
    written += static_cast<std::size_t>(n);
  }
  hook(CrashEdge::kWrite, std::string("post:") + what);
}

void SegmentLog::write_manifest() {
  const std::string file =
      encode_manifest_file(segment_ids_, next_segment_id_);
  const std::string path = config_.dir + "/manifest";
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw StoreError("manifest: cannot open tmp: " +
                         std::string(std::strerror(errno)),
                     tmp, -1);
  }
  hook(CrashEdge::kWrite, "pre:manifest");
  std::size_t written = 0;
  bool ok = true;
  while (written < file.size()) {
    const ssize_t n = ::write(fd, file.data() + written, file.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  hook(CrashEdge::kWrite, "post:manifest");
  hook(CrashEdge::kSync, "pre:manifest");
  ok = ok && ::fsync(fd) == 0;
  hook(CrashEdge::kSync, "post:manifest");
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    throw StoreError("manifest: write failed", tmp, -1);
  }
  hook(CrashEdge::kRename, "pre:manifest");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw StoreError("manifest: rename failed: " +
                         std::string(std::strerror(errno)),
                     path, -1);
  }
  hook(CrashEdge::kRename, "post:manifest");
  hook(CrashEdge::kSync, "pre:manifest-dir");
  fsync_path(config_.dir);
  hook(CrashEdge::kSync, "post:manifest-dir");
}

void SegmentLog::create_segment(std::uint32_t id) {
  const std::string path = segment_path(id);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND |
                                 O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw StoreError("cannot create segment: " +
                         std::string(std::strerror(errno)),
                     path, -1);
  }
  full_write(encode_segment_header(id), "segment-header");
  // The header must be durable before the manifest can name the segment:
  // rotation's crash contract is "a manifest-listed segment always has a
  // valid header".
  hook(CrashEdge::kSync, "pre:segment-create");
  if (::fsync(fd_) != 0) {
    throw StoreError("segment header fsync failed", path, -1);
  }
  fsync_path(config_.dir);
  hook(CrashEdge::kSync, "post:segment-create");
  write_offset_ = kSegmentHeaderBytes;
  synced_offset_ = kSegmentHeaderBytes;
  dirty_ = false;
}

void SegmentLog::open_or_create() {
  const std::string manifest_path = config_.dir + "/manifest";
  std::error_code ec;
  std::vector<std::pair<std::uint32_t, std::string>> present;
  if (fs::is_directory(config_.dir, ec)) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config_.dir, ec)) {
      if (ec || !entry.is_regular_file()) {
        continue;
      }
      const std::string name = entry.path().filename().string();
      if (const std::uint32_t id = parse_segment_file_name(name); id != 0) {
        present.emplace_back(id, entry.path().string());
      }
    }
  }

  std::string manifest;
  if (!read_whole_file(manifest_path, manifest)) {
    // No manifest.  A fresh directory, or a crash before the very first
    // manifest write — in which case every segment present must still be
    // empty (record appends only start once the manifest exists).
    for (const auto& [id, path] : present) {
      if (fs::file_size(path, ec) > kSegmentHeaderBytes) {
        throw StoreError("segments present without a manifest", path, -1);
      }
    }
    if (config_.read_only) {
      return;  // an empty (or not-yet-created) store
    }
    for (const auto& [id, path] : present) {
      ::unlink(path.c_str());
    }
    create_segment(1);
    segment_ids_ = {1};
    next_segment_id_ = 2;
    write_manifest();
    return;
  }

  DecodeError error;
  if (!decode_manifest_file(manifest, segment_ids_, next_segment_id_,
                            error)) {
    throw StoreError("manifest: " + error.message, manifest_path,
                     error.offset);
  }
  if (!config_.read_only) {
    // Orphans — a segment created whose manifest write never landed, or
    // one a crashed compaction dropped from the manifest but could not
    // unlink — are dead by the manifest-is-truth rule.
    for (const auto& [id, path] : present) {
      if (std::find(segment_ids_.begin(), segment_ids_.end(), id) ==
          segment_ids_.end()) {
        ::unlink(path.c_str());
      }
    }
    ::unlink((manifest_path + ".tmp").c_str());
  }
}

void SegmentLog::scan_segment(std::uint32_t id, bool last,
                              const ScanCallback& on_scan) {
  const std::string path = segment_path(id);
  std::string data;
  if (!read_whole_file(path, data)) {
    throw StoreError("segment named by manifest is missing", path, -1);
  }
  if (DecodeError error; !check_segment_header(data, id, error)) {
    // Rotation fsyncs the header before the manifest names the segment,
    // so a bad header is disk corruption, never a torn write.
    throw StoreError("segment header: " + error.message, path, error.offset);
  }
  std::uint64_t offset = kSegmentHeaderBytes;
  std::uint64_t end = data.size();
  while (offset < end) {
    Record record;
    const std::uint64_t frame = try_parse_frame(data, offset, record);
    if (frame == 0) {
      if (last && !valid_frame_after(data, offset)) {
        // Torn tail: an append (or its tail) that never completed before
        // the crash.  Discard — the loss is bounded by the group-commit
        // interval — and reclaim the bytes so appends restart cleanly.
        stats_.torn_tail_bytes += end - offset;
        if (!config_.read_only) {
          if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
            throw StoreError("torn-tail truncate failed", path,
                             static_cast<std::int64_t>(offset));
          }
          fsync_path(path);
        }
        end = offset;
        break;
      }
      throw StoreError("corrupt record", path,
                       static_cast<std::int64_t>(offset));
    }
    const RecordRef ref{id, offset,
                        frame};
    live_bytes_[id] += frame;
    stats_.records += 1;
    stats_.live_bytes += frame;
    stats_.total_bytes += frame;
    if (on_scan) {
      on_scan(record, ref);
    }
    offset += frame;
  }
  if (last && !config_.read_only) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) {
      throw StoreError("cannot reopen active segment", path, -1);
    }
    write_offset_ = end;
    synced_offset_ = end;
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
    full_write(frame, "append");
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
  // one (empty last segment, valid).  Appends move only after both.
  sync();
  ::close(fd_);
  fd_ = -1;
  const std::uint32_t id = next_segment_id_++;
  create_segment(id);
  segment_ids_.push_back(id);
  write_manifest();
  stats_.rotations += 1;
  stats_.segments = segment_ids_.size();
}

void SegmentLog::sync() {
  if (!dirty_ || fd_ < 0) {
    return;
  }
  hook(CrashEdge::kSync, "pre:segment");
  if (::fdatasync(fd_) != 0) {
    throw StoreError("segment fdatasync failed", segment_path(
                         segment_ids_.back()),
                     -1);
  }
  hook(CrashEdge::kSync, "post:segment");
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
  write_manifest();
  ::unlink(segment_path(ref.segment).c_str());
  fsync_path(config_.dir);
  live_bytes_.erase(it);
  stats_.segments_deleted += 1;
  stats_.segments = segment_ids_.size();
}

std::vector<SegmentView> SegmentLog::segments() const {
  std::vector<SegmentView> views;
  views.reserve(segment_ids_.size());
  for (std::size_t i = 0; i < segment_ids_.size(); ++i) {
    const std::uint32_t id = segment_ids_[i];
    SegmentView view;
    view.id = id;
    if (i + 1 == segment_ids_.size() && fd_ >= 0) {
      view.bytes = synced_offset_;
    } else {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(segment_path(id), ec);
      if (ec) {
        throw StoreError("cannot stat segment: " + ec.message(),
                         segment_path(id), -1);
      }
      view.bytes = static_cast<std::uint64_t>(size);
    }
    views.push_back(view);
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
    throw StoreError("read_range of unknown segment", segment_path(id), -1);
  }
  std::uint64_t end = 0;
  if (!segment_ids_.empty() && id == segment_ids_.back() && fd_ >= 0) {
    end = synced_offset_;
  } else {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(segment_path(id), ec);
    if (ec) {
      throw StoreError("cannot stat segment: " + ec.message(),
                       segment_path(id), -1);
    }
    end = static_cast<std::uint64_t>(size);
  }
  if (offset >= end || max_bytes == 0) {
    return {};
  }
  const std::string path = segment_path(id);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError("cannot reopen segment for tailing", path,
                     static_cast<std::int64_t>(offset));
  }
  std::string out(static_cast<std::size_t>(std::min(max_bytes, end - offset)),
                  '\0');
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      ::close(fd);
      throw StoreError("short read while tailing segment", path,
                       static_cast<std::int64_t>(offset + got));
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return out;
}

std::string SegmentLog::read_payload(const RecordRef& ref) const {
  const std::string path = segment_path(ref.segment);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError("cannot reopen segment for read", path,
                     static_cast<std::int64_t>(ref.offset));
  }
  std::string frame(ref.frame_bytes, '\0');
  std::size_t got = 0;
  while (got < frame.size()) {
    const ssize_t n = ::pread(fd, frame.data() + got, frame.size() - got,
                              static_cast<off_t>(ref.offset + got));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ::close(fd);
      throw StoreError("short read of stored record", path,
                       static_cast<std::int64_t>(ref.offset));
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  Record record;
  if (try_parse_frame(frame, 0, record) != ref.frame_bytes) {
    throw StoreError("stored record failed re-read CRC", path,
                     static_cast<std::int64_t>(ref.offset));
  }
  return std::move(record.payload);
}

VerifyReport verify_log(const std::string& dir) {
  VerifyReport report;
  const std::string manifest_path = dir + "/manifest";
  std::error_code ec;

  std::vector<std::pair<std::uint32_t, std::string>> present;
  if (fs::is_directory(dir, ec)) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir, ec)) {
      if (ec || !entry.is_regular_file()) {
        continue;
      }
      if (const std::uint32_t id =
              parse_segment_file_name(entry.path().filename().string());
          id != 0) {
        present.emplace_back(id, entry.path().string());
      }
    }
  }

  std::string manifest;
  std::vector<std::uint32_t> ids;
  std::uint32_t next_id = 0;
  if (!read_whole_file(manifest_path, manifest)) {
    for (const auto& [id, path] : present) {
      if (fs::file_size(path, ec) > kSegmentHeaderBytes) {
        report.issues.push_back(
            {path, -1, "segment has records but no manifest exists", true});
      }
    }
    return report;  // an empty / never-created store is fine
  }
  if (DecodeError error; !decode_manifest_file(manifest, ids, next_id, error)) {
    report.issues.push_back(
        {manifest_path, error.offset, "manifest: " + error.message, true});
    return report;
  }
  report.segments = ids.size();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t id = ids[i];
    const bool last = i + 1 == ids.size();
    std::string path = dir + "/";
    {
      char name[32];
      std::snprintf(name, sizeof(name), "seg-%08u.log", id);
      path += name;
    }
    std::string data;
    if (!read_whole_file(path, data)) {
      report.issues.push_back(
          {path, -1, "segment named by manifest is missing", true});
      continue;
    }
    if (DecodeError error; !check_segment_header(data, id, error)) {
      report.issues.push_back(
          {path, error.offset, "segment header: " + error.message, true});
      continue;
    }
    std::uint64_t offset = kSegmentHeaderBytes;
    while (offset < data.size()) {
      Record record;
      const std::uint64_t frame = try_parse_frame(data, offset, record);
      if (frame == 0) {
        if (last && !valid_frame_after(data, offset)) {
          report.torn_tail_bytes += data.size() - offset;
          report.issues.push_back(
              {path, static_cast<std::int64_t>(offset),
               "torn tail: " + std::to_string(data.size() - offset) +
                   " bytes past the last valid record",
               false});
        } else {
          report.issues.push_back({path, static_cast<std::int64_t>(offset),
                                   "record fails CRC/length check", true});
        }
        break;
      }
      report.records += 1;
      report.record_bytes += frame;
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
            report.issues.push_back({path, static_cast<std::int64_t>(offset),
                                     "span record payload does not decode",
                                     false});
          }
          break;
        }
      }
      counts.bytes += record.payload.size();
      counts.last_epoch = std::max(counts.last_epoch, record.epoch);
      offset += frame;
    }
  }
  for (const auto& [id, path] : present) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      report.issues.push_back(
          {path, -1, "orphan segment not named by the manifest", false});
    }
  }
  return report;
}

}  // namespace ocep::store
