// Crash-consistent append-only segment log — the durability substrate
// under tenant state (src/store/tenant_store.h layers the semantics).
//
// On-disk layout.  Every structure is a frame of the shared codec
// (common/frame.h): tag | u32le len | u32le crc32c(tag ‖ body) | body.
//
//   <dir>/manifest       tag "OCEPMAN2", body = varint segment count, each
//                        segment id ascending, varint next segment id
//   <dir>/seg-NNNNNNNN.log
//                        20-byte header: tag "OCEPSEG2", body = u32le id;
//                        then records back to back, each an empty-tag
//                        frame (so u32le len | u32le crc32c(body) | body)
//                        with body = u8 type | varint epoch |
//                               varint name length | name | payload
//
// Write discipline (the crash contract):
//   - records are appended with plain write(2) and made durable by
//     sync() — the group-commit fsync the owner calls on its flush
//     interval, so loss after kill -9 is bounded by that interval;
//   - rotation creates + fsyncs the new segment file (and the directory)
//     BEFORE the manifest names it, then writes the manifest durably
//     (tmp + fsync + rename + dir fsync).  A crash between the steps
//     leaves only an empty orphan segment, removed at the next open;
//   - the manifest is the root of truth: a segment it names must exist
//     and parse (else StoreError); a segment file it does not name is an
//     orphan (a rotation or compaction the crash cut short) and is
//     removed at open.  With no manifest at all, every segment file must
//     be empty (else StoreError — records never vanish silently).
//
// Recovery (open of a rw log) replays every record through the caller's
// scan callback.  A record that fails its length or CRC check in the
// *final* segment with nothing valid after it is a torn tail: the bytes
// are truncated and counted, never reported as an error.  The same
// failure anywhere else — mid-log, or with a valid record following —
// is corruption and throws a positioned StoreError.
//
// Each step of the format (file names, manifest read and write, segment
// creation, the record-frame walk, the write/sync/read loops) is one
// free function below the class.  SegmentLog, the follower's ReplicaLog
// (store/replication.h), verify_log and compare_store_dirs all call
// them, so the two writers fire the same crash edges; each caller keeps
// its own recovery policy on top.
//
// Thread model: one owner thread (each reactor shard owns its own log).
// The crash_hook fires before and after every write/fsync/rename so a
// test can kill the process (or snapshot the directory) at every edge.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ocep::store {

enum class RecordType : std::uint8_t {
  kGenesis = 1,    ///< pattern list of a tenant that never announced traces
  kBase = 2,       ///< full OCEPNTC2 tenant image
  kDelta = 3,      ///< raw session wire bytes fed since the last append
  kTombstone = 4,  ///< tenant left this log (migrated away / superseded)
  kSpan = 5,       ///< evicted leaf-history span (store/tenant_store.h codec)
};

struct Record {
  RecordType type = RecordType::kDelta;
  std::uint64_t epoch = 0;  ///< disambiguates images across logs; higher wins
  std::string name;         ///< tenant name
  std::string payload;
};

/// Where an appended (or scanned) record lives; the index layer keeps
/// these so superseded records can be marked dead and re-read later.
struct RecordRef {
  std::uint32_t segment = 0;
  std::uint64_t offset = 0;       ///< frame start within the segment file
  std::uint64_t frame_bytes = 0;  ///< header + body
};

/// One manifest-listed segment and how many bytes of it are durable —
/// the unit a log tailer (net/replicator) reasons about.
struct SegmentView {
  std::uint32_t id = 0;
  std::uint64_t bytes = 0;  ///< durable size, including the segment header
};

/// Per-segment occupancy for compaction policy: how much of a segment is
/// still live versus superseded.  `bytes` excludes the segment header, so
/// a fully-dead segment reports live_bytes == 0 with bytes > 0.
struct SegmentUsage {
  std::uint32_t id = 0;
  std::uint64_t bytes = 0;       ///< durable frame bytes (header excluded)
  std::uint64_t live_bytes = 0;  ///< frame bytes of live records
  bool sealed = false;           ///< not the active (append) segment
};

/// Fault-injection edges (modeled on net::MigrationHook): the hook fires
/// with phase "pre" before and "post" after every durability-relevant
/// syscall, so a harness can abort or snapshot at every crash point.
enum class CrashEdge : std::uint8_t { kWrite, kSync, kRename };
using CrashHook =
    std::function<void(CrashEdge edge, std::string_view detail)>;

struct LogConfig {
  std::string dir;
  std::uint64_t segment_bytes = 4ULL << 20U;  ///< rotation threshold
  bool read_only = false;  ///< scan without truncating, deleting, appending
  CrashHook crash_hook;    ///< test-only; production leaves it unset
};

struct LogStats {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;        ///< live (not superseded) records
  std::uint64_t live_bytes = 0;     ///< frame bytes of live records
  std::uint64_t total_bytes = 0;    ///< frame bytes ever appended/scanned
  std::uint64_t torn_tail_bytes = 0;  ///< discarded at open
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t segments_deleted = 0;  ///< fully-dead segments collected
};

class SegmentLog {
 public:
  using ScanCallback =
      std::function<void(const Record& record, const RecordRef& ref)>;

  /// Opens (creating if rw and absent) and replays the log; every stored
  /// record reaches `on_scan` in append order.  Throws StoreError on
  /// corruption that is not a torn tail.
  SegmentLog(LogConfig config, const ScanCallback& on_scan);
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Appends one record (rw only).  Durable only after the next sync();
  /// rotates to a fresh segment past the size threshold.
  RecordRef append(const Record& record);

  /// fdatasync of the active segment when dirty; the group commit.
  void sync();
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }

  /// Marks a record superseded.  A sealed segment whose live bytes reach
  /// zero is unlinked (after a durable manifest update that drops it).
  void mark_dead(const RecordRef& ref);

  /// Re-reads one record's payload from disk (CRC re-checked); used to
  /// reload a spilled tenant without keeping its image in RAM.
  [[nodiscard]] std::string read_payload(const RecordRef& ref) const;

  // --- tailing/reader API (net/replicator ships raw segment bytes) -----

  /// Manifest-order snapshot of every segment and its *synced* size.
  /// The active segment reports the offset of the last sync(), never
  /// bytes that could still be lost to a crash — a tailer that ships
  /// from this view can never put the follower ahead of the primary.
  [[nodiscard]] std::vector<SegmentView> segments() const;

  [[nodiscard]] std::uint32_t next_segment_id() const noexcept {
    return next_segment_id_;
  }

  /// Manifest-order occupancy snapshot for compaction policy (dead-byte
  /// ratio per sealed segment).  Same durable-size discipline as
  /// segments(): the active segment reports synced frame bytes only.
  [[nodiscard]] std::vector<SegmentUsage> segment_usage() const;

  /// Reads up to `max_bytes` raw file bytes of segment `id` starting at
  /// `offset` (pread; no CRC interpretation — frames ship verbatim).
  /// Returns fewer bytes at end of segment; empty at/past the end.
  /// Throws StoreError when the segment is unknown or unreadable.
  [[nodiscard]] std::string read_range(std::uint32_t id, std::uint64_t offset,
                                       std::uint64_t max_bytes) const;

  [[nodiscard]] const LogStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& dir() const noexcept {
    return config_.dir;
  }

 private:
  void open_or_create();
  void scan_segment(std::uint32_t id, bool last, const ScanCallback& on_scan);
  void begin_segment(int fd);
  void rotate();
  [[nodiscard]] std::uint64_t durable_size(std::uint32_t id) const;

  LogConfig config_;
  std::vector<std::uint32_t> segment_ids_;  ///< manifest order (ascending)
  std::uint32_t next_segment_id_ = 1;
  int fd_ = -1;                    ///< active segment, O_APPEND (rw mode)
  std::uint64_t write_offset_ = 0; ///< size of the active segment
  std::uint64_t synced_offset_ = 0;  ///< active-segment size at last sync()
  bool dirty_ = false;
  std::map<std::uint32_t, std::uint64_t> live_bytes_;  ///< per segment
  LogStats stats_;
};

// --- the segment-directory format ------------------------------------

constexpr std::string_view kManifestMagic = "OCEPMAN2";
constexpr std::string_view kSegmentMagic = "OCEPSEG2";
/// Tag, length and CRC fields, and the u32 segment id.
constexpr std::size_t kSegmentHeaderBytes = 20;
constexpr std::uint64_t kMaxRecordBytes = 1ULL << 30U;

/// Why and where (byte offset within the file) a manifest or segment
/// header failed to decode.
struct DecodeError {
  std::string message;
  std::int64_t offset = -1;
};

/// Outcome of reading a manifest or a segment file.
enum class FileStatus : std::uint8_t { kOk, kMissing, kCorrupt };

/// <dir>/manifest
[[nodiscard]] std::string manifest_path(const std::string& dir);

/// <dir>/seg-NNNNNNNN.log
[[nodiscard]] std::string segment_path(const std::string& dir,
                                       std::uint32_t id);

/// Reads and decodes <dir>/manifest: its segment ids (ascending, at
/// least one) and the successor id.  kCorrupt sets `error`.
[[nodiscard]] FileStatus read_manifest(const std::string& dir,
                                       std::vector<std::uint32_t>& ids,
                                       std::uint32_t& next_id,
                                       DecodeError& error);

/// Replaces <dir>/manifest durably (tmp + fsync + rename + dir fsync),
/// firing the "manifest" and "manifest-dir" crash edges.  `ids` must be
/// non-empty and ascending.  Throws StoreError.
void write_manifest(const std::string& dir,
                    const std::vector<std::uint32_t>& ids,
                    std::uint32_t next_id, const CrashHook& hook);

/// Unlinks every segment file in `dir` that `ids` does not list, and a
/// leftover manifest tmp file.
void remove_stale_files(const std::string& dir,
                        const std::vector<std::uint32_t>& ids);

/// Creates segment `id` in `dir`: header write, header fsync, directory
/// fsync, all before any manifest may name it.  Returns the file's
/// O_APPEND descriptor.  Throws StoreError.
[[nodiscard]] int create_segment(const std::string& dir, std::uint32_t id,
                                 const CrashHook& hook);

/// Opens an existing segment file for appending.  Throws StoreError.
[[nodiscard]] int reopen_segment(const std::string& dir, std::uint32_t id);

/// Reads segment `id` of `dir` whole into `data` and checks its header.
/// kCorrupt (a bad header) sets `error`.
[[nodiscard]] FileStatus read_segment(const std::string& dir,
                                      std::uint32_t id, std::string& data,
                                      DecodeError& error);

/// Where a walk over a segment's record frames stopped.
struct FrameWalk {
  std::uint64_t end = 0;     ///< where the last whole frame ends
  bool valid_after = false;  ///< a valid frame starts somewhere past `end`
};

/// Walks the record frames of segment `id` (`data` is the whole file,
/// header included), handing each record and its ref to `visit` (may be
/// null).  end < data.size() means the bytes from `end` on do not parse:
/// a torn tail when !valid_after, damage that would drop records if not.
[[nodiscard]] FrameWalk walk_frames(std::uint32_t id, std::string_view data,
                                    const SegmentLog::ScanCallback& visit);

/// Truncates segment `id` of `dir` to `size` bytes and fsyncs it.
/// Throws StoreError.
void truncate_segment(const std::string& dir, std::uint32_t id,
                      std::uint64_t size);

/// Writes all of `bytes` to `fd`, retrying EINTR, between the "pre:" and
/// "post:" kWrite edges named `step`.  Throws StoreError naming `file`.
void write_fully(int fd, std::string_view bytes, const std::string& file,
                 const char* step, const CrashHook& hook);

/// fdatasync of a segment descriptor between the "segment" kSync edges.
/// Throws StoreError naming `file`.
void sync_segment(int fd, const std::string& file, const CrashHook& hook);

// --- tolerant offline verification (ocep_inspect --store) --------------

struct VerifyIssue {
  std::string file;
  std::int64_t offset = -1;
  std::string message;
  bool fatal = false;  ///< torn tails and orphan files are non-fatal
};

struct TenantCounts {
  std::uint64_t genesis = 0;
  std::uint64_t bases = 0;
  std::uint64_t deltas = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t spans = 0;       ///< spilled leaf-history span records
  std::uint64_t bytes = 0;       ///< payload bytes across all records
  std::uint64_t last_epoch = 0;  ///< highest epoch seen
};

struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;
  std::uint64_t record_bytes = 0;
  std::uint64_t torn_tail_bytes = 0;
  std::map<std::string, TenantCounts> tenants;
  std::vector<VerifyIssue> issues;
  [[nodiscard]] bool ok() const {
    for (const VerifyIssue& issue : issues) {
      if (issue.fatal) {
        return false;
      }
    }
    return true;
  }
};

/// Read-only scan that never throws: every CRC failure, missing segment,
/// and torn tail lands in the report with its file + offset.
[[nodiscard]] VerifyReport verify_log(const std::string& dir);

}  // namespace ocep::store
