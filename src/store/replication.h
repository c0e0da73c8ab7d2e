// Warm-standby replication primitives: the wire framing a primary uses
// to ship its segment logs to a follower, the follower-side log writer,
// and the offline divergence check between two store directories.
//
// Protocol (one TCP connection per primary shard, primary connects).
// Every message is a frame of the shared codec (common/frame.h):
// tag | u32le len | u32le crc32c(tag ‖ body) | body.
//
//   primary -> follower   tag "OCEPREP2"
//                         body = varint proto | varint shard index |
//                                varint shard count
//   follower -> primary   tag "OCEPRPA2"
//                         body = varint segment count, per segment:
//                                varint id | varint bytes | varint crc32c
//                                of the first `bytes` file bytes
//
// then a stream of frames tagged with a one-byte type:
//
//   'R' reset         ()                      follower wipes its replica dir
//   'S' open segment  (varint id)             header + manifest, like rotate
//   'A' append        (varint id | varint offset | raw segment bytes)
//   'C' commit        (varint seq)            follower fdatasyncs, then acks
//   'D' drop segment  (varint id)             mirrors primary compaction
//   'K' ack           (varint seq | varint segment | varint offset |
//                      varint records)        follower -> primary, after 'C'
//
// The disk log is the replication buffer: the primary never queues
// unsent bytes in RAM across disconnects — on reconnect the follower's
// state frame names the resumable offsets, the primary CRC-verifies its
// own prefix against them, and anything incompatible degrades to a full
// resync ('R').  Shipped bytes are raw segment-file bytes, so a healthy
// follower is byte-prefix-identical to its primary (compare below).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/segment_log.h"

namespace ocep::store {

constexpr std::string_view kReplHelloMagic = "OCEPREP2";
constexpr std::string_view kReplStateMagic = "OCEPRPA2";
constexpr std::uint64_t kReplProtoVersion = 2;
/// Bound on any single replication frame body; an append chunk is at
/// most one segment, and segments default to 4 MiB.
constexpr std::uint64_t kReplMaxFrameBytes = 64ULL << 20U;

enum class ReplFrameType : char {
  kReset = 'R',
  kOpenSegment = 'S',
  kAppend = 'A',
  kCommit = 'C',
  kDrop = 'D',
  kAck = 'K',
};

struct ReplHello {
  std::uint64_t proto = kReplProtoVersion;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
};

/// One follower segment as reported in the state frame: how many bytes
/// it holds and the CRC of exactly those bytes, so the primary can
/// verify the follower is a prefix of its own log before resuming.
struct ReplSegmentState {
  std::uint32_t id = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

struct ReplAck {
  std::uint64_t seq = 0;       ///< echoes the commit frame's sequence
  std::uint32_t segment = 0;   ///< durable position after the fdatasync
  std::uint64_t offset = 0;
  std::uint64_t records = 0;   ///< record frames applied this connection
};

// --- codec ------------------------------------------------------------
// try_decode_* return the bytes consumed (> 0), 0 when the buffer does
// not yet hold a whole frame, or -1 on corruption (bad tag, CRC or
// structure) — the caller drops the connection and lets retry handle it.

[[nodiscard]] std::string encode_repl_hello(const ReplHello& hello);
[[nodiscard]] std::int64_t try_decode_repl_hello(std::string_view buf,
                                                 ReplHello& out);

[[nodiscard]] std::string encode_repl_state(
    const std::vector<ReplSegmentState>& segments);
[[nodiscard]] std::int64_t try_decode_repl_state(
    std::string_view buf, std::vector<ReplSegmentState>& out);

[[nodiscard]] std::string encode_repl_frame(ReplFrameType type,
                                            std::string_view payload);
[[nodiscard]] std::int64_t try_decode_repl_frame(std::string_view buf,
                                                 ReplFrameType& type,
                                                 std::string& payload);

[[nodiscard]] std::string encode_repl_open(std::uint32_t id);
[[nodiscard]] bool decode_repl_open(std::string_view payload,
                                    std::uint32_t& id);
[[nodiscard]] std::string encode_repl_append(std::uint32_t id,
                                             std::uint64_t offset,
                                             std::string_view bytes);
[[nodiscard]] bool decode_repl_append(std::string_view payload,
                                      std::uint32_t& id,
                                      std::uint64_t& offset,
                                      std::string_view& bytes);
[[nodiscard]] std::string encode_repl_commit(std::uint64_t seq);
[[nodiscard]] bool decode_repl_commit(std::string_view payload,
                                      std::uint64_t& seq);
[[nodiscard]] std::string encode_repl_drop(std::uint32_t id);
[[nodiscard]] bool decode_repl_drop(std::string_view payload,
                                    std::uint32_t& id);
[[nodiscard]] std::string encode_repl_ack(const ReplAck& ack);
[[nodiscard]] bool decode_repl_ack(std::string_view payload, ReplAck& out);

/// Counts whole segment-log record frames in a raw byte stream that may
/// split frames across calls: feed each shipped chunk, carry persists in
/// `pending` (bytes buffered from an incomplete frame).  Both ends run
/// this over the same byte stream, so their counts agree.
[[nodiscard]] std::uint64_t count_record_frames(std::string& pending,
                                                std::string_view chunk);

// --- follower-side writer ---------------------------------------------

/// The standby's mirror of one primary shard's log directory.  It writes
/// through the same segment-directory functions as SegmentLog
/// (store/segment_log.h) — segment header fsynced before the manifest
/// names it, manifest via tmp + fsync + rename + dir fsync — and fires
/// the same crash edges, so a promoted replica replays exactly like a
/// crash-restarted primary.  Its recovery policy differs: the primary
/// still holds every byte, so local damage is never reported.  A missing
/// or corrupt manifest, or a bad segment header, wipes the directory; a
/// torn active segment is truncated at its last whole record frame.  The
/// primary's state verification then re-ships whatever is missing, which
/// can never leave the follower divergent.
class ReplicaLog {
 public:
  struct Stats {
    std::uint64_t appends = 0;        ///< append frames applied
    std::uint64_t bytes_appended = 0;
    std::uint64_t commits = 0;
    std::uint64_t resets = 0;
    std::uint64_t torn_tail_bytes = 0;  ///< truncated at open
  };

  /// Opens (creating if absent) the replica directory and truncates any
  /// torn tail of the last segment back to a record-frame boundary.
  /// `crash_hook` (test-only) sees every write, sync and rename edge.
  explicit ReplicaLog(std::string dir, CrashHook crash_hook = {});
  ~ReplicaLog();

  ReplicaLog(const ReplicaLog&) = delete;
  ReplicaLog& operator=(const ReplicaLog&) = delete;

  /// Durable per-segment state for the handshake reply (reads + CRCs
  /// every segment file).
  [[nodiscard]] std::vector<ReplSegmentState> state() const;

  void reset();
  void open_segment(std::uint32_t id);
  void append(std::uint32_t id, std::uint64_t offset, std::string_view bytes);
  void drop_segment(std::uint32_t id);
  void commit();

  [[nodiscard]] std::uint32_t active_segment() const noexcept {
    return ids_.empty() ? 0 : ids_.back();
  }
  [[nodiscard]] std::uint64_t active_size() const noexcept { return size_; }
  /// Record frames fully applied over this object's lifetime; the
  /// standby acks per-connection deltas of this.
  [[nodiscard]] std::uint64_t records_applied() const noexcept {
    return records_applied_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void save_manifest();
  void open_existing();
  void wipe();
  void open_active_fd();
  void seal_active();

  std::string dir_;
  CrashHook crash_hook_;
  std::vector<std::uint32_t> ids_;
  int fd_ = -1;          ///< active (last) segment, O_APPEND
  std::uint64_t size_ = 0;
  bool dirty_ = false;
  std::string pending_;  ///< record-frame carry for records_applied_
  std::uint64_t records_applied_ = 0;
  Stats stats_;
};

// --- offline divergence check (ocep_inspect --store A --compare B) -----

struct CompareIssue {
  std::string path;
  std::string message;
};

struct CompareReport {
  std::uint64_t logs = 0;            ///< log directories compared
  std::uint64_t segments = 0;        ///< segment pairs compared
  std::uint64_t bytes_compared = 0;
  std::vector<CompareIssue> issues;
  [[nodiscard]] bool ok() const { return issues.empty(); }
};

/// Byte-prefix comparison of two store roots (directories of shard-N
/// logs, or single log directories).  A healthy replica is a prefix of
/// its primary, so every segment present in both stores must agree on
/// their common prefix; a mismatch is divergence.  Segments or shards
/// present on only one side are lag or compaction skew, not divergence.
[[nodiscard]] CompareReport compare_store_dirs(const std::string& a,
                                               const std::string& b);

}  // namespace ocep::store
