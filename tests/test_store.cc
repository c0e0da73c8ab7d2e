// Durability-store suite (ctest -L store): the segment log's crash
// contract, the recovery corpus (torn tails at every byte boundary,
// bit flips, manifest damage, missing segments), the follower log's
// recovery corpus (wipe, truncate, re-ship), tenant-record semantics
// (base supersession, tombstones, orphan deltas, GC), the span storage
// tier (span record semantics, buffer pool, compactor,
// spill-then-fault-back matcher equivalence), and fork-based
// crash-point exhaustions that kill deterministic workloads (the
// follower's included) at every write/fsync/rename edge and prove the
// survivor is always a valid prefix.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/durable.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "core/monitor.h"
#include "core/span_sink.h"
#include "random_computation.h"
#include "store/buffer_pool.h"
#include "store/compactor.h"
#include "store/replication.h"
#include "store/segment_log.h"
#include "store/tenant_store.h"
#include "testing/chaos_harness.h"

namespace fs = std::filesystem;
using namespace ocep;
using namespace ocep::store;

namespace {

/// Fresh scratch directory per test; removed up front so a failed prior
/// run cannot leak state into this one.
std::string scratch_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ocep_store_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

LogConfig log_config(const std::string& dir) {
  LogConfig config;
  config.dir = dir;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string seg_path(const std::string& dir, std::uint32_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.log", id);
  return dir + "/" + name;
}

Record make_record(RecordType type, std::uint64_t epoch, std::string name,
                   std::string payload) {
  Record record;
  record.type = type;
  record.epoch = epoch;
  record.name = std::move(name);
  record.payload = std::move(payload);
  return record;
}

/// Opens a log and collects every scanned record in append order.
std::vector<Record> scan_all(LogConfig config) {
  std::vector<Record> seen;
  SegmentLog log(std::move(config),
                 [&seen](const Record& record, const RecordRef&) {
                   seen.push_back(record);
                 });
  return seen;
}

// --- segment log basics ------------------------------------------------

TEST(SegmentLog, AppendSyncReopenRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  std::vector<Record> wrote;
  wrote.push_back(make_record(RecordType::kGenesis, 1, "alpha", "p0"));
  wrote.push_back(make_record(RecordType::kDelta, 1, "alpha", "d0"));
  wrote.push_back(
      make_record(RecordType::kBase, 2, "beta", std::string(100, 'B')));
  wrote.push_back(make_record(RecordType::kTombstone, 3, "alpha", ""));
  {
    SegmentLog log(log_config(dir), nullptr);
    for (const Record& record : wrote) {
      log.append(record);
    }
    EXPECT_TRUE(log.dirty());
    log.sync();
    EXPECT_FALSE(log.dirty());
    EXPECT_EQ(log.stats().appends, wrote.size());
    EXPECT_EQ(log.stats().syncs, 1U);
  }

  const std::vector<Record> seen = scan_all(log_config(dir));
  ASSERT_EQ(seen.size(), wrote.size());
  for (std::size_t i = 0; i < wrote.size(); ++i) {
    EXPECT_EQ(seen[i].type, wrote[i].type) << i;
    EXPECT_EQ(seen[i].epoch, wrote[i].epoch) << i;
    EXPECT_EQ(seen[i].name, wrote[i].name) << i;
    EXPECT_EQ(seen[i].payload, wrote[i].payload) << i;
  }
}

TEST(SegmentLog, RotationPreservesOrderAcrossSegments) {
  const std::string dir = scratch_dir("rotate");
  constexpr int kRecords = 40;
  {
    LogConfig config = log_config(dir);
    config.segment_bytes = 128;  // a few records per segment
    SegmentLog log(std::move(config), nullptr);
    for (int i = 0; i < kRecords; ++i) {
      log.append(make_record(RecordType::kDelta, 1, "t",
                             "payload-" + std::to_string(i)));
    }
    log.sync();
    EXPECT_GE(log.stats().rotations, 3U);
  }
  const std::vector<Record> seen = scan_all(log_config(dir));
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].payload,
              "payload-" + std::to_string(i));
  }
}

TEST(SegmentLog, FailedRotationKeepsAppendsOnTheActiveSegment) {
  const std::string dir = scratch_dir("rotate_fault");
  // One disk fault while the successor's header is written: the append
  // that triggered the rotation throws, every later append lands (the
  // next one retries the rotation), and a reopen holds every record
  // whose append returned.
  std::vector<std::string> kept;
  {
    bool fail = false;
    LogConfig config = log_config(dir);
    config.segment_bytes = 64;  // every record seals its segment
    config.crash_hook = [&fail](CrashEdge, std::string_view detail) {
      if (fail && detail == "pre:segment-header") {
        fail = false;
        throw StoreError("injected EIO");
      }
    };
    SegmentLog log(std::move(config), nullptr);
    for (int i = 0; i < 5; ++i) {
      fail = i == 1;
      const std::string payload(40, static_cast<char>('a' + i));
      try {
        log.append(make_record(RecordType::kDelta, 1, "t", payload));
        kept.push_back(payload);
      } catch (const StoreError&) {
        EXPECT_EQ(i, 1);
      }
    }
    log.sync();
  }
  ASSERT_EQ(kept.size(), 4U);
  std::vector<std::string> seen;
  for (const Record& record : scan_all(log_config(dir))) {
    seen.push_back(record.payload);
  }
  for (const std::string& payload : kept) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), payload), seen.end())
        << "lost the record of '" << payload.front() << "'";
  }
}

TEST(SegmentLog, ReadPayloadRechecksCrc) {
  const std::string dir = scratch_dir("reread");
  std::vector<RecordRef> refs;
  SegmentLog log(log_config(dir), nullptr);
  refs.push_back(
      log.append(make_record(RecordType::kBase, 1, "t", "the payload")));
  log.sync();
  EXPECT_EQ(log.read_payload(refs[0]), "the payload");

  // Flip a payload byte behind the log's back: the re-read must notice.
  std::string data = read_file(seg_path(dir, 1));
  data[data.size() - 3] ^= 0x40;
  write_file(seg_path(dir, 1), data);
  EXPECT_THROW((void)log.read_payload(refs[0]), StoreError);
}

TEST(SegmentLog, OrphanSegmentIsRemovedOnOpen) {
  const std::string dir = scratch_dir("orphan");
  { SegmentLog log(log_config(dir), nullptr); }
  // Simulate a crash after create_segment but before the manifest write
  // landed: a header-only segment the manifest does not name.
  const std::string orphan = seg_path(dir, 7);
  std::string header =
      read_file(seg_path(dir, 1)).substr(0, kSegmentHeaderBytes);
  write_file(orphan, header);
  { SegmentLog log(log_config(dir), nullptr); }
  EXPECT_FALSE(fs::exists(orphan));
}

TEST(SegmentLog, RecordBearingSegmentWithoutManifestIsFatal) {
  const std::string dir = scratch_dir("nomanifest");
  {
    SegmentLog log(log_config(dir), nullptr);
    log.append(make_record(RecordType::kDelta, 1, "t", "x"));
    log.sync();
  }
  // Records must never vanish silently: losing the manifest while a
  // segment still holds data is corruption, not a fresh store.
  fs::remove(dir + "/manifest");
  EXPECT_THROW(scan_all(log_config(dir)), StoreError);
}

// --- recovery corpus ---------------------------------------------------

/// Copies a closed log directory so each corpus case mutates a fresh
/// snapshot, never the original.
void clone_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

TEST(RecoveryCorpus, TornTailAtEveryByteBoundary) {
  const std::string dir = scratch_dir("torn_src");
  std::vector<std::string> payloads = {"first", "second-record",
                                       std::string(40, 'z')};
  std::vector<std::uint64_t> frame_ends;  // prefix byte offsets
  {
    SegmentLog log(log_config(dir), nullptr);
    for (const std::string& payload : payloads) {
      const RecordRef ref =
          log.append(make_record(RecordType::kDelta, 1, "t", payload));
      frame_ends.push_back(ref.offset + ref.frame_bytes);
    }
    log.sync();
  }
  const std::string segment = seg_path(dir, 1);
  const std::uint64_t full = fs::file_size(segment);
  ASSERT_EQ(full, frame_ends.back());

  const std::string work = scratch_dir("torn_case");
  for (std::uint64_t cut = kSegmentHeaderBytes; cut < full; ++cut) {
    clone_dir(dir, work);
    fs::resize_file(seg_path(work, 1), cut);

    // Expected survivors: every record whose frame ends at or before
    // the cut; everything past the last boundary is the torn tail.
    std::size_t survivors = 0;
    std::uint64_t valid_end = kSegmentHeaderBytes;
    while (survivors < frame_ends.size() && frame_ends[survivors] <= cut) {
      valid_end = frame_ends[survivors];
      ++survivors;
    }

    LogConfig config = log_config(work);
    std::vector<Record> seen;
    SegmentLog log(std::move(config),
                   [&seen](const Record& record, const RecordRef&) {
                     seen.push_back(record);
                   });
    ASSERT_EQ(seen.size(), survivors) << "cut at byte " << cut;
    for (std::size_t i = 0; i < survivors; ++i) {
      EXPECT_EQ(seen[i].payload, payloads[i]) << "cut at byte " << cut;
    }
    EXPECT_EQ(log.stats().torn_tail_bytes, cut - valid_end)
        << "cut at byte " << cut;

    // The truncated log must accept appends again, right where the
    // valid prefix ended.
    const RecordRef ref =
        log.append(make_record(RecordType::kDelta, 1, "t", "after"));
    EXPECT_EQ(ref.offset, valid_end) << "cut at byte " << cut;
    log.sync();
  }
}

TEST(RecoveryCorpus, TruncationToExactBoundaryIsNotTorn) {
  const std::string dir = scratch_dir("boundary");
  std::uint64_t first_end = 0;
  {
    SegmentLog log(log_config(dir), nullptr);
    const RecordRef ref =
        log.append(make_record(RecordType::kDelta, 1, "t", "keep"));
    first_end = ref.offset + ref.frame_bytes;
    log.append(make_record(RecordType::kDelta, 1, "t", "drop"));
    log.sync();
  }
  fs::resize_file(seg_path(dir, 1), first_end);
  LogConfig config = log_config(dir);
  std::vector<Record> seen;
  SegmentLog log(std::move(config),
                 [&seen](const Record& record, const RecordRef&) {
                   seen.push_back(record);
                 });
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_EQ(seen[0].payload, "keep");
  EXPECT_EQ(log.stats().torn_tail_bytes, 0U);
}

TEST(RecoveryCorpus, BitFlipInFinalRecordTruncatesAsTornTail) {
  const std::string dir = scratch_dir("flip_tail");
  {
    SegmentLog log(log_config(dir), nullptr);
    log.append(make_record(RecordType::kDelta, 1, "t", "survivor"));
    log.append(make_record(RecordType::kDelta, 1, "t", "victim-record"));
    log.sync();
  }
  const std::string segment = seg_path(dir, 1);
  std::string data = read_file(segment);
  data[data.size() - 2] ^= 0x01;  // inside the last record's payload
  write_file(segment, data);

  LogConfig config = log_config(dir);
  std::vector<Record> seen;
  SegmentLog log(std::move(config),
                 [&seen](const Record& record, const RecordRef&) {
                   seen.push_back(record);
                 });
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_EQ(seen[0].payload, "survivor");
  EXPECT_GT(log.stats().torn_tail_bytes, 0U);

  // A second reopen sees a clean, truncated log — the corruption was
  // physically reclaimed, not just skipped.
  log.sync();
  const std::vector<Record> again = scan_all(log_config(dir));
  EXPECT_EQ(again.size(), 1U);
}

TEST(RecoveryCorpus, BitFlipMidRecordWithValidSuccessorIsFatal) {
  const std::string dir = scratch_dir("flip_mid");
  std::uint64_t first_offset = 0;
  {
    SegmentLog log(log_config(dir), nullptr);
    const RecordRef ref =
        log.append(make_record(RecordType::kDelta, 1, "t", "corrupt-me"));
    first_offset = ref.offset;
    log.append(make_record(RecordType::kDelta, 1, "t", "still-valid"));
    log.sync();
  }
  const std::string segment = seg_path(dir, 1);
  std::string data = read_file(segment);
  data[first_offset + 10] ^= 0x10;  // first record's body
  write_file(segment, data);

  try {
    scan_all(log_config(dir));
    FAIL() << "mid-log corruption must throw";
  } catch (const StoreError& error) {
    EXPECT_EQ(error.file(), segment);
    EXPECT_EQ(error.byte_offset(),
              static_cast<std::int64_t>(first_offset));
  }
}

TEST(RecoveryCorpus, BitFlipInSealedSegmentIsFatal) {
  const std::string dir = scratch_dir("flip_sealed");
  {
    LogConfig config = log_config(dir);
    config.segment_bytes = 64;  // every record seals its segment
    SegmentLog log(std::move(config), nullptr);
    log.append(make_record(RecordType::kDelta, 1, "t", std::string(60, 'a')));
    log.append(make_record(RecordType::kDelta, 1, "t", std::string(60, 'b')));
    log.sync();
  }
  std::string data = read_file(seg_path(dir, 1));
  data[40] ^= 0x04;  // mid-record in a sealed (non-final) segment
  write_file(seg_path(dir, 1), data);
  EXPECT_THROW(scan_all(log_config(dir)), StoreError);
}

TEST(RecoveryCorpus, ManifestDamageIsFatal) {
  const std::string dir = scratch_dir("manifest");
  {
    SegmentLog log(log_config(dir), nullptr);
    log.append(make_record(RecordType::kDelta, 1, "t", "x"));
    log.sync();
  }
  const std::string manifest = dir + "/manifest";
  const std::string original = read_file(manifest);

  // Bit flip in the CRC-covered body.
  std::string flipped = original;
  flipped[flipped.size() - 1] ^= 0x08;
  write_file(manifest, flipped);
  EXPECT_THROW(scan_all(log_config(dir)), StoreError);

  // Truncation.
  write_file(manifest, original.substr(0, original.size() - 2));
  EXPECT_THROW(scan_all(log_config(dir)), StoreError);

  // Restored byte-for-byte, the log opens again.
  write_file(manifest, original);
  EXPECT_EQ(scan_all(log_config(dir)).size(), 1U);
}

TEST(RecoveryCorpus, SegmentNamedByManifestMissingIsFatal) {
  const std::string dir = scratch_dir("missing_seg");
  {
    LogConfig config = log_config(dir);
    config.segment_bytes = 64;
    SegmentLog log(std::move(config), nullptr);
    log.append(make_record(RecordType::kDelta, 1, "t", std::string(60, 'a')));
    log.append(make_record(RecordType::kDelta, 1, "t", std::string(60, 'b')));
    log.sync();
  }
  fs::remove(seg_path(dir, 1));
  try {
    scan_all(log_config(dir));
    FAIL() << "a manifest-named segment must exist";
  } catch (const StoreError& error) {
    EXPECT_EQ(error.file(), seg_path(dir, 1));
  }
}

TEST(RecoveryCorpus, VerifyLogReportsWithoutThrowing) {
  const std::string dir = scratch_dir("verify");
  {
    TenantStore tenants(log_config(dir));
    tenants.append_genesis("alpha", {"a; b"});
    tenants.append_delta("alpha", "wire-bytes");
    tenants.append_base("beta", std::string(80, 'B'));
    tenants.sync();
  }
  VerifyReport healthy = verify_log(dir);
  EXPECT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.issues.empty());
  EXPECT_EQ(healthy.records, 3U);
  ASSERT_TRUE(healthy.tenants.contains("alpha"));
  ASSERT_TRUE(healthy.tenants.contains("beta"));
  EXPECT_EQ(healthy.tenants["alpha"].genesis, 1U);
  EXPECT_EQ(healthy.tenants["alpha"].deltas, 1U);
  EXPECT_EQ(healthy.tenants["beta"].bases, 1U);
  EXPECT_EQ(healthy.tenants["beta"].last_epoch, 1U);

  // Torn tail: a note, not a fatality.
  const std::string torn = scratch_dir("verify_torn");
  clone_dir(dir, torn);
  fs::resize_file(seg_path(torn, 1),
                  fs::file_size(seg_path(torn, 1)) - 3);
  VerifyReport torn_report = verify_log(torn);
  EXPECT_TRUE(torn_report.ok());
  EXPECT_GT(torn_report.torn_tail_bytes, 0U);

  // Mid-log corruption: positioned and fatal.
  const std::string bad = scratch_dir("verify_bad");
  clone_dir(dir, bad);
  std::string data = read_file(seg_path(bad, 1));
  data[20] ^= 0x20;
  write_file(seg_path(bad, 1), data);
  VerifyReport bad_report = verify_log(bad);
  EXPECT_FALSE(bad_report.ok());
  ASSERT_FALSE(bad_report.issues.empty());
  bool positioned = false;
  for (const VerifyIssue& issue : bad_report.issues) {
    positioned = positioned || (issue.fatal && issue.offset >= 0);
  }
  EXPECT_TRUE(positioned);
}

TEST(RecoveryCorpus, LogKeepsOneSegmentWhenEverythingIsDead) {
  const std::string dir = scratch_dir("one_segment");
  {
    LogConfig config = log_config(dir);
    config.segment_bytes = 64;  // every record seals its segment
    SegmentLog log(std::move(config), nullptr);
    const Record record =
        make_record(RecordType::kDelta, 1, "t", std::string(60, 'x'));
    std::vector<RecordRef> refs;
    for (int i = 0; i < 4; ++i) {
      refs.push_back(log.append(record));
    }
    log.sync();
    for (const RecordRef& ref : refs) {
      log.mark_dead(ref);
    }
    // Every sealed segment is collected; the active one never is.
    ASSERT_EQ(log.segments().size(), 1U);
    EXPECT_EQ(log.stats().segments_deleted, 4U);
  }
  LogConfig config = log_config(dir);
  SegmentLog log(std::move(config), nullptr);
  EXPECT_EQ(log.segments().size(), 1U);
  EXPECT_TRUE(verify_log(dir).issues.empty());
}

// --- replica recovery corpus -------------------------------------------
//
// The follower's recovery policy differs from the primary's: any local
// damage wipes or truncates the replica and lets the primary re-ship,
// because the primary still holds every byte.  Each case mirrors a
// multi-segment primary into a replica, damages the replica, reopens it,
// and re-ships from the reopened state() to prove it converges.

/// Every regular file in `dir` by name, with its bytes.
std::map<std::string, std::string> dir_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      files[entry.path().filename().string()] =
          read_file(entry.path().string());
    }
  }
  return files;
}

/// Flips the bits of `mask` in the byte at `offset` of `path`.
void flip_bits(const std::string& path, std::uintmax_t offset, char mask) {
  std::string data = read_file(path);
  data[offset] ^= mask;
  write_file(path, data);
}

/// A synced primary log of three segments whose active one holds three
/// records; `collect_first` also kills every record of segment 1, so
/// the primary drops it from its manifest.
void build_primary(const std::string& dir, bool collect_first = false) {
  LogConfig config = log_config(dir);
  config.segment_bytes = 96;
  SegmentLog log(std::move(config), nullptr);
  std::vector<RecordRef> refs;
  for (int i = 0; i < 11; ++i) {
    refs.push_back(log.append(make_record(RecordType::kDelta, 1, "t",
                                          "record-" + std::to_string(i))));
  }
  log.sync();
  ASSERT_EQ(log.segments().size(), 3U);
  if (collect_first) {
    for (const RecordRef& ref : refs) {
      if (ref.segment == 1) {
        log.mark_dead(ref);
      }
    }
    ASSERT_EQ(log.segments().front().id, 2U);
  }
}

/// Continues the replication stream from the replica's own state(), as
/// the primary does after a handshake: a state that is a prefix of the
/// primary resumes (drop what the primary collected, finish the active
/// segment, open the rest); anything else, including an empty replica,
/// is reset and re-shipped whole.  Appends go in `chunk`-byte pieces.
/// True when it resumed.
bool reship(const std::string& primary_dir, ReplicaLog& replica,
            std::uint64_t chunk = 1U << 20U) {
  LogConfig config = log_config(primary_dir);
  config.read_only = true;
  const SegmentLog primary(std::move(config), nullptr);
  const std::vector<SegmentView> views = primary.segments();
  const std::vector<ReplSegmentState> state = replica.state();
  const auto primary_size = [&views](std::uint32_t id) -> std::int64_t {
    for (const SegmentView& view : views) {
      if (view.id == id) {
        return static_cast<std::int64_t>(view.bytes);
      }
    }
    return -1;
  };
  // Every primary segment up to the replica's last one must be held.
  bool resume = !state.empty();
  for (const SegmentView& view : views) {
    bool held = false;
    for (const ReplSegmentState& s : state) {
      held = held || s.id == view.id;
    }
    resume = resume && (held || view.id > state.back().id);
  }
  for (std::size_t i = 0; resume && i < state.size(); ++i) {
    const std::int64_t size = primary_size(state[i].id);
    if (size < 0) {
      resume = state[i].id < views.back().id;  // collected, not ahead
      continue;
    }
    const bool last = i + 1 == state.size();
    resume = static_cast<std::int64_t>(state[i].bytes) <= size &&
             (last || static_cast<std::int64_t>(state[i].bytes) == size) &&
             crc32c(primary.read_range(state[i].id, 0, state[i].bytes)) ==
                 state[i].crc;
  }
  std::map<std::uint32_t, std::uint64_t> have;
  if (resume) {
    for (const ReplSegmentState& s : state) {
      if (primary_size(s.id) < 0) {
        replica.drop_segment(s.id);
      } else {
        have[s.id] = s.bytes;
      }
    }
  } else {
    replica.reset();
  }
  for (const SegmentView& view : views) {
    if (!have.contains(view.id)) {
      replica.open_segment(view.id);
      have[view.id] = kSegmentHeaderBytes;
    }
    for (std::uint64_t at = have[view.id]; at < view.bytes; at += chunk) {
      replica.append(view.id, at, primary.read_range(view.id, at, chunk));
    }
  }
  replica.commit();
  return resume;
}

/// Byte offsets (within its file) where each record frame of the
/// primary's segment `id` ends.
std::vector<std::uint64_t> frame_ends(const std::string& primary,
                                      std::uint32_t id) {
  std::vector<std::uint64_t> ends;
  LogConfig config = log_config(primary);
  config.read_only = true;
  SegmentLog log(std::move(config),
                 [&ends, id](const Record&, const RecordRef& ref) {
                   if (ref.segment == id) {
                     ends.push_back(ref.offset + ref.frame_bytes);
                   }
                 });
  return ends;
}

TEST(ReplicaRecovery, MirrorIsByteIdenticalWithMatchingManifests) {
  for (const bool collect_first : {false, true}) {
    const std::string primary = scratch_dir("rr_mirror_p");
    build_primary(primary, collect_first);
    const std::string dir = scratch_dir("rr_mirror_f");
    {
      ReplicaLog replica(dir);
      reship(primary, replica, 7);  // chunks split frames
      EXPECT_EQ(replica.active_segment(), 3U);
      EXPECT_EQ(replica.records_applied(), collect_first ? 7U : 11U);
    }
    // The follower's next id is max(id)+1, like the primary's, so the
    // two manifests (and every segment) are byte-identical.
    EXPECT_TRUE(dir_files(primary) == dir_files(dir))
        << "collect_first=" << collect_first;
    EXPECT_TRUE(compare_store_dirs(primary, dir).ok());
    EXPECT_TRUE(verify_log(dir).issues.empty());
  }
}

TEST(ReplicaRecovery, TornActiveSegmentAtEveryByteBoundaryHeals) {
  const std::string primary = scratch_dir("rr_torn_p");
  build_primary(primary);
  const std::vector<std::uint64_t> ends = frame_ends(primary, 3);
  ASSERT_EQ(ends.size(), 3U);
  const std::string source = scratch_dir("rr_torn_src");
  {
    ReplicaLog replica(source);
    reship(primary, replica);
  }
  const std::uint64_t full = fs::file_size(seg_path(source, 3));
  ASSERT_EQ(full, ends.back());

  const std::string work = scratch_dir("rr_torn_case");
  for (std::uint64_t cut = 0; cut < full; ++cut) {
    clone_dir(source, work);
    fs::resize_file(seg_path(work, 3), cut);
    std::uint64_t valid_end = kSegmentHeaderBytes;
    for (const std::uint64_t end : ends) {
      valid_end = end <= cut ? end : valid_end;
    }
    {
      ReplicaLog replica(work);
      if (cut < kSegmentHeaderBytes) {
        // A cut inside the header is a bad header: the replica wipes.
        EXPECT_TRUE(replica.state().empty()) << "cut at byte " << cut;
        EXPECT_FALSE(fs::exists(work + "/manifest")) << "cut at byte " << cut;
      } else {
        // Truncated at the last whole frame, not a byte further.
        EXPECT_EQ(replica.active_segment(), 3U) << "cut at byte " << cut;
        EXPECT_EQ(replica.active_size(), valid_end) << "cut at byte " << cut;
        EXPECT_EQ(fs::file_size(seg_path(work, 3)), valid_end)
            << "cut at byte " << cut;
        EXPECT_EQ(replica.stats().torn_tail_bytes, cut - valid_end)
            << "cut at byte " << cut;
      }
    }
    EXPECT_TRUE(compare_store_dirs(primary, work).ok())
        << "cut at byte " << cut;
    EXPECT_TRUE(verify_log(work).issues.empty()) << "cut at byte " << cut;

    ReplicaLog replica(work);
    reship(primary, replica);
    EXPECT_TRUE(dir_files(primary) == dir_files(work))
        << "cut at byte " << cut;
  }
}

TEST(ReplicaRecovery, DamagedManifestOrHeaderWipesTheReplica) {
  const std::string primary = scratch_dir("rr_wipe_p");
  build_primary(primary);
  const std::string source = scratch_dir("rr_wipe_src");
  {
    ReplicaLog replica(source);
    reship(primary, replica);
  }
  const std::string work = scratch_dir("rr_wipe_case");
  // Each damage, on a fresh copy: a manifest bit flip, no manifest, a
  // bit flip in the sealed segment's header, one in the active's.
  for (int damage = 0; damage < 4; ++damage) {
    clone_dir(source, work);
    const std::string manifest = work + "/manifest";
    if (damage == 0) {
      flip_bits(manifest, fs::file_size(manifest) - 1, 0x08);
    } else if (damage == 1) {
      fs::remove(manifest);
    } else if (damage == 2) {
      flip_bits(seg_path(work, 1), kSegmentHeaderBytes - 2, 0x01);
    } else {
      flip_bits(seg_path(work, 3), 3, 0x40);
    }
    {
      ReplicaLog replica(work);
      EXPECT_TRUE(replica.state().empty()) << "damage " << damage;
      EXPECT_EQ(replica.active_segment(), 0U) << "damage " << damage;
    }
    // Wiped means no segment and no manifest left behind.
    EXPECT_TRUE(dir_files(work).empty()) << "damage " << damage;
    EXPECT_TRUE(verify_log(work).issues.empty()) << "damage " << damage;

    ReplicaLog replica(work);
    reship(primary, replica);
    EXPECT_TRUE(dir_files(primary) == dir_files(work)) << "damage " << damage;
  }
}

TEST(ReplicaRecovery, OpenRemovesOrphanSegmentAndStaleManifestTmp) {
  const std::string primary = scratch_dir("rr_orphan_p");
  build_primary(primary);
  const std::string dir = scratch_dir("rr_orphan_f");
  std::vector<ReplSegmentState> before;
  {
    ReplicaLog replica(dir);
    reship(primary, replica);
    before = replica.state();
  }
  // A crash after segment 4 was created but before the manifest named
  // it, and a manifest write that died before its rename.
  write_file(seg_path(dir, 4), read_file(seg_path(dir, 3)));
  write_file(dir + "/manifest.tmp", "half a manifest");
  ReplicaLog replica(dir);
  EXPECT_FALSE(fs::exists(seg_path(dir, 4)));
  EXPECT_FALSE(fs::exists(dir + "/manifest.tmp"));
  const std::vector<ReplSegmentState> after = replica.state();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].bytes, before[i].bytes);
    EXPECT_EQ(after[i].crc, before[i].crc);
  }
  EXPECT_TRUE(dir_files(primary) == dir_files(dir));
}

TEST(ReplicaRecovery, DropActiveSegmentThenNoManifestAtZero) {
  const std::string primary = scratch_dir("rr_drop_p");
  build_primary(primary);
  const std::string dir = scratch_dir("rr_drop_f");
  {
    ReplicaLog replica(dir);
    reship(primary, replica);
    ASSERT_EQ(replica.active_segment(), 3U);
    // Dropping the active segment makes its predecessor active again,
    // at its full size.
    replica.drop_segment(3);
    EXPECT_EQ(replica.active_segment(), 2U);
    EXPECT_EQ(replica.active_size(), fs::file_size(seg_path(dir, 2)));
    EXPECT_FALSE(fs::exists(seg_path(dir, 3)));
    EXPECT_THROW(replica.append(3, kSegmentHeaderBytes, "x"), StoreError);
  }
  EXPECT_TRUE(compare_store_dirs(primary, dir).ok());
  EXPECT_TRUE(verify_log(dir).issues.empty());
  {
    ReplicaLog replica(dir);
    ASSERT_EQ(replica.state().size(), 2U);
    EXPECT_EQ(replica.active_segment(), 2U);
    replica.drop_segment(2);
    replica.drop_segment(1);
    EXPECT_TRUE(replica.state().empty());
    EXPECT_EQ(replica.active_segment(), 0U);
  }
  // Zero segments: no manifest file at all (a manifest always names at
  // least one segment).
  EXPECT_TRUE(dir_files(dir).empty());
  ReplicaLog replica(dir);
  EXPECT_TRUE(replica.state().empty());
  reship(primary, replica);
  EXPECT_TRUE(dir_files(primary) == dir_files(dir));
}

// --- tenant record semantics -------------------------------------------

TEST(TenantStoreSemantics, BaseSupersedesGenesisAndEarlierDeltas) {
  const std::string dir = scratch_dir("supersede");
  {
    TenantStore tenants(log_config(dir));
    tenants.append_genesis("t", {"p"});
    tenants.append_delta("t", "old-1");
    tenants.append_delta("t", "old-2");
    tenants.append_base("t", "IMAGE-1");
    tenants.append_delta("t", "new-1");
    tenants.sync();
    EXPECT_EQ(tenants.epoch_of("t"), 2U);
  }
  TenantStore reopened(log_config(dir));
  ASSERT_TRUE(reopened.images().contains("t"));
  const TenantImage& image = reopened.images().at("t");
  EXPECT_TRUE(image.has_base);
  EXPECT_EQ(image.base, "IMAGE-1");
  ASSERT_EQ(image.deltas.size(), 1U);
  EXPECT_EQ(image.deltas[0], "new-1");
  // The pre-base deltas attach to the old epoch during the scan and are
  // then superseded wholesale by the base — they are not orphans.
  EXPECT_EQ(reopened.stats().orphan_deltas, 0U);
}

TEST(TenantStoreSemantics, DuplicateBaseLatestWins) {
  const std::string dir = scratch_dir("dup_base");
  {
    TenantStore tenants(log_config(dir));
    tenants.append_base("t", "IMAGE-1");
    tenants.append_base("t", "IMAGE-2");
    tenants.sync();
  }
  TenantStore reopened(log_config(dir));
  const TenantImage& image = reopened.images().at("t");
  EXPECT_EQ(image.base, "IMAGE-2");
  EXPECT_EQ(image.epoch, 2U);
  EXPECT_TRUE(image.deltas.empty());
}

TEST(TenantStoreSemantics, TombstoneErasesUntilHigherEpochRebirth) {
  const std::string dir = scratch_dir("tombstone");
  {
    TenantStore tenants(log_config(dir));
    tenants.append_base("t", "IMAGE");
    tenants.append_tombstone("t");
    tenants.sync();
  }
  {
    TenantStore reopened(log_config(dir));
    EXPECT_FALSE(reopened.images().contains("t"));
    EXPECT_FALSE(reopened.contains("t"));
    // Rebirth must outrank the tombstone's epoch.
    reopened.append_genesis("t", {"p"});
    EXPECT_GT(reopened.epoch_of("t"), 2U);
    reopened.sync();
  }
  TenantStore again(log_config(dir));
  ASSERT_TRUE(again.images().contains("t"));
  EXPECT_FALSE(again.images().at("t").has_base);
}

TEST(TenantStoreSemantics, MinEpochOutranksForeignCopy) {
  const std::string dir = scratch_dir("min_epoch");
  TenantStore tenants(log_config(dir));
  tenants.append_base("t", "ADOPTED", /*min_epoch=*/9);
  EXPECT_EQ(tenants.epoch_of("t"), 9U);
  tenants.append_genesis("u", {"p"}, /*min_epoch=*/5);
  EXPECT_EQ(tenants.epoch_of("u"), 5U);
  tenants.sync();
}

TEST(TenantStoreSemantics, ReadTenantAfterDropImages) {
  const std::string dir = scratch_dir("drop");
  TenantStore tenants(log_config(dir));
  tenants.append_base("t", std::string(200, 'X'));
  tenants.append_delta("t", "delta-1");
  tenants.append_delta("t", "delta-2");
  tenants.sync();
  tenants.drop_images();
  EXPECT_TRUE(tenants.images().empty());

  const TenantImage image = tenants.read_tenant("t");
  EXPECT_TRUE(image.has_base);
  EXPECT_EQ(image.base, std::string(200, 'X'));
  ASSERT_EQ(image.deltas.size(), 2U);
  EXPECT_EQ(image.deltas[0], "delta-1");
  EXPECT_EQ(image.deltas[1], "delta-2");
  EXPECT_THROW((void)tenants.read_tenant("nobody"), StoreError);
}

TEST(TenantStoreSemantics, RebaseCollectsFullyDeadSegments) {
  const std::string dir = scratch_dir("gc");
  LogConfig config = log_config(dir);
  config.segment_bytes = 128;
  TenantStore tenants(std::move(config));
  tenants.append_base("t", std::string(100, 'A'));
  for (int i = 0; i < 30; ++i) {
    tenants.append_delta("t", std::string(60, 'd'));
  }
  tenants.sync();
  const std::uint64_t before = tenants.log_stats().segments_deleted;
  // The re-base supersedes every earlier record; sealed segments whose
  // live bytes hit zero are unlinked from the manifest.
  tenants.append_base("t", std::string(100, 'B'));
  tenants.sync();
  EXPECT_GT(tenants.log_stats().segments_deleted, before);

  TenantStore reopened(log_config(dir));
  const TenantImage& image = reopened.images().at("t");
  EXPECT_EQ(image.base, std::string(100, 'B'));
  EXPECT_TRUE(image.deltas.empty());
  EXPECT_TRUE(verify_log(dir).ok());
}

TEST(TenantStoreSemantics, ReadImagesScansForeignDirReadOnly) {
  const std::string dir = scratch_dir("foreign");
  {
    TenantStore tenants(log_config(dir));
    tenants.append_base("t", "IMAGE");
    tenants.append_delta("t", "d");
    tenants.sync();
  }
  const auto images = TenantStore::read_images(dir);
  ASSERT_TRUE(images.contains("t"));
  EXPECT_EQ(images.at("t").base, "IMAGE");
  ASSERT_EQ(images.at("t").deltas.size(), 1U);
  // A directory that does not exist is an empty store, not an error.
  EXPECT_TRUE(TenantStore::read_images(dir + "/nope").empty());
}

TEST(TenantStoreSemantics, PatternCodecRoundTrip) {
  const std::vector<std::string> patterns = {"a; b", "", "c -> d; e"};
  std::vector<std::string> out;
  ASSERT_TRUE(decode_patterns(encode_patterns(patterns), out));
  EXPECT_EQ(out, patterns);
  EXPECT_FALSE(decode_patterns("\xff\xff\xff\xff\xff", out));
}

// --- span records (spilled leaf histories) -----------------------------

/// Deterministic span fixture keyed by seq; entries strictly ascending.
SpanPayload make_span(std::uint64_t seq, std::size_t entries = 6) {
  SpanPayload span;
  span.key.pattern = static_cast<std::uint32_t>(seq % 2);
  span.key.leaf = static_cast<std::uint32_t>(seq % 3);
  span.key.trace = 1 + seq % 5;
  span.key.seq = seq;
  std::uint64_t index = 1 + seq * 100;
  for (std::size_t i = 0; i < entries; ++i) {
    span.entries.emplace_back(index, index % 7);
    index += 1 + i % 4;
  }
  return span;
}

TEST(SpanRecords, CodecRoundTripAndMalformedReject) {
  const SpanPayload span = make_span(42, 17);
  const std::string encoded = encode_span_payload(span);

  SpanPayload decoded;
  ASSERT_TRUE(decode_span_payload(encoded, decoded));
  EXPECT_EQ(decoded.key, span.key);
  EXPECT_EQ(decoded.entries, span.entries);

  SpanKey key;
  ASSERT_TRUE(decode_span_key(encoded, key));
  EXPECT_EQ(key, span.key);

  // Truncations and garbage must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    SpanPayload out;
    EXPECT_FALSE(decode_span_payload(encoded.substr(0, cut), out))
        << "cut " << cut;
  }
  SpanPayload out;
  EXPECT_FALSE(decode_span_payload("\xff\xff\xff\xff\xff\xff\xff", out));
}

TEST(SpanRecords, SurviveBaseSupersedeDieWithTombstone) {
  const std::string dir = scratch_dir("span_lifecycle");
  const SpanPayload span = make_span(1);
  {
    TenantStore tenants(log_config(dir));
    tenants.append_base("t", "IMAGE-1");
    tenants.append_span("t", span);
    // A re-base references its spilled spans by key, so the base
    // supersede must NOT kill them.
    tenants.append_base("t", "IMAGE-2");
    EXPECT_TRUE(tenants.has_span("t", span.key));
    tenants.sync();
  }
  {
    TenantStore reopened(log_config(dir));
    ASSERT_TRUE(reopened.has_span("t", span.key));
    EXPECT_EQ(reopened.read_span("t", span.key).entries, span.entries);
    EXPECT_EQ(reopened.span_count("t"), 1U);
    // The tombstone kills the incarnation's spans with it.
    reopened.append_tombstone("t");
    EXPECT_FALSE(reopened.has_span("t", span.key));
    reopened.sync();
  }
  TenantStore again(log_config(dir));
  EXPECT_EQ(again.total_spans(), 0U);
  EXPECT_FALSE(again.has_span("t", span.key));
}

TEST(SpanRecords, ReappendIsLastWinsAndReleaseIsIdempotent) {
  const std::string dir = scratch_dir("span_dedup");
  SpanPayload original = make_span(3);
  SpanPayload replacement = original;
  replacement.entries.emplace_back(10000, 1);
  {
    TenantStore tenants(log_config(dir));
    tenants.append_genesis("t", {"p"});
    tenants.append_span("t", original);
    // Crash-replay re-spills the same seq: the re-append supersedes the
    // first copy instead of duplicating it.
    tenants.append_span("t", replacement);
    EXPECT_EQ(tenants.span_count("t"), 1U);
    tenants.sync();
  }
  TenantStore reopened(log_config(dir));
  EXPECT_EQ(reopened.span_count("t"), 1U);
  EXPECT_EQ(reopened.read_span("t", original.key).entries,
            replacement.entries);
  reopened.release_span("t", original.key);
  reopened.release_span("t", original.key);  // no-op, not an error
  EXPECT_EQ(reopened.span_count("t"), 0U);
  EXPECT_THROW((void)reopened.read_span("t", original.key), StoreError);
}

TEST(SpanRecords, RetainSpansDropsCrashOrphans) {
  const std::string dir = scratch_dir("span_retain");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {"p"});
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    tenants.append_span("t", make_span(seq));
  }
  // The restored matcher only references seqs 1 and 4 — everything else
  // is a record nothing will ever fault, left by lost deltas.
  tenants.retain_spans("t", {make_span(1).key, make_span(4).key});
  EXPECT_EQ(tenants.span_count("t"), 2U);
  EXPECT_TRUE(tenants.has_span("t", make_span(1).key));
  EXPECT_FALSE(tenants.has_span("t", make_span(0).key));
  EXPECT_GE(tenants.stats().orphan_spans + tenants.stats().span_releases,
            3U);
  tenants.sync();
}

TEST(SpanRecords, RelocationPreservesPayloadAcrossCrashDuplicate) {
  const std::string dir = scratch_dir("span_reloc");
  const SpanPayload span = make_span(9, 20);
  {
    TenantStore tenants(log_config(dir));
    tenants.append_genesis("t", {"p"});
    tenants.append_span("t", span);
    // Append-then-kill: run the relocation twice to also cover the
    // crash shape where both copies land on disk before the kill.
    tenants.relocate_span("t", span.key);
    tenants.relocate_span("t", span.key);
    EXPECT_EQ(tenants.span_count("t"), 1U);
    EXPECT_EQ(tenants.read_span("t", span.key).entries, span.entries);
    EXPECT_EQ(tenants.stats().spans_relocated, 2U);
    tenants.sync();
  }
  TenantStore reopened(log_config(dir));
  EXPECT_EQ(reopened.span_count("t"), 1U);
  EXPECT_EQ(reopened.read_span("t", span.key).entries, span.entries);
}

// --- buffer pool -------------------------------------------------------

TEST(BufferPoolTier, HitsMissesAndClockEviction) {
  const std::string dir = scratch_dir("pool_clock");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {"p"});
  constexpr std::uint64_t kSpans = 16;
  for (std::uint64_t seq = 0; seq < kSpans; ++seq) {
    tenants.append_span("t", make_span(seq, 32));
  }
  tenants.sync();

  // Budget for roughly four frames: a working set of sixteen must churn.
  BufferPool pool(4 * (32 * 16 + 128));
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t seq = 0; seq < kSpans; ++seq) {
      const SpanKey key = make_span(seq).key;
      const SpanPayload* payload = pool.acquire("t", key, tenants);
      ASSERT_NE(payload, nullptr) << "seq " << seq;
      EXPECT_EQ(payload->entries, make_span(seq, 32).entries);
      pool.unpin("t", key);
    }
  }
  EXPECT_GT(pool.stats().evictions, 0U);
  EXPECT_GT(pool.stats().misses, 0U);
  EXPECT_LE(pool.stats().frames, kSpans);

  // A repeatedly-touched key stays resident: all hits after the first.
  const SpanKey hot = make_span(0).key;
  const std::uint64_t miss_before = pool.stats().misses;
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(pool.acquire("t", hot, tenants), nullptr);
    pool.unpin("t", hot);
  }
  EXPECT_LE(pool.stats().misses, miss_before + 1);
  EXPECT_EQ(pool.stats().load_errors, 0U);
}

TEST(BufferPoolTier, PinnedFramesAreNeverEvicted) {
  const std::string dir = scratch_dir("pool_pin");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {"p"});
  for (std::uint64_t seq = 0; seq < 12; ++seq) {
    tenants.append_span("t", make_span(seq, 32));
  }
  tenants.sync();

  BufferPool pool(2 * (32 * 16 + 128));  // about two frames
  const SpanKey pinned_key = make_span(0).key;
  const SpanPayload* pinned = pool.acquire("t", pinned_key, tenants);
  ASSERT_NE(pinned, nullptr);
  const auto expected = make_span(0, 32).entries;

  // Thrash far past the budget; the pinned frame must stay valid even
  // though the pool overshoots rather than evict it.
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t seq = 1; seq < 12; ++seq) {
      const SpanKey key = make_span(seq).key;
      ASSERT_NE(pool.acquire("t", key, tenants), nullptr);
      pool.unpin("t", key);
    }
  }
  EXPECT_EQ(pool.stats().pinned, 1U);
  EXPECT_EQ(pinned->entries, expected);
  pool.unpin("t", pinned_key);
  EXPECT_EQ(pool.stats().pinned, 0U);
}

TEST(BufferPoolTier, InvalidateAndLoadErrors) {
  const std::string dir = scratch_dir("pool_invalidate");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {"p"});
  tenants.append_span("t", make_span(0));
  tenants.sync();

  BufferPool pool(1 << 20);
  ASSERT_NE(pool.acquire("t", make_span(0).key, tenants), nullptr);
  pool.unpin("t", make_span(0).key);
  pool.invalidate("t", make_span(0).key);
  EXPECT_EQ(pool.stats().frames, 0U);

  // A span the store never had: counted, not fatal.
  EXPECT_EQ(pool.acquire("t", make_span(99).key, tenants), nullptr);
  EXPECT_EQ(pool.stats().load_errors, 1U);

  ASSERT_NE(pool.acquire("t", make_span(0).key, tenants), nullptr);
  pool.unpin("t", make_span(0).key);
  pool.invalidate_tenant("t");
  EXPECT_EQ(pool.stats().frames, 0U);
  EXPECT_EQ(pool.stats().bytes, 0U);
}

// --- compaction scheduler ----------------------------------------------

TEST(CompactorTier, DrainsDeadSegmentsInBoundedQuanta) {
  const std::string dir = scratch_dir("compactor_drain");
  LogConfig config = log_config(dir);
  config.segment_bytes = 1 << 10;  // several sealed span-only segments
  TenantStore tenants(std::move(config));
  tenants.append_genesis("t", {"p"});
  std::vector<SpanKey> keys;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    keys.push_back(make_span(seq, 16).key);
    tenants.append_span("t", make_span(seq, 16));
  }
  tenants.sync();
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    if (seq % 4 != 0) {
      tenants.release_span("t", keys[seq]);
    }
  }

  CompactorConfig compactor_config;
  compactor_config.dead_ratio = 0.3;
  compactor_config.quantum_spans = 4;
  Compactor compactor(tenants, compactor_config);
  const std::uint64_t deleted_before = tenants.log_stats().segments_deleted;
  int productive = 0;
  // quiesce abandons an in-flight segment plan without touching the log;
  // the next tick re-plans from the log's current usage.
  while (compactor.backlog() == 0 && productive < 64) {
    productive += compactor.tick() ? 1 : 0;
  }
  ASSERT_EQ(compactor.backlog(), 1U);
  const std::uint64_t appends = tenants.log_stats().appends;
  compactor.quiesce();
  EXPECT_EQ(compactor.backlog(), 0U);
  EXPECT_EQ(tenants.log_stats().appends, appends);
  for (int tick = 0; tick < 200; ++tick) {
    productive += compactor.tick() ? 1 : 0;
  }
  EXPECT_GT(compactor.stats().spans_moved, 0U);
  EXPECT_GT(compactor.stats().segments_planned, 0U);
  EXPECT_GT(tenants.log_stats().segments_deleted, deleted_before);
  // The quantum bounds each tick, so draining took several of them.
  EXPECT_GT(productive, 1);
  // Every surviving span reads back exactly, wherever its record moved.
  for (std::uint64_t seq = 0; seq < 64; seq += 4) {
    EXPECT_EQ(tenants.read_span("t", keys[seq]).entries,
              make_span(seq, 16).entries)
        << "seq " << seq;
  }
  tenants.sync();
  EXPECT_TRUE(verify_log(dir).ok());

  // Idle store: ticks settle to no-ops and the backlog empties.
  bool idle_work = false;
  for (int tick = 0; tick < 8; ++tick) {
    idle_work = idle_work || compactor.tick();
  }
  EXPECT_FALSE(idle_work);
  EXPECT_EQ(compactor.backlog(), 0U);
}

// --- spill-then-fault-back matcher equivalence -------------------------

/// The production sink shape (TenantHost::StoreSpanSink in
/// src/net/tenant_host.cc) rebuilt on the test's own store + pool:
/// spills append span records, faults load through the buffer pool,
/// releases kill the record and drop the frame.
class StoreBackedSink final : public SpanSink {
 public:
  StoreBackedSink(TenantStore& store, BufferPool& pool, std::string tenant)
      : store_(store), pool_(pool), tenant_(std::move(tenant)) {}

  bool spill(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq,
             std::span<const HistoryEntry> entries) override {
    SpanPayload span;
    span.key = {pattern, leaf, trace, seq};
    span.entries.reserve(entries.size());
    for (const HistoryEntry& entry : entries) {
      span.entries.emplace_back(entry.index, entry.comm_before);
    }
    store_.append_span(tenant_, span);
    ++spills;
    return true;
  }

  bool fault(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
             std::uint64_t seq, std::vector<HistoryEntry>& out) override {
    const SpanKey key{pattern, leaf, trace, seq};
    const SpanPayload* payload = pool_.acquire(tenant_, key, store_);
    if (payload == nullptr) {
      return false;
    }
    out.clear();
    out.reserve(payload->entries.size());
    for (const auto& [index, comm_before] : payload->entries) {
      out.push_back({static_cast<EventIndex>(index),
                     static_cast<std::uint32_t>(comm_before)});
    }
    pool_.unpin(tenant_, key);
    ++faults;
    return true;
  }

  void release(std::uint32_t pattern, std::uint32_t leaf, TraceId trace,
               std::uint64_t seq) override {
    const SpanKey key{pattern, leaf, trace, seq};
    pool_.invalidate(tenant_, key);
    store_.release_span(tenant_, key);
  }

  std::uint64_t spills = 0;
  std::uint64_t faults = 0;

 private:
  TenantStore& store_;
  BufferPool& pool_;
  std::string tenant_;
};

constexpr const char* kSpillPattern =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n";
/// Reads the classes of kSpillPattern (A and B) through its own leaves, so
/// the two patterns share every history the byte cap spills.
constexpr const char* kSharingPattern =
    "P := ['', A, '']; Q := ['', B, ''];\npattern := P || Q;\n";

TEST(SpanSpillEquivalence, FaultBackMatchesUnboundedRamRun) {
  StringPool pool;
  ocep::testing::RandomComputationOptions options;
  options.traces = 8;
  options.events = 1200;
  options.seed = 17;
  const EventStore events = ocep::testing::random_computation(pool, options);
  std::vector<Symbol> traces;
  for (TraceId t = 0; t < events.trace_count(); ++t) {
    traces.push_back(events.trace_name(t));
  }
  const auto feed = [&events, &traces](Monitor& monitor) {
    monitor.add_pattern(kSpillPattern);
    monitor.add_pattern(kSharingPattern);
    monitor.on_traces(traces);
    for (std::uint64_t pos = 0; pos < events.event_count(); ++pos) {
      const EventId id = events.arrival(pos);
      monitor.on_event(events.event(id), events.clock(id));
    }
  };
  const auto signatures = [](Monitor& monitor) {
    return std::vector<std::vector<std::string>>{
        ocep::testing::match_signature(monitor, 0),
        ocep::testing::match_signature(monitor, 1)};
  };

  Monitor unbounded(pool, events.storage());
  feed(unbounded);
  const std::vector<std::vector<std::string>> full = signatures(unbounded);
  ASSERT_GT(unbounded.history_bytes(), 4096U)
      << "workload too small to exercise the cap";
  ASSERT_EQ(unbounded.history_bytes(), unbounded.matcher(0).history_bytes())
      << "the patterns do not share their histories";

  // Same byte cap twice: plain eviction loses matches; the span sink
  // must spill instead and fault back to the exact unbounded result.
  MonitorConfig capped;
  capped.history_bytes_limit = 4096;

  Monitor evicting(pool, capped, events.storage());
  feed(evicting);
  const std::vector<std::vector<std::string>> lossy = signatures(evicting);
  EXPECT_TRUE(ocep::testing::is_subset_of(lossy[0], full[0]));
  EXPECT_TRUE(ocep::testing::is_subset_of(lossy[1], full[1]));

  const std::string dir = scratch_dir("spill_equiv");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {kSpillPattern, kSharingPattern});
  BufferPool frames(8 * 1024);
  StoreBackedSink sink(tenants, frames, "t");
  Monitor spilling(pool, capped, events.storage());
  spilling.set_span_sink(&sink);
  feed(spilling);

  EXPECT_GT(sink.spills, 0U) << "cap never pressured the sink — vacuous";
  EXPECT_GT(spilling.matcher(1).stats().history_spilled, 0U)
      << "no shared history spilled — vacuous";
  EXPECT_EQ(spilling.matcher(0).stats().history_spilled,
            spilling.matcher(1).stats().history_spilled);
  EXPECT_EQ(signatures(spilling), full)
      << "spill-then-fault-back must be byte-identical to unbounded RAM";
  EXPECT_LE(spilling.history_bytes(), capped.history_bytes_limit);
  tenants.sync();
  EXPECT_TRUE(verify_log(dir).ok());
}

// --- crash-point exhaustion --------------------------------------------

constexpr char kChildDone = 42;   ///< workload ran to completion
constexpr char kChildError = 7;   ///< workload threw — a real bug

/// The deterministic workload: enough appends, syncs, rotations and a
/// compaction to reach every durability edge the log has.
void crash_workload(const std::string& dir, int crash_at) {
  int edges = 0;
  LogConfig config = log_config(dir);
  config.segment_bytes = 160;  // force rotations mid-workload
  config.crash_hook = [&edges, crash_at](CrashEdge, std::string_view) {
    if (++edges == crash_at) {
      ::_Exit(0);  // the simulated kill -9, straight past destructors
    }
  };
  TenantStore tenants(std::move(config));
  tenants.append_genesis("t", {"a; b"});
  tenants.append_delta("t", "d1");
  tenants.sync();
  tenants.append_base("t", std::string(64, 'B'));
  tenants.append_delta("t", "d2");
  tenants.append_delta("t", std::string(64, 'D'));
  tenants.sync();
  tenants.append_base("t", std::string(64, 'C'));  // supersede + collect
  tenants.sync();
  ::_Exit(kChildDone);
}

/// After a crash at any edge, the surviving store must open cleanly and
/// hold exactly one of the workload's valid prefixes.
void check_crash_survivor(const std::string& dir, int crash_at) {
  ASSERT_TRUE(verify_log(dir).ok()) << "edge " << crash_at;

  TenantStore tenants(log_config(dir));
  if (tenants.contains("t")) {
    const TenantImage image = tenants.read_tenant("t");
    if (!image.has_base) {
      EXPECT_EQ(image.epoch, 1U) << "edge " << crash_at;
      EXPECT_EQ(image.patterns, std::vector<std::string>{"a; b"})
          << "edge " << crash_at;
      EXPECT_LE(image.deltas.size(), 1U) << "edge " << crash_at;
      if (!image.deltas.empty()) {
        EXPECT_EQ(image.deltas[0], "d1") << "edge " << crash_at;
      }
    } else if (image.base == std::string(64, 'B')) {
      EXPECT_EQ(image.epoch, 2U) << "edge " << crash_at;
      ASSERT_LE(image.deltas.size(), 2U) << "edge " << crash_at;
      const std::vector<std::string> expect = {"d2", std::string(64, 'D')};
      for (std::size_t i = 0; i < image.deltas.size(); ++i) {
        EXPECT_EQ(image.deltas[i], expect[i]) << "edge " << crash_at;
      }
    } else {
      EXPECT_EQ(image.base, std::string(64, 'C')) << "edge " << crash_at;
      EXPECT_EQ(image.epoch, 3U) << "edge " << crash_at;
      EXPECT_TRUE(image.deltas.empty()) << "edge " << crash_at;
    }
    // The survivor keeps working: append, sync, reopen.
    tenants.append_delta("t", "post-crash");
  } else {
    tenants.append_genesis("t", {"post"});
  }
  tenants.sync();

  TenantStore again(log_config(dir));
  EXPECT_TRUE(again.contains("t")) << "edge " << crash_at;
}

TEST(CrashExhaustion, KilledAtEveryEdgeRecoversToValidPrefix) {
  bool completed = false;
  int edges_exercised = 0;
  for (int crash_at = 1; crash_at <= 500; ++crash_at) {
    const std::string dir =
        scratch_dir("crash_" + std::to_string(crash_at));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        crash_workload(dir, crash_at);
      } catch (...) {
        ::_Exit(kChildError);
      }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "edge " << crash_at;
    ASSERT_NE(WEXITSTATUS(status), kChildError) << "edge " << crash_at;
    if (WEXITSTATUS(status) == kChildDone) {
      // Every edge before this one has been killed and checked.
      completed = true;
      edges_exercised = crash_at - 1;
      break;
    }
    check_crash_survivor(dir, crash_at);
    fs::remove_all(dir);
  }
  ASSERT_TRUE(completed) << "workload never ran out of edges to kill";
  // The workload must actually reach a healthy spread of edges (appends,
  // segment syncs, rotations, manifest writes, renames, compaction).
  EXPECT_GE(edges_exercised, 30);
}

/// Span-tier crash workload: spans appended, released, re-appended
/// (the crash-replay dedup shape) and relocated by a ticking compactor,
/// then a re-base — every span-append and compaction edge gets killed.
void span_crash_workload(const std::string& dir, int crash_at) {
  int edges = 0;
  LogConfig config = log_config(dir);
  config.segment_bytes = 200;  // rotations mid-workload
  config.crash_hook = [&edges, crash_at](CrashEdge, std::string_view) {
    if (++edges == crash_at) {
      ::_Exit(0);
    }
  };
  TenantStore tenants(std::move(config));
  tenants.append_genesis("t", {"a; b"});
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    tenants.append_span("t", make_span(seq));
  }
  tenants.sync();
  for (std::uint64_t seq = 0; seq < 6; seq += 2) {
    tenants.release_span("t", make_span(seq).key);
  }
  tenants.append_span("t", make_span(1));  // idempotent re-spill
  tenants.sync();
  CompactorConfig compactor_config;
  compactor_config.dead_ratio = 0.2;
  compactor_config.quantum_spans = 2;
  Compactor compactor(tenants, compactor_config);
  for (int tick = 0; tick < 24; ++tick) {
    compactor.tick();
  }
  tenants.sync();
  tenants.append_base("t", std::string(64, 'B'));
  tenants.sync();
  ::_Exit(kChildDone);
}

/// Whatever edge the kill landed on, every surviving span must decode to
/// exactly what the workload wrote — relocation's append-then-kill may
/// leave two copies, never a wrong or torn-but-live one.
void check_span_crash_survivor(const std::string& dir, int crash_at) {
  ASSERT_TRUE(verify_log(dir).ok()) << "edge " << crash_at;

  TenantStore tenants(log_config(dir));
  if (tenants.contains("t")) {
    EXPECT_LE(tenants.span_count("t"), 6U) << "edge " << crash_at;
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      const SpanPayload expected = make_span(seq);
      if (!tenants.has_span("t", expected.key)) {
        continue;  // released, or the append never landed
      }
      EXPECT_EQ(tenants.read_span("t", expected.key).entries,
                expected.entries)
          << "edge " << crash_at << " seq " << seq;
    }
    // The survivor keeps working: spill, relocate, sync, reopen.
    tenants.append_span("t", make_span(7));
    tenants.relocate_span("t", make_span(7).key);
  } else {
    tenants.append_genesis("t", {"post"});
    tenants.append_span("t", make_span(7));
  }
  tenants.sync();

  TenantStore again(log_config(dir));
  ASSERT_TRUE(again.has_span("t", make_span(7).key)) << "edge " << crash_at;
  EXPECT_EQ(again.read_span("t", make_span(7).key).entries,
            make_span(7).entries)
      << "edge " << crash_at;
}

TEST(CrashExhaustion, SpanAndCompactionEdgesRecoverToValidPrefix) {
  bool completed = false;
  int edges_exercised = 0;
  for (int crash_at = 1; crash_at <= 800; ++crash_at) {
    const std::string dir =
        scratch_dir("span_crash_" + std::to_string(crash_at));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        span_crash_workload(dir, crash_at);
      } catch (...) {
        ::_Exit(kChildError);
      }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "edge " << crash_at;
    ASSERT_NE(WEXITSTATUS(status), kChildError) << "edge " << crash_at;
    if (WEXITSTATUS(status) == kChildDone) {
      completed = true;
      edges_exercised = crash_at - 1;
      break;
    }
    check_span_crash_survivor(dir, crash_at);
    fs::remove_all(dir);
  }
  ASSERT_TRUE(completed) << "workload never ran out of edges to kill";
  // Span appends, releases, the relocation appends + kills, and the
  // closing re-base must all contribute edges.
  EXPECT_GE(edges_exercised, 40);
}

/// One frame of a replication stream, as the standby applies it.
struct ReplStep {
  ReplFrameType type = ReplFrameType::kReset;
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::string bytes;
};

/// How often each crash edge fired.
using EdgeCounts = std::map<std::pair<CrashEdge, std::string>, int>;

/// After a primary group commit, queues what a replicator ships: drops
/// of collected segments, opens of new ones, the new durable bytes in
/// 24-byte appends (so frames split across appends), then a commit.
void ship_commit(const SegmentLog& log,
                 std::map<std::uint32_t, std::uint64_t>& shipped,
                 std::vector<ReplStep>& steps) {
  const std::vector<SegmentView> views = log.segments();
  for (auto it = shipped.begin(); it != shipped.end();) {
    bool listed = false;
    for (const SegmentView& view : views) {
      listed = listed || view.id == it->first;
    }
    if (listed) {
      ++it;
    } else {
      steps.push_back({ReplFrameType::kDrop, it->first, 0, {}});
      it = shipped.erase(it);
    }
  }
  for (const SegmentView& view : views) {
    if (!shipped.contains(view.id)) {
      steps.push_back({ReplFrameType::kOpenSegment, view.id, 0, {}});
      shipped[view.id] = kSegmentHeaderBytes;
    }
    for (std::uint64_t& at = shipped[view.id]; at < view.bytes;) {
      std::string chunk = log.read_range(view.id, at, 24);
      steps.push_back({ReplFrameType::kAppend, view.id, at, chunk});
      at += chunk.size();
    }
  }
  steps.push_back({ReplFrameType::kCommit, 0, 0, {}});
}

/// Runs a primary workload in `dir` — group commits, rotations and a
/// compaction that collects segment 1 — and returns the stream that
/// mirrors it, starting with a reset.  `edges` counts the crash edges
/// the primary fired.
std::vector<ReplStep> primary_stream(const std::string& dir,
                                     EdgeCounts& edges) {
  LogConfig config = log_config(dir);
  config.segment_bytes = 96;
  config.crash_hook = [&edges](CrashEdge edge, std::string_view detail) {
    edges[{edge, std::string(detail)}] += 1;
  };
  SegmentLog log(std::move(config), nullptr);
  std::vector<ReplStep> steps{{ReplFrameType::kReset, 0, 0, {}}};
  std::map<std::uint32_t, std::uint64_t> shipped;
  std::vector<RecordRef> refs;
  int next = 0;
  const auto append = [&](int count) {
    for (int i = 0; i < count; ++i, ++next) {
      refs.push_back(log.append(make_record(RecordType::kDelta, 1, "t",
                                            "r-" + std::to_string(next))));
    }
    log.sync();
    ship_commit(log, shipped, steps);
  };
  append(3);
  append(4);  // rotates
  append(3);  // rotates again
  for (const RecordRef& ref : refs) {
    if (ref.segment == 1) {
      log.mark_dead(ref);
    }
  }
  append(2);  // ships the drop of segment 1 first
  EXPECT_EQ(log.segments().front().id, 2U) << "segment 1 never collected";
  return steps;
}

void apply_step(ReplicaLog& replica, const ReplStep& step) {
  switch (step.type) {
    case ReplFrameType::kReset:
      replica.reset();
      break;
    case ReplFrameType::kOpenSegment:
      replica.open_segment(step.id);
      break;
    case ReplFrameType::kAppend:
      replica.append(step.id, step.offset, step.bytes);
      break;
    case ReplFrameType::kCommit:
      replica.commit();
      break;
    case ReplFrameType::kDrop:
      replica.drop_segment(step.id);
      break;
    case ReplFrameType::kAck:
      break;
  }
}

TEST(CrashExhaustion, ReplicaKilledAtEveryEdgeResumesToByteIdentical) {
  const std::string primary = scratch_dir("repl_crash_primary");
  EdgeCounts primary_edges;
  const std::vector<ReplStep> steps = primary_stream(primary, primary_edges);

  // The follower writes through the primary's segment code, so a clean
  // run of the stream fires the primary's crash edges as often as the
  // primary did (its group commits, seals, segment creations and
  // manifest writes), except appends: it writes shipped chunks, not
  // records.
  {
    const std::string dir = scratch_dir("repl_crash_clean");
    EdgeCounts replica_edges;
    const auto tally = [&replica_edges](CrashEdge edge,
                                        std::string_view detail) {
      replica_edges[{edge, std::string(detail)}] += 1;
    };
    ReplicaLog replica(dir, tally);
    int appends = 0;
    for (const ReplStep& step : steps) {
      apply_step(replica, step);
      appends += step.type == ReplFrameType::kAppend ? 1 : 0;
    }
    for (const char* phase : {"pre:append", "post:append"}) {
      const std::pair<CrashEdge, std::string> edge{CrashEdge::kWrite, phase};
      EXPECT_EQ(replica_edges[edge], appends) << phase;
      replica_edges.erase(edge);
      primary_edges.erase(edge);
    }
    EXPECT_EQ(replica_edges, primary_edges);
    EXPECT_TRUE(dir_files(primary) == dir_files(dir));
    fs::remove_all(dir);
  }

  bool completed = false;
  int edges_exercised = 0;
  int resumed = 0;
  for (int crash_at = 1; crash_at <= 500; ++crash_at) {
    const std::string dir =
        scratch_dir("repl_crash_" + std::to_string(crash_at));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        int edges = 0;
        const auto die = [&edges, crash_at](CrashEdge, std::string_view) {
          if (++edges == crash_at) {
            ::_Exit(0);  // the simulated kill -9
          }
        };
        ReplicaLog replica(dir, die);
        for (const ReplStep& step : steps) {
          apply_step(replica, step);
        }
      } catch (...) {
        ::_Exit(kChildError);
      }
      ::_Exit(kChildDone);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "edge " << crash_at;
    ASSERT_NE(WEXITSTATUS(status), kChildError) << "edge " << crash_at;
    if (WEXITSTATUS(status) == kChildDone) {
      completed = true;
      edges_exercised = crash_at - 1;
      break;
    }
    // The survivor reopens clean and is a byte prefix of the primary...
    { ReplicaLog survivor(dir); }
    const VerifyReport report = verify_log(dir);
    EXPECT_TRUE(report.issues.empty())
        << "edge " << crash_at << ": " << report.issues.front().message;
    EXPECT_TRUE(compare_store_dirs(primary, dir).ok()) << "edge " << crash_at;
    // ...and the stream continued from its own state() converges.
    ReplicaLog survivor(dir);
    resumed += reship(primary, survivor, 24) ? 1 : 0;
    EXPECT_TRUE(dir_files(primary) == dir_files(dir)) << "edge " << crash_at;
    fs::remove_all(dir);
  }
  ASSERT_TRUE(completed) << "stream never ran out of edges to kill";
  // Opens, appends, commits, seals and the drop all contribute edges,
  // and most kills leave a prefix the stream resumes from.
  EXPECT_GE(edges_exercised, 60);
  EXPECT_GT(resumed, edges_exercised / 2);
}

// --- durable small-file helper (satellite 1) ---------------------------

TEST(DurableWrite, ReplacesFileAtomicallyAndCleansTmp) {
  const std::string dir = scratch_dir("durable");
  fs::create_directories(dir);
  const std::string path = dir + "/placement.map";
  ASSERT_TRUE(write_file_durable(path, "first contents"));
  EXPECT_EQ(read_file(path), "first contents");
  ASSERT_TRUE(write_file_durable(path, "second"));
  EXPECT_EQ(read_file(path), "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // A missing parent directory fails cleanly instead of throwing.
  EXPECT_FALSE(write_file_durable(dir + "/nope/file", "x"));
}

}  // namespace
