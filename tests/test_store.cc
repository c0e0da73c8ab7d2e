// Durability-store suite (ctest -L store): the segment log's crash
// contract, the recovery corpus (torn tails at every byte boundary,
// bit flips, manifest damage, missing segments), tenant-record
// semantics (base supersession, tombstones, orphan deltas, GC), the
// span storage tier (span record semantics, buffer pool, compactor,
// spill-then-fault-back matcher equivalence), and fork-based
// crash-point exhaustions that kill deterministic workloads at every
// write/fsync/rename edge and prove the survivor is always a valid
// prefix.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/durable.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "core/monitor.h"
#include "core/span_sink.h"
#include "random_computation.h"
#include "store/buffer_pool.h"
#include "store/compactor.h"
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

/// The production sink shape (src/net/shard.cc) rebuilt on the test's
/// own store + pool: spills append span records, faults load through
/// the buffer pool, releases kill the record and drop the frame.
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
    monitor.on_traces(traces);
    for (std::uint64_t pos = 0; pos < events.event_count(); ++pos) {
      const EventId id = events.arrival(pos);
      monitor.on_event(events.event(id), events.clock(id));
    }
  };

  Monitor unbounded(pool, events.storage());
  unbounded.add_pattern(kSpillPattern);
  feed(unbounded);
  const std::vector<std::string> full =
      ocep::testing::match_signature(unbounded, 0);
  ASSERT_GT(unbounded.matcher(0).history_bytes(), 4096U)
      << "workload too small to exercise the cap";

  // Same byte cap twice: plain eviction loses matches; the span sink
  // must spill instead and fault back to the exact unbounded result.
  MatcherConfig capped;
  capped.history_bytes_limit = 4096;

  Monitor evicting(pool, events.storage());
  evicting.add_pattern(kSpillPattern, capped);
  feed(evicting);
  const std::vector<std::string> lossy =
      ocep::testing::match_signature(evicting, 0);
  EXPECT_TRUE(ocep::testing::is_subset_of(lossy, full));

  const std::string dir = scratch_dir("spill_equiv");
  TenantStore tenants(log_config(dir));
  tenants.append_genesis("t", {kSpillPattern});
  BufferPool frames(8 * 1024);
  StoreBackedSink sink(tenants, frames, "t");
  Monitor spilling(pool, events.storage());
  spilling.add_pattern(kSpillPattern, capped);
  spilling.set_span_sink(&sink);
  feed(spilling);

  EXPECT_GT(sink.spills, 0U) << "cap never pressured the sink — vacuous";
  EXPECT_EQ(ocep::testing::match_signature(spilling, 0), full)
      << "spill-then-fault-back must be byte-identical to unbounded RAM";
  EXPECT_LE(spilling.matcher(0).history_bytes(),
            capped.history_bytes_limit);
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
