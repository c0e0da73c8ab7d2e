// Golden-file test for the dump format (poet/dump.cc).
//
// tools/zk962_golden.poet is a committed recording of the leader-follower
// (ZooKeeper-962) application: 342 events on 4 traces with two injected
// violations (`ocep_record --app ordering --traces 4 --events 400
// --seed 1`).  The test pins both the byte-level format and the match
// semantics: reload + re-dump must reproduce the file exactly, and the
// zk962 pattern must keep reporting the same matches.  If either fails,
// the wire format or the matcher drifted — regenerate the golden file
// only for a deliberate, documented format change.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/string_pool.h"
#include "core/monitor.h"
#include "poet/dump.h"

namespace ocep {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string golden_path() {
  return std::string(OCEP_SOURCE_DIR) + "/tools/zk962_golden.poet";
}

TEST(GoldenDump, RedumpIsByteIdentical) {
  const std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty());

  StringPool pool;
  std::istringstream in(golden);
  const EventStore store = reload_store(in, pool);
  EXPECT_EQ(store.trace_count(), 4U);
  EXPECT_EQ(store.event_count(), 342U);

  std::ostringstream out;
  dump(store, pool, out);
  const std::string redump = out.str();
  ASSERT_EQ(redump.size(), golden.size());
  EXPECT_EQ(redump, golden);

  // And the re-dump is itself a fixed point.
  StringPool pool2;
  std::istringstream in2(redump);
  const EventStore store2 = reload_store(in2, pool2);
  std::ostringstream out2;
  dump(store2, pool2, out2);
  EXPECT_EQ(out2.str(), golden);
}

TEST(GoldenDump, MatchResultsAreStableAfterReload) {
  const std::string pattern =
      read_file(std::string(OCEP_SOURCE_DIR) + "/tools/zk962.ocep");
  const std::string golden = read_file(golden_path());

  StringPool pool;
  Monitor monitor(pool);
  std::uint64_t reported = 0;
  monitor.add_pattern(pattern, MatcherConfig{},
                      [&](const Match&, bool) { ++reported; });

  std::istringstream in(golden);
  reload(in, pool, monitor);

  // Frozen when the golden file was recorded: two reported matches, one
  // representative after subset reduction.
  EXPECT_EQ(reported, 2U);
  const MatcherStats& stats = monitor.matcher(0).stats();
  EXPECT_EQ(stats.events_observed, 342U);
  EXPECT_EQ(stats.matches_reported, 2U);
  EXPECT_EQ(monitor.matcher(0).subset().matches().size(), 1U);
}

}  // namespace
}  // namespace ocep
