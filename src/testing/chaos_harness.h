// End-to-end chaos harness: replays a recorded computation through
// SessionServer -> FaultyChannel -> SessionClient -> Monitor and reports
// what survived.
//
// The harness owns the pump loop and its two subtleties:
//  * Resync requests are queued by the transport and answered between
//    feed() calls, never from inside one — re-entering the client's frame
//    parser from its own release path would corrupt its state.
//  * The channel is closed (finish_input) only after the server finished
//    and the reorder hold was flushed, then the client is ticked until it
//    reaches a terminal state: fully recovered, or degraded-and-flushed.
//
// Everything is deterministic in the fault seed, so a failing chaos run
// reproduces from its (seed, fault spec) pair alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_pool.h"
#include "core/monitor.h"
#include "poet/event_store.h"
#include "poet/session.h"
#include "testing/faulty_channel.h"

namespace ocep::testing {

struct ChaosOptions {
  FaultSpec faults;
  /// Bytes per SessionClient::feed() call; small values exercise partial-
  /// frame reassembly.  0 = hand each delivered frame over in one piece.
  std::size_t feed_chunk = 0;
};

struct ChaosResult {
  bool done = false;       ///< client reached a terminal state
  bool degraded = false;   ///< sheds / free-run / exhausted resyncs occurred
  IngestStats ingest;
  FaultyChannel::Stats faults;
  std::uint64_t events_delivered = 0;  ///< events the monitor saw
  /// Sorted representative-match signatures (see match_signature).
  std::vector<std::string> matches;
};

/// Formats pattern `index`'s representative subset as a sorted list of
/// "trace:index;trace:index;..." binding signatures — a set-comparable
/// fingerprint that is stable across independent runs.
[[nodiscard]] std::vector<std::string> match_signature(Monitor& monitor,
                                                       std::size_t index);

/// Replays `source` (in arrival order) through the faulty session and a
/// monitor matching `pattern_text`.  Deterministic in options.faults.seed.
/// A client still short of a terminal state kSettleTicks ticks after the
/// stream ended reports done = false (livelocked, which the chaos tests
/// treat as failure).
[[nodiscard]] ChaosResult run_chaos(const EventStore& source,
                                    StringPool& pool,
                                    const std::string& pattern_text,
                                    const ChaosOptions& options);

/// Clean-channel reference: the same monitor fed directly, no session.
[[nodiscard]] std::vector<std::string> clean_matches(
    const EventStore& source, StringPool& pool,
    const std::string& pattern_text);

/// True when every signature in `subset` also appears in `superset`
/// (both sorted, as match_signature returns them).
[[nodiscard]] bool is_subset_of(const std::vector<std::string>& subset,
                                const std::vector<std::string>& superset);

}  // namespace ocep::testing
