// Sessionized, loss-tolerant event transport (the fault-tolerance layer on
// top of the POET wire idea, paper §V-A).
//
// The plain wire format (poet/wire.h) assumes a clean channel: one flipped
// bit desynchronizes the stream and the reader dies.  A *session* instead
// wraps every message in a self-contained frame:
//
//   marker(2) | seq varint | len varint | crc32c(4, LE) | payload
//
// The CRC covers the seq and len varints plus the payload, so corruption is
// detected per frame; the reader then scans forward to the next marker and
// keeps going.  Unlike the wire format, session payloads are independently
// decodable — events carry full vector clocks and inline attribute strings
// instead of deltas and symbol-table references, because delta encoding
// couples frames and turns one loss into a cascade.  Sessions trade bytes
// for recoverability; the loss-free dump/wire formats keep their deltas.
//
// Every event frame carries the event's global arrival position.  The
// client releases decoded events in contiguous position order, which makes
// the recovered delivery order identical to the server's arrival order —
// and therefore the representative match set identical to a clean run.
// A persistent hole in the positions (or a corrupted stream head) triggers
// the resync handshake: the client sends a RESYNC carrying its position
// watermark over the (typed, in-process) reverse channel; the server
// answers with snapshot frames — trace table, totals, and the missing
// events with full clocks, chunked to respect the frame size bound —
// re-encoded over the same lossy forward channel.  Retries use bounded
// exponential backoff with a configurable attempt budget; on exhaustion the
// client *free-runs*: it releases what it has and lets the linearizer's
// shed policy synthesize the rest, so the run completes degraded-but-
// reported, never silently diverged and never deadlocked.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "causality/vector_clock.h"
#include "common/string_pool.h"
#include "model/event.h"
#include "obs/metrics.h"
#include "poet/client.h"
#include "poet/linearizer.h"

namespace ocep {

/// Receiver of the forward byte stream (the lossy direction).  The chaos
/// harness interposes a FaultyChannel here; production would be a socket.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void write(std::string_view bytes) = 0;
};

/// A client's request to refill the stream from `next_position` onward.
struct ResyncRequest {
  std::uint64_t request_id = 0;
  std::uint64_t next_position = 0;  ///< first global position the client lacks
};

/// Reverse channel for resync requests.  Deliberately a typed in-process
/// interface, not a byte protocol: the reverse direction carries a few
/// dozen bytes per recovery and is assumed reliable (TCP-like); only the
/// high-volume forward direction gets the lossy-channel treatment.
class ResyncTransport {
 public:
  virtual ~ResyncTransport() = default;
  virtual void request_resync(const ResyncRequest& request) = 0;
};

struct SessionConfig {
  /// Upper bound on one frame's payload; longer advertised lengths are
  /// treated as corruption.  Snapshots are chunked to respect it.
  std::uint32_t max_frame_payload = 1U << 16U;
  /// Ticks (feed/tick calls) a position gap may persist before the client
  /// requests a resync.
  std::uint64_t resync_grace = 8;
  /// Backoff before the first resync retry, doubling per attempt.
  std::uint64_t backoff_initial = 16;
  std::uint64_t backoff_max = 1024;
  /// Resync attempts before the client gives up and free-runs.
  std::uint32_t max_resync_attempts = 8;
  /// Degradation policy of the embedded linearizer (watermarks, shed/block,
  /// placeholder type are all configured here).
  LinearizerConfig linearizer;
};

/// Server half: encodes events into session frames and answers resyncs
/// from a retained copy of the stream.  Retention is currently unbounded
/// (the whole computation); a checkpoint horizon would bound it in a
/// longer-lived deployment.
class SessionServer {
 public:
  struct Stats {
    std::uint64_t frames_written = 0;
    std::uint64_t events_written = 0;
    std::uint64_t resyncs_served = 0;
    std::uint64_t snapshot_frames = 0;
  };

  /// Emits the HELLO frame announcing `names`.  `out` and `pool` must
  /// outlive the server.
  SessionServer(ByteSink& out, const StringPool& pool,
                const std::vector<Symbol>& names, SessionConfig config = {});

  /// Streams one event (in linearization order, per-trace indexes
  /// contiguous from 1, global positions implicit and contiguous).
  void write(const Event& event, const VectorClock& clock);

  /// Emits the BYE frame carrying the final event total.
  void finish();

  /// Answers a client resync: snapshot frames with the trace table, the
  /// stream totals, and every retained event from `next_position` on.
  void handle_resync(const ResyncRequest& request);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Retained {
    Event event;
    std::vector<std::uint32_t> clock;
  };

  void emit_frame(std::string_view payload);
  void append_event_body(std::string& out, const Retained& retained) const;

  ByteSink& out_;
  const StringPool& pool_;
  SessionConfig config_;
  std::vector<Symbol> names_;
  std::vector<Retained> retained_;
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;
  Stats stats_;
};

/// Client half: reassembles frames from a lossy byte stream, releases
/// events to an embedded Linearizer in global-position order, and drives
/// the resync state machine.  Feed bytes with feed(); call tick() when
/// idle so stall detection and backoff advance; finish_input() once the
/// channel is known closed.
class SessionClient {
 public:
  SessionClient(EventSink& sink, StringPool& pool, ResyncTransport& transport,
                SessionConfig config = {});

  /// Registers session + linearizer instruments (session.*, linearizer.*,
  /// including linearizer.resyncs).  Call before the first feed().
  void bind_metrics(obs::Registry& registry);

  /// Appends received bytes and processes every complete frame.
  void feed(std::string_view bytes);

  /// Advances session time without new bytes (idle poll): ages gaps,
  /// fires due resyncs, detects stalls.
  void tick();

  /// Declares the forward channel closed: any outstanding gap goes through
  /// the resync budget, then the stream is flushed (shedding if degraded).
  void finish_input();

  /// True once the trace table is known, every expected event has been
  /// released, and nothing is pending — or the degraded flush completed.
  [[nodiscard]] bool done() const;

  /// True when any fault handling changed the delivered stream or required
  /// giving up on a resync (sheds, placeholders, free-run).  A run that
  /// recovered purely via resync is NOT degraded.
  [[nodiscard]] bool degraded() const;

  /// Combined session + linearizer counters.
  [[nodiscard]] IngestStats stats() const;

  /// First global position not yet released to the sink.
  [[nodiscard]] std::uint64_t next_position() const noexcept {
    return next_release_;
  }

  /// CRC-verified frames accepted so far (wire-level accounting).
  [[nodiscard]] std::uint64_t frames_ok() const noexcept {
    return frames_ok_;
  }

  /// Serializes the ingestion state (release watermark, decoded-but-
  /// unreleased events, linearizer holds and counters) so a restarted
  /// client can resume and re-request the tail via resync.
  void checkpoint(std::ostream& out) const;
  void restore(std::istream& in);

 private:
  struct Decoded {
    Event event;
    VectorClock clock;
  };

  void process_buffer();
  bool try_parse_frame();
  void handle_payload(std::string_view payload);
  void handle_hello(std::string_view payload);
  void handle_event(std::string_view payload);
  void handle_snapshot(std::string_view payload);
  void handle_bye(std::string_view payload);
  void accept_event(std::uint64_t position, Decoded decoded);
  void announce_traces(const std::vector<std::string>& names);
  void release_ready();
  void note_corrupt(std::size_t skipped);
  [[nodiscard]] bool gap_open() const;
  void advance_clock();
  void issue_resync();
  void enter_free_run();
  void drain_decoded();
  void flush_degraded();

  EventSink& sink_;
  StringPool& pool_;
  ResyncTransport& transport_;
  SessionConfig config_;
  obs::Registry* registry_ = nullptr;
  std::optional<Linearizer> linearizer_;
  std::vector<Symbol> trace_names_;
  bool traces_known_ = false;

  std::string buffer_;
  std::size_t buffer_pos_ = 0;

  std::map<std::uint64_t, Decoded> decoded_;  // position -> event, unreleased
  std::uint64_t next_release_ = 0;
  std::uint64_t expected_seq_ = 0;
  std::uint64_t total_events_ = 0;
  bool total_known_ = false;
  bool input_done_ = false;
  bool free_run_ = false;
  bool flushed_ = false;

  // Resync state machine.
  std::uint64_t ticks_ = 0;
  std::uint64_t gap_since_ = 0;       ///< tick when the open gap appeared
  bool gap_timed_ = false;
  std::uint64_t resync_deadline_ = 0;  ///< next tick a retry may fire
  std::uint32_t resync_attempts_ = 0;
  bool resync_in_flight_ = false;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t degraded_since_ = 0;

  // Session counters (linearizer keeps its own; stats() merges).
  std::uint64_t frames_ok_ = 0;
  std::uint64_t frames_corrupt_ = 0;
  std::uint64_t frames_gap_ = 0;
  std::uint64_t bytes_skipped_ = 0;
  std::uint64_t dup_positions_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t resync_failures_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t recovery_ticks_ = 0;

  obs::Counter* resync_counter_ = nullptr;
  obs::Counter* corrupt_counter_ = nullptr;
  obs::Counter* gap_counter_ = nullptr;
  obs::Counter* snapshot_counter_ = nullptr;
};

}  // namespace ocep
