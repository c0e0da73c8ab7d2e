#include "poet/session.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "common/assert.h"
#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "poet/event_record.h"
#include "poet/varint.h"

namespace ocep {
namespace {

// Frame marker: two bytes that are unlikely to appear adjacently in varint
// payloads, used to find the next frame boundary after corruption.
constexpr char kMarker[2] = {'\xa7', '\x0c'};

/// Events per SNAPSHOT frame, at most; the frame bound may cut a frame
/// shorter.  Below 128, so the count's varint is one byte.
constexpr std::uint64_t kSnapshotChunk = 64;
static_assert(kSnapshotChunk < 128);

enum class Payload : std::uint8_t {
  kHello = 1,
  kEvent = 2,
  kSnapshot = 3,
  kBye = 4,
};

}  // namespace

// --- SessionServer ----------------------------------------------------------

SessionServer::SessionServer(ByteSink& out, const StringPool& pool,
                             const std::vector<Symbol>& names)
    : out_(out), pool_(pool), names_(names) {
  OCEP_ASSERT_MSG(!names_.empty(), "session needs at least one trace");
  std::string payload;
  payload.push_back(static_cast<char>(Payload::kHello));
  put_varint(payload, names_.size());
  for (const Symbol name : names_) {
    put_string(payload, pool_.view(name));
  }
  emit_frame(payload);
}

void SessionServer::write(const Event& event, const VectorClock& clock) {
  OCEP_ASSERT_MSG(!finished_, "write after finish()");
  OCEP_ASSERT(event.id.trace < names_.size());
  Retained retained;
  retained.event = event;
  retained.clock.assign(clock.entries().begin(), clock.entries().end());
  const std::uint64_t position = retained_.size();
  retained_.push_back(std::move(retained));

  std::string payload;
  payload.push_back(static_cast<char>(Payload::kEvent));
  put_varint(payload, position);
  append_event_record(payload, event, clock.entries(), pool_);
  emit_frame(payload);
  ++stats_.events_written;
}

void SessionServer::finish() {
  OCEP_ASSERT_MSG(!finished_, "finish() called twice");
  finished_ = true;
  std::string payload;
  payload.push_back(static_cast<char>(Payload::kBye));
  put_varint(payload, retained_.size());
  emit_frame(payload);
}

void SessionServer::handle_resync(const ResyncRequest& request) {
  ++stats_.resyncs_served;
  // Chunked so every snapshot frame respects the payload bound: at most
  // kSnapshotChunk events, and no more than fit the bound alongside the
  // trace table, but always at least one.  Even an empty chunk is sent: it
  // carries the trace table and totals, which is exactly what a client
  // that lost HELLO or BYE needs.
  std::uint64_t position =
      std::min<std::uint64_t>(request.next_position, retained_.size());
  std::string events;
  std::string record;
  bool first = true;
  while (first || position < retained_.size()) {
    first = false;
    std::string payload;
    payload.push_back(static_cast<char>(Payload::kSnapshot));
    put_varint(payload, request.request_id);
    put_varint(payload, names_.size());
    for (const Symbol name : names_) {
      put_string(payload, pool_.view(name));
    }
    put_varint(payload, retained_.size());
    payload.push_back(finished_ ? '\1' : '\0');
    put_varint(payload, position);
    events.clear();
    std::uint64_t count = 0;
    while (count < kSnapshotChunk && position + count < retained_.size()) {
      record.clear();
      const Retained& next = retained_[position + count];
      append_event_record(record, next.event, next.clock, pool_);
      // + 1: the count varint that precedes the records.
      if (count > 0 && payload.size() + 1 + events.size() + record.size() >
                           kMaxFramePayload) {
        break;
      }
      events += record;
      ++count;
    }
    put_varint(payload, count);
    payload += events;
    position += count;
    emit_frame(payload);
    ++stats_.snapshot_frames;
  }
}

void SessionServer::emit_frame(std::string_view payload) {
  OCEP_ASSERT_MSG(payload.size() <= kMaxFramePayload,
                  "frame payload exceeds the frame bound");
  std::string header;
  put_varint(header, next_seq_++);
  put_varint(header, payload.size());
  const std::uint32_t crc = crc32c(payload, crc32c(header));

  std::string frame;
  frame.reserve(sizeof(kMarker) + header.size() + 4 + payload.size());
  frame.append(kMarker, sizeof(kMarker));
  frame.append(header);
  put_u32le(frame, crc);
  frame.append(payload);
  out_.write(frame);
  ++stats_.frames_written;
}

// --- SessionClient ----------------------------------------------------------

SessionClient::SessionClient(EventSink& sink, StringPool& pool,
                             ResyncTransport& transport)
    : sink_(sink),
      pool_(pool),
      transport_(transport),
      shed_type_(pool.intern(kShedType)) {}

void SessionClient::bind_metrics(obs::Registry& registry) {
  registry_ = &registry;
  resync_counter_ = &registry.counter("linearizer.resyncs", "",
                                      "resync requests issued");
  corrupt_counter_ = &registry.counter("session.frames_corrupt", "",
                                       "frames dropped by CRC or framing");
  gap_counter_ = &registry.counter("session.frames_gap", "",
                                   "sequence numbers never seen");
  snapshot_counter_ = &registry.counter("session.snapshots", "",
                                        "snapshot frames applied");
}

void SessionClient::feed(std::string_view bytes) {
  buffer_.append(bytes);
  ++ticks_;
  process_buffer();
  advance_clock();
}

void SessionClient::tick() {
  ++ticks_;
  process_buffer();
  advance_clock();
}

void SessionClient::finish_input() {
  input_done_ = true;
  // A partial frame at the tail will never complete now; let the framer
  // classify it as truncation instead of waiting for more bytes.
  process_buffer();
  advance_clock();
}

void SessionClient::process_buffer() {
  while (try_parse_frame()) {
  }
  // Compact lazily so steady-state parsing is O(bytes), not O(bytes^2).
  if (buffer_pos_ > 4096 || buffer_pos_ == buffer_.size()) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
}

void SessionClient::note_corrupt(std::size_t skipped) {
  ++frames_corrupt_;
  bytes_skipped_ += skipped;
  if (corrupt_counter_ != nullptr) {
    corrupt_counter_->add(1);
  }
}

bool SessionClient::try_parse_frame() {
  const std::string_view buf(buffer_);
  std::size_t start = buf.find(kMarker[0], buffer_pos_);
  // Scan for the two-byte marker.
  while (start != std::string_view::npos && start + 1 < buf.size() &&
         buf[start + 1] != kMarker[1]) {
    start = buf.find(kMarker[0], start + 1);
  }
  if (start == std::string_view::npos) {
    // No marker: everything pending is inter-frame garbage.
    if (buf.size() > buffer_pos_) {
      note_corrupt(buf.size() - buffer_pos_);
      buffer_pos_ = buf.size();
    }
    return false;
  }
  if (start + 1 >= buf.size()) {
    // A lone first marker byte at the tail: may complete on the next feed.
    if (start > buffer_pos_) {
      note_corrupt(start - buffer_pos_);
      buffer_pos_ = start;
    }
    if (input_done_ && buf.size() > buffer_pos_) {
      note_corrupt(buf.size() - buffer_pos_);
      buffer_pos_ = buf.size();
    }
    return false;
  }
  if (start > buffer_pos_) {
    note_corrupt(start - buffer_pos_);
    buffer_pos_ = start;
  }

  // Header: seq varint, len varint.
  ByteReader header_reader(buf.substr(start + sizeof(kMarker)));
  const std::uint64_t seq = header_reader.varint();
  const std::uint64_t len = header_reader.varint();
  if (header_reader.short_input()) {
    if (input_done_) {
      note_corrupt(buf.size() - start);
      buffer_pos_ = buf.size();
    }
    return false;  // wait for more bytes
  }
  if (!header_reader.ok()) {
    note_corrupt(1);
    buffer_pos_ = start + 1;
    return true;
  }
  const std::size_t pos = start + sizeof(kMarker) + header_reader.pos();
  if (len > kMaxFramePayload) {
    note_corrupt(1);
    buffer_pos_ = start + 1;
    return true;
  }
  const std::size_t frame_end = pos + 4 + static_cast<std::size_t>(len);
  if (frame_end > buf.size()) {
    if (input_done_) {
      note_corrupt(buf.size() - start);
      buffer_pos_ = buf.size();
      return false;
    }
    return false;  // wait for the rest of the frame
  }
  const std::string_view header = buf.substr(start + sizeof(kMarker),
                                             pos - start - sizeof(kMarker));
  const std::uint32_t stored_crc = get_u32le(buf.data() + pos);
  const std::string_view payload = buf.substr(pos + 4, len);
  if (crc32c(payload, crc32c(header)) != stored_crc) {
    note_corrupt(1);
    buffer_pos_ = start + 1;
    return true;
  }

  ++frames_ok_;
  if (seq > expected_seq_) {
    frames_gap_ += seq - expected_seq_;
    if (gap_counter_ != nullptr) {
      gap_counter_->add(seq - expected_seq_);
    }
  }
  if (seq >= expected_seq_) {
    expected_seq_ = seq + 1;
  }
  buffer_pos_ = frame_end;
  handle_payload(payload);
  return true;
}

void SessionClient::handle_payload(std::string_view payload) {
  if (payload.empty()) {
    ++frames_corrupt_;
    return;
  }
  switch (static_cast<Payload>(static_cast<unsigned char>(payload[0]))) {
    case Payload::kHello:
      handle_hello(payload.substr(1));
      return;
    case Payload::kEvent:
      handle_event(payload.substr(1));
      return;
    case Payload::kSnapshot:
      handle_snapshot(payload.substr(1));
      return;
    case Payload::kBye:
      handle_bye(payload.substr(1));
      return;
  }
  // CRC-valid but unknown kind: a protocol version mismatch, not line
  // noise; counted with the corrupt frames all the same.
  ++frames_corrupt_;
}

void SessionClient::announce_traces(const std::vector<std::string>& names) {
  if (traces_known_ || names.empty()) {
    return;
  }
  trace_names_.reserve(names.size());
  std::vector<Symbol> symbols;
  symbols.reserve(names.size());
  for (const std::string& name : names) {
    symbols.push_back(pool_.intern(name));
  }
  trace_names_ = symbols;
  traces_known_ = true;
  frames_corrupt_ += std::erase_if(decoded_, [this](const auto& entry) {
    return !fits_trace_table(entry.second);
  });
  linearizer_.emplace(trace_names_.size(), sink_, shed_type_);
  if (registry_ != nullptr) {
    linearizer_->bind_metrics(*registry_);
  }
  sink_.on_traces(trace_names_);
  release_ready();
}

void SessionClient::handle_hello(std::string_view payload) {
  ByteReader cursor(payload);
  const std::uint64_t n = cursor.varint();
  if (!cursor.ok() || n == 0 || n > std::numeric_limits<TraceId>::max()) {
    ++frames_corrupt_;
    return;
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint64_t t = 0; t < n; ++t) {
    names.emplace_back(cursor.str());
  }
  if (!cursor.done()) {
    ++frames_corrupt_;
    return;
  }
  announce_traces(names);
}

void SessionClient::handle_event(std::string_view payload) {
  ByteReader cursor(payload);
  const std::uint64_t position = cursor.varint();
  EventRecord parsed;
  if (!cursor.ok() || !parse_event_record(cursor, parsed) || !cursor.done()) {
    ++frames_corrupt_;
    return;
  }
  Decoded decoded;
  take_event_record(parsed, pool_, decoded.event, decoded.clock);
  accept_event(position, std::move(decoded));
}

void SessionClient::handle_snapshot(std::string_view payload) {
  ByteReader cursor(payload);
  static_cast<void>(cursor.varint());  // request id, informational only
  const std::uint64_t n = cursor.varint();
  if (!cursor.ok() || n == 0 || n > std::numeric_limits<TraceId>::max()) {
    ++frames_corrupt_;
    return;
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint64_t t = 0; t < n; ++t) {
    names.emplace_back(cursor.str());
  }
  const std::uint64_t total = cursor.varint();
  const std::uint64_t finished = cursor.varint();
  const std::uint64_t baseline = cursor.varint();
  const std::uint64_t count = cursor.varint();
  if (!cursor.ok() || finished > 1) {
    ++frames_corrupt_;
    return;
  }
  announce_traces(names);
  if (total >= total_events_) {
    total_events_ = total;
  }
  if (finished == 1) {
    total_known_ = true;
  }
  ++snapshots_;
  if (snapshot_counter_ != nullptr) {
    snapshot_counter_->add(1);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    EventRecord parsed;
    if (!parse_event_record(cursor, parsed)) {
      ++frames_corrupt_;
      return;
    }
    Decoded decoded;
    take_event_record(parsed, pool_, decoded.event, decoded.clock);
    accept_event(baseline + i, std::move(decoded));
  }
}

void SessionClient::handle_bye(std::string_view payload) {
  ByteReader cursor(payload);
  const std::uint64_t total = cursor.varint();
  if (!cursor.ok() || !cursor.done()) {
    ++frames_corrupt_;
    return;
  }
  if (total >= total_events_) {
    total_events_ = total;
  }
  total_known_ = true;
}

bool SessionClient::fits_trace_table(const Decoded& decoded) const {
  return decoded.clock.size() == trace_names_.size();
}

void SessionClient::accept_event(std::uint64_t position, Decoded decoded) {
  if (traces_known_ && !fits_trace_table(decoded)) {
    // A well-framed record from a producer that disagrees with itself:
    // corrupt, so its position stays a gap for the resync path.
    ++frames_corrupt_;
    return;
  }
  if (position < next_release_ || decoded_.count(position) != 0) {
    ++dup_positions_;
    return;
  }
  if (free_run_ && traces_known_) {
    // Degraded mode: hand everything straight to the linearizer, which
    // holds what it cannot deliver until the end-of-stream flush.
    // Watermark still advances so stats and resume stay meaningful.
    next_release_ = std::max(next_release_, position + 1);
    linearizer_->offer(decoded.event, std::move(decoded.clock));
    return;
  }
  decoded_.emplace(position, std::move(decoded));
  release_ready();
}

void SessionClient::release_ready() {
  if (!traces_known_) {
    return;
  }
  auto it = decoded_.find(next_release_);
  while (it != decoded_.end()) {
    Decoded decoded = std::move(it->second);
    decoded_.erase(it);
    ++next_release_;
    linearizer_->offer(decoded.event, std::move(decoded.clock));
    it = decoded_.find(next_release_);
  }
}

bool SessionClient::gap_open() const {
  if (!decoded_.empty()) {
    return true;  // positions beyond the watermark are in hand, a hole below
  }
  if (total_known_ && next_release_ < total_events_) {
    return true;  // the tail is missing (truncation / disconnect)
  }
  // No direct evidence of a hole — but a closed channel with an incomplete
  // stream means HELLO/BYE themselves were lost.
  const bool complete =
      traces_known_ && total_known_ && next_release_ >= total_events_;
  return input_done_ && !complete;
}

void SessionClient::advance_clock() {
  if (flushed_) {
    return;
  }
  if (!gap_open()) {
    if (gap_timed_) {
      ++recoveries_;
      recovery_ticks_ += ticks_ - degraded_since_;
      gap_timed_ = false;
      resync_in_flight_ = false;
      resync_attempts_ = 0;
    }
    if (free_run_ && input_done_) {
      flush_degraded();
    }
    return;
  }
  if (!gap_timed_) {
    gap_timed_ = true;
    gap_since_ = ticks_;
    degraded_since_ = ticks_;
  }
  if (free_run_) {
    if (input_done_) {
      flush_degraded();
    }
    return;
  }
  if (!resync_in_flight_) {
    // A closed channel cannot deliver the missing bytes on its own; skip
    // the grace period and ask immediately.
    if (input_done_ || ticks_ - gap_since_ >= kResyncGrace) {
      issue_resync();
    }
    return;
  }
  if (ticks_ >= resync_deadline_) {
    if (resync_attempts_ >= kMaxResyncAttempts) {
      ++resync_failures_;
      enter_free_run();
      return;
    }
    issue_resync();
  }
}

void SessionClient::issue_resync() {
  ++resync_attempts_;
  ++resyncs_;
  if (resync_counter_ != nullptr) {
    resync_counter_->add(1);
  }
  // Exponential backoff, doubling per attempt and capped.
  std::uint64_t backoff = kResyncBackoffInitial;
  for (std::uint32_t i = 1; i < resync_attempts_ && backoff < kResyncBackoffMax;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kResyncBackoffMax);
  resync_deadline_ = ticks_ + backoff;
  resync_in_flight_ = true;
  transport_.request_resync(
      ResyncRequest{next_request_id_++, next_release_});
}

void SessionClient::enter_free_run() {
  free_run_ = true;
  resync_in_flight_ = false;
  drain_decoded();
  if (input_done_) {
    flush_degraded();
  }
}

void SessionClient::drain_decoded() {
  if (!traces_known_) {
    if (decoded_.empty()) {
      return;
    }
    // Every HELLO and snapshot was lost but events got through; fabricate
    // a trace table from the clock width so the stream can still complete
    // (loudly degraded).
    const std::size_t n = decoded_.begin()->second.clock.size();
    std::vector<std::string> names;
    names.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      names.push_back("?lost-trace-" + std::to_string(t));
    }
    announce_traces(names);
  }
  // Release everything we have, holes and all; the linearizer buffers
  // out-of-order remainders until the degraded flush.
  auto held = std::move(decoded_);
  decoded_.clear();
  for (auto& [position, decoded] : held) {
    next_release_ = std::max(next_release_, position + 1);
    linearizer_->offer(decoded.event, std::move(decoded.clock));
  }
}

void SessionClient::flush_degraded() {
  if (flushed_ || !free_run_) {
    return;
  }
  drain_decoded();
  if (!traces_known_) {
    // Nothing decodable ever arrived; there is nothing to flush.
    flushed_ = true;
    return;
  }
  linearizer_->shed_to(0);
  flushed_ = true;
}

bool SessionClient::done() const {
  if (flushed_) {
    return true;
  }
  return traces_known_ && total_known_ && next_release_ >= total_events_ &&
         decoded_.empty() && linearizer_.has_value() &&
         linearizer_->pending() == 0;
}

bool SessionClient::degraded() const {
  return free_run_ || resync_failures_ > 0 ||
         (linearizer_.has_value() && linearizer_->ingest_stats().sheds > 0);
}

IngestStats SessionClient::stats() const {
  IngestStats stats;
  if (linearizer_.has_value()) {
    stats = linearizer_->ingest_stats();
  }
  stats.duplicates += dup_positions_;
  stats.pending += decoded_.size();
  stats.frames_corrupt = frames_corrupt_;
  stats.frames_gap = frames_gap_;
  stats.bytes_skipped = bytes_skipped_;
  stats.resyncs = resyncs_;
  stats.snapshots = snapshots_;
  stats.resync_failures = resync_failures_;
  stats.recoveries = recoveries_;
  stats.recovery_ticks = recovery_ticks_;
  return stats;
}

// --- SessionClient checkpoint ----------------------------------------------
//
// Layout: version varint, traces_known flag + names, watermarks and
// counters, decoded-but-unreleased events (position, then a length-
// prefixed event record, poet/event_record.h), then the embedded
// linearizer's own checkpoint.  Restoring reconnects by letting the normal
// gap logic request a resync from the restored watermark.  Restore
// accepts only kCheckpointVersion: a layout change takes the next version,
// and no reader for an older one is kept.

namespace {
constexpr std::uint64_t kCheckpointVersion = 2;
}  // namespace

void SessionClient::checkpoint(std::ostream& out) const {
  poet::put_varint(out, kCheckpointVersion);
  poet::put_varint(out, traces_known_ ? 1 : 0);
  if (traces_known_) {
    poet::put_varint(out, trace_names_.size());
    for (const Symbol name : trace_names_) {
      poet::put_string(out, pool_.view(name));
    }
  }
  poet::put_varint(out, next_release_);
  poet::put_varint(out, expected_seq_);
  poet::put_varint(out, total_events_);
  poet::put_varint(out, total_known_ ? 1 : 0);
  poet::put_varint(out, frames_ok_);
  poet::put_varint(out, frames_corrupt_);
  poet::put_varint(out, frames_gap_);
  poet::put_varint(out, bytes_skipped_);
  poet::put_varint(out, dup_positions_);
  poet::put_varint(out, resyncs_);
  poet::put_varint(out, snapshots_);
  poet::put_varint(out, resync_failures_);
  poet::put_varint(out, recoveries_);
  poet::put_varint(out, recovery_ticks_);
  poet::put_varint(out, decoded_.size());
  for (const auto& [position, decoded] : decoded_) {
    poet::put_varint(out, position);
    put_event_record(out, decoded.event, decoded.clock, pool_);
  }
  if (traces_known_) {
    linearizer_->checkpoint(out, pool_);
  }
  if (!out) {
    throw SerializationError("write failure while checkpointing session");
  }
}

void SessionClient::restore(std::istream& in) {
  OCEP_ASSERT_MSG(ticks_ == 0 && buffer_.empty(),
                  "restore requires a fresh session client");
  if (poet::get_varint(in) != kCheckpointVersion) {
    throw SerializationError("unsupported session checkpoint version");
  }
  const bool had_traces = poet::get_varint(in) == 1;
  if (had_traces) {
    const std::uint64_t n = poet::get_varint(in);
    if (n == 0 || n > std::numeric_limits<TraceId>::max()) {
      throw SerializationError("corrupt checkpoint: bad trace count");
    }
    trace_names_.reserve(n);
    for (std::uint64_t t = 0; t < n; ++t) {
      trace_names_.push_back(pool_.intern(poet::get_string(in)));
    }
    traces_known_ = true;
    // The sink is expected to have been restored separately (it already
    // knows the trace table), so no on_traces here.
    linearizer_.emplace(trace_names_.size(), sink_, shed_type_);
    if (registry_ != nullptr) {
      linearizer_->bind_metrics(*registry_);
    }
  }
  next_release_ = poet::get_varint(in);
  expected_seq_ = poet::get_varint(in);
  total_events_ = poet::get_varint(in);
  total_known_ = poet::get_varint(in) == 1;
  frames_ok_ = poet::get_varint(in);
  frames_corrupt_ = poet::get_varint(in);
  frames_gap_ = poet::get_varint(in);
  bytes_skipped_ = poet::get_varint(in);
  dup_positions_ = poet::get_varint(in);
  resyncs_ = poet::get_varint(in);
  snapshots_ = poet::get_varint(in);
  resync_failures_ = poet::get_varint(in);
  recoveries_ = poet::get_varint(in);
  recovery_ticks_ = poet::get_varint(in);
  const std::uint64_t count = poet::get_varint(in);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t position = poet::get_varint(in);
    Decoded decoded;
    get_event_record(in, pool_, decoded.event, decoded.clock);
    if (had_traces && !fits_trace_table(decoded)) {
      throw SerializationError("corrupt checkpoint: decoded clock width");
    }
    if (!decoded_.emplace(position, std::move(decoded)).second) {
      throw SerializationError("corrupt checkpoint: duplicate position");
    }
  }
  if (had_traces) {
    linearizer_->restore(in, pool_);
  }
}

}  // namespace ocep
