// One event as the session spells it, on the wire and in checkpoints:
//
//   trace varint | index varint | kind varint | type str | text str |
//   message varint | clock width varint | clock entries (varints)
//
// Symbols travel as strings, so the writer's and the reader's pools may
// differ, and full clocks travel instead of deltas, so a record decodes on
// its own.  The session's EVENT and SNAPSHOT frames carry these records,
// and the session checkpoint stores its unreleased and held events as
// length-prefixed records, so both decode through one set of checks:
// index > 0, a known kind, trace < width, entries that fit 32 bits, and
// clock[trace] == index.  A record does not know the trace table, so each
// reader also checks that the width equals it.  Header-only and inline:
// the session codec runs these on every event.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causality/vector_clock.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "model/event.h"
#include "poet/varint.h"

namespace ocep {

/// A parsed record.  `event.type` and `event.text` stay kEmptySymbol; the
/// views into the parsed bytes name them until the caller interns them.
struct EventRecord {
  Event event;
  std::string_view type;
  std::string_view text;
  std::vector<std::uint32_t> clock;
};

inline void append_event_record(std::string& out, const Event& event,
                                std::span<const std::uint32_t> clock,
                                const StringPool& pool) {
  put_varint(out, event.id.trace);
  put_varint(out, event.id.index);
  put_varint(out, static_cast<std::uint64_t>(event.kind));
  put_string(out, pool.view(event.type));
  put_string(out, pool.view(event.text));
  put_varint(out, event.message);
  put_varint(out, clock.size());
  for (const std::uint32_t entry : clock) {
    put_varint(out, entry);
  }
}

/// Parses one record at the cursor; false when it is malformed.
[[nodiscard]] inline bool parse_event_record(ByteReader& cursor,
                                             EventRecord& out) {
  const std::uint64_t trace = cursor.varint();
  const std::uint64_t index = cursor.varint();
  const std::uint64_t kind = cursor.varint();
  out.type = cursor.str();
  out.text = cursor.str();
  const std::uint64_t message = cursor.varint();
  const std::uint64_t clock_size = cursor.varint();
  if (!cursor.ok() || index == 0 || clock_size == 0 ||
      clock_size > std::numeric_limits<TraceId>::max() ||
      trace >= clock_size ||
      kind > static_cast<std::uint64_t>(EventKind::kBlockedSend) ||
      index > std::numeric_limits<EventIndex>::max()) {
    return false;
  }
  out.clock.resize(clock_size);
  for (std::uint64_t s = 0; s < clock_size; ++s) {
    const std::uint64_t entry = cursor.varint();
    if (entry > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    out.clock[s] = static_cast<std::uint32_t>(entry);
  }
  if (!cursor.ok() || out.clock[trace] != index) {
    return false;
  }
  out.event.id = EventId{static_cast<TraceId>(trace),
                         static_cast<EventIndex>(index)};
  out.event.kind = static_cast<EventKind>(kind);
  out.event.message = message;
  return true;
}

/// Completes a parsed record: interns its strings into `pool` and moves
/// its clock out.
inline void take_event_record(EventRecord& record, StringPool& pool,
                              Event& event, VectorClock& clock) {
  event = record.event;
  event.type = pool.intern(record.type);
  event.text = pool.intern(record.text);
  clock = VectorClock(std::move(record.clock));
}

/// Writes one record, length-prefixed, to a checkpoint stream.
inline void put_event_record(std::ostream& out, const Event& event,
                             const VectorClock& clock,
                             const StringPool& pool) {
  std::string record;
  append_event_record(record, event, clock.entries(), pool);
  poet::put_string(out, record);
}

/// Reads one put_event_record() record, interning its strings into
/// `pool`.  Throws SerializationError when it fails the frame checks.
inline void get_event_record(std::istream& in, StringPool& pool,
                             Event& event, VectorClock& clock) {
  const std::string bytes = poet::get_string(in);
  ByteReader cursor(bytes);
  EventRecord record;
  if (!parse_event_record(cursor, record) || !cursor.done()) {
    throw SerializationError("corrupt checkpoint: bad event record");
  }
  take_event_record(record, pool, event, clock);
}

}  // namespace ocep
