#include "core/governor.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "poet/varint.h"

namespace ocep {

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
    case BreakerState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

SearchBudget PatternGovernor::probe_budget() const noexcept {
  SearchBudget probe = budget_;
  const std::uint32_t divisor =
      std::max<std::uint32_t>(breaker_.probe_divisor, 1);
  if (probe.max_steps > 0) {
    probe.max_steps = std::max<std::uint64_t>(probe.max_steps / divisor, 1);
  }
  if (probe.deadline_ns > 0) {
    probe.deadline_ns =
        std::max<std::uint64_t>(probe.deadline_ns / divisor, 1);
  }
  return probe;
}

bool PatternGovernor::admit(std::uint64_t observe_index,
                            SearchBudget& effective) {
  switch (state_) {
    case BreakerState::kQuarantined:
      return false;
    case BreakerState::kOpen:
      if (observe_index - opened_at_ < breaker_.cooldown_observes) {
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      ++probes_;
      effective = probe_budget();
      return true;
    case BreakerState::kClosed:
      effective = budget_;
      return true;
  }
  return false;
}

void PatternGovernor::on_search_result(std::uint64_t observe_index,
                                       bool aborted) {
  if (state_ == BreakerState::kHalfOpen) {
    if (aborted) {
      state_ = BreakerState::kOpen;
      opened_at_ = observe_index;
      ++trips_;
    } else {
      state_ = BreakerState::kClosed;
      failures_.clear();
    }
    return;
  }
  if (state_ != BreakerState::kClosed || !aborted ||
      breaker_.trip_failures == 0) {
    return;
  }
  failures_.push_back(observe_index);
  if (breaker_.window_observes > 0) {
    while (!failures_.empty() &&
           observe_index - failures_.front() >= breaker_.window_observes) {
      failures_.pop_front();
    }
  }
  if (failures_.size() >= breaker_.trip_failures) {
    state_ = BreakerState::kOpen;
    opened_at_ = observe_index;
    ++trips_;
    failures_.clear();
  }
}

void PatternGovernor::quarantine(std::string reason) {
  state_ = BreakerState::kQuarantined;
  last_error_ = std::move(reason);
  ++trips_;
  failures_.clear();
}

void PatternGovernor::record_error(std::string reason) {
  last_error_ = std::move(reason);
}

void PatternGovernor::checkpoint(std::ostream& out) const {
  poet::put_varint(out, static_cast<std::uint64_t>(state_));
  poet::put_varint(out, opened_at_);
  poet::put_varint(out, trips_);
  poet::put_varint(out, probes_);
  poet::put_varint(out, failures_.size());
  for (const std::uint64_t index : failures_) {
    poet::put_varint(out, index);
  }
  poet::put_string(out, last_error_);
}

void PatternGovernor::restore(std::istream& in) {
  const std::uint64_t raw_state = poet::get_varint(in);
  if (raw_state > static_cast<std::uint64_t>(BreakerState::kQuarantined)) {
    throw SerializationError("corrupt checkpoint: unknown breaker state " +
                             std::to_string(raw_state));
  }
  state_ = static_cast<BreakerState>(raw_state);
  opened_at_ = poet::get_varint(in);
  trips_ = poet::get_varint(in);
  probes_ = poet::get_varint(in);
  failures_.clear();
  const std::uint64_t failure_count = poet::get_varint(in);
  if (failure_count > (1ULL << 24)) {
    throw SerializationError(
        "corrupt checkpoint: unreasonable breaker failure count");
  }
  for (std::uint64_t i = 0; i < failure_count; ++i) {
    failures_.push_back(poet::get_varint(in));
  }
  last_error_ = poet::get_string(in);
}

bool HealthReport::degraded() const noexcept {
  for (const PatternHealth& pattern : patterns) {
    if (pattern.state != BreakerState::kClosed || pattern.searches_aborted ||
        pattern.observes_shed || pattern.breaker_trips ||
        pattern.history_evicted || pattern.callback_errors) {
      return true;
    }
  }
  return ingest.sheds || ingest.frames_corrupt || ingest.frames_gap ||
         ingest.resync_failures;
}

void HealthReport::to_text(std::ostream& out) const {
  out << "health: " << (degraded() ? "DEGRADED" : "ok") << "\n";
  for (const PatternHealth& p : patterns) {
    out << "pattern " << p.pattern << ": " << to_string(p.state)
        << "  searches=" << p.searches << " aborted=" << p.searches_aborted
        << " shed=" << p.observes_shed << " trips=" << p.breaker_trips
        << " probes=" << p.breaker_probes << "\n"
        << "  history: entries=" << p.history_entries
        << " bytes=" << p.history_bytes << " evicted=" << p.history_evicted
        << "  callback_errors=" << p.callback_errors << "\n";
    if (!p.last_error.empty()) {
      out << "  last_error: " << p.last_error << "\n";
    }
  }
  out << "ingest: offered=" << ingest.offered
      << " delivered=" << ingest.delivered << " sheds=" << ingest.sheds
      << " duplicates=" << ingest.duplicates
      << " frames_corrupt=" << ingest.frames_corrupt
      << " frames_gap=" << ingest.frames_gap << " resyncs=" << ingest.resyncs
      << " resync_failures=" << ingest.resync_failures << "\n";
}

std::string HealthReport::to_text() const {
  std::ostringstream out;
  to_text(out);
  return out.str();
}

namespace {

void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void HealthReport::to_json(std::ostream& out) const {
  out << "{\"degraded\":" << (degraded() ? "true" : "false")
      << ",\"patterns\":[";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const PatternHealth& p = patterns[i];
    if (i > 0) {
      out << ',';
    }
    out << "{\"pattern\":" << p.pattern << ",\"state\":\""
        << to_string(p.state)
        << "\",\"searches\":" << p.searches
        << ",\"searches_aborted\":" << p.searches_aborted
        << ",\"observes_shed\":" << p.observes_shed
        << ",\"breaker_trips\":" << p.breaker_trips
        << ",\"breaker_probes\":" << p.breaker_probes
        << ",\"history_entries\":" << p.history_entries
        << ",\"history_bytes\":" << p.history_bytes
        << ",\"history_evicted\":" << p.history_evicted
        << ",\"callback_errors\":" << p.callback_errors << ",\"last_error\":";
    json_string(out, p.last_error);
    out << '}';
  }
  out << "],\"ingest\":{\"offered\":" << ingest.offered
      << ",\"delivered\":" << ingest.delivered
      << ",\"duplicates\":" << ingest.duplicates
      << ",\"sheds\":" << ingest.sheds
      << ",\"frames_corrupt\":" << ingest.frames_corrupt
      << ",\"frames_gap\":" << ingest.frames_gap
      << ",\"resyncs\":" << ingest.resyncs
      << ",\"resync_failures\":" << ingest.resync_failures << "}}";
}

std::string HealthReport::to_json() const {
  std::ostringstream out;
  to_json(out);
  return out.str();
}

}  // namespace ocep
