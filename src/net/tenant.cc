#include "net/tenant.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/bytes.h"
#include "common/error.h"
#include "common/frame.h"

namespace ocep::net {
namespace {

constexpr std::string_view kTenantCkpMagic = "OCEPNTC2";
constexpr std::size_t kMaxCheckpointPatterns = 1024;

}  // namespace

const char* to_string(TenantState state) noexcept {
  switch (state) {
    case TenantState::kStreaming:
      return "streaming";
    case TenantState::kComplete:
      return "complete";
    case TenantState::kDegraded:
      return "degraded";
    case TenantState::kShed:
      return "shed";
  }
  return "unknown";
}

Tenant::Tenant(std::string name, const TenantConfig& config,
               ObserveHook observe_hook)
    : name_(std::move(name)),
      config_(config),
      observe_hook_(std::move(observe_hook)) {}

Tenant::~Tenant() = default;

void Tenant::TapSink::on_traces(const std::vector<Symbol>& names) {
  owner_.monitor_->on_traces(names);
}

void Tenant::TapSink::on_event(const Event& event, const VectorClock& clock) {
  owner_.monitor_->on_event(event, clock);
  const std::uint64_t position = owner_.released_++;
  if (owner_.observe_hook_) {
    owner_.observe_hook_(owner_.name_, position);
  }
}

void Tenant::build(const std::vector<std::string>& patterns) {
  patterns_ = patterns;
  pool_ = std::make_unique<StringPool>();
  monitor_ =
      std::make_unique<Monitor>(*pool_, config_.monitor, config_.storage);
  for (const std::string& pattern : patterns_) {
    monitor_->add_pattern(pattern, config_.matcher);
  }
  if (span_sink_ != nullptr) {
    monitor_->set_span_sink(span_sink_);
  }
  tap_ = std::make_unique<TapSink>(*this);
  transport_ = std::make_unique<QueuedTransport>();
  SessionConfig session = config_.session;
  if (session.linearizer.shed_type == kEmptySymbol) {
    session.linearizer.shed_type = pool_->intern("__shed");
  }
  session_ =
      std::make_unique<SessionClient>(*tap_, *pool_, *transport_, session);
  if (monitor_->metrics_enabled()) {
    session_->bind_metrics(monitor_->metrics());
  }
  monitor_->set_ingest_source([this] { return session_->stats(); });
}

void Tenant::register_patterns(const std::vector<std::string>& patterns) {
  build(patterns);
}

void Tenant::set_span_sink(SpanSink* sink) {
  span_sink_ = sink;
  if (monitor_ != nullptr) {
    monitor_->set_span_sink(sink);
  }
}

void Tenant::feed(std::string_view bytes) {
  if (state_ != TenantState::kStreaming) {
    return;  // late bytes after FIN: a replaying reconnect, ignore
  }
  bytes_in_ += bytes.size();
  session_->feed(bytes);
}

void Tenant::tick() {
  if (state_ == TenantState::kStreaming) {
    session_->tick();
  }
}

std::vector<ResyncRequest> Tenant::take_resyncs() {
  std::vector<ResyncRequest> taken = std::move(transport_->pending);
  transport_->pending.clear();
  return taken;
}

bool Tenant::maybe_finish() {
  if (state_ != TenantState::kStreaming || !session_->done()) {
    return false;
  }
  state_ =
      session_->degraded() ? TenantState::kDegraded : TenantState::kComplete;
  return true;
}

void Tenant::finalize() {
  if (state_ != TenantState::kStreaming) {
    return;
  }
  session_->finish_input();
  for (std::uint64_t i = 0; i < config_.settle_ticks && !session_->done();
       ++i) {
    session_->tick();
    transport_->pending.clear();  // nobody is attached to answer resyncs
  }
  if (session_->done() && !session_->degraded()) {
    state_ = TenantState::kComplete;
  } else {
    state_ = TenantState::kDegraded;
  }
}

void Tenant::shed(std::string reason) {
  shed_reason_ = std::move(reason);
  finalize();
  state_ = TenantState::kShed;
}

bool Tenant::degraded() const {
  return session_ != nullptr && session_->degraded();
}

void Tenant::checkpoint(std::ostream& out) {
  std::string body;
  put_varint(body, patterns_.size());
  for (const std::string& pattern : patterns_) {
    put_string(body, pattern);
  }
  std::ostringstream monitor_blob;
  monitor_->checkpoint(monitor_blob);
  put_string(body, monitor_blob.str());
  std::ostringstream session_blob;
  session_->checkpoint(session_blob);
  put_string(body, session_blob.str());
  write_frame(out, kTenantCkpMagic, body);
  if (!out) {
    throw SerializationError("tenant checkpoint: write failed");
  }
}

void Tenant::restore(std::istream& in) {
  TenantCheckpoint ckp = read_tenant_checkpoint(in);
  build(ckp.patterns);
  std::istringstream monitor_blob(ckp.monitor_blob);
  monitor_->restore(monitor_blob);
  std::istringstream session_blob(ckp.session_blob);
  session_->restore(session_blob);
  // The monitor already holds everything the session released before the
  // checkpoint; keep the tap's position counter in step with it.
  released_ = monitor_->events_seen();
  // A stream that reached its terminal state before the checkpoint must
  // restore terminal too: the session watermarks round-trip, so done()
  // is answerable here, and leaving a finished tenant kStreaming would
  // let a post-completion migration (or a restart after BYE) resurrect
  // it as live with no connection ever coming to finish it.
  if (session_->done()) {
    state_ = session_->degraded() ? TenantState::kDegraded
                                  : TenantState::kComplete;
  }
}

TenantCheckpoint read_tenant_checkpoint(std::istream& in) {
  const std::string body =
      read_frame(in, kTenantCkpMagic, kMaxFrameBody, "tenant checkpoint");
  ByteReader reader(body);
  TenantCheckpoint ckp;
  const std::uint64_t count = reader.varint();
  if (count > kMaxCheckpointPatterns) {
    throw SerializationError("tenant checkpoint: implausible pattern count");
  }
  for (std::uint64_t i = 0; reader.ok() && i < count; ++i) {
    ckp.patterns.emplace_back(reader.str());
  }
  // The nested blobs are bounded only by the body, whose CRC has already
  // been checked.
  ckp.monitor_blob = reader.str();
  ckp.session_blob = reader.str();
  if (!reader.done()) {
    throw SerializationError(
        "tenant checkpoint: malformed body",
        static_cast<std::int64_t>(kTenantCkpMagic.size() + kFrameFieldBytes +
                                  reader.pos()));
  }
  return ckp;
}

}  // namespace ocep::net
