// One tenant = one event stream = one Monitor.
//
// A tenant is created by the first handshake naming it: its patterns are
// compiled into a fresh Monitor, and a SessionClient reassembles the
// tenant's lossy-frame stream into linearized events.  The tenant
// outlives its connection —
// a dropped TCP session leaves the ingestion state intact so a
// reconnecting producer resumes where it left off (position dedup plus
// snapshot resync make the replay exact) — and outlives its stream, so
// operators can inspect a completed or degraded monitor through the admin
// plane.
//
// Lifecycle:  streaming -> complete          (BYE seen, every event in)
//             streaming -> degraded          (disconnect linger expired;
//                                             the session free-runs and
//                                             flushes under shed policy)
//             streaming -> shed              (governance: byte budget or
//                                             corrupt-frame budget blown)
// Checkpoint/restore serializes the *pair* (monitor, session) so a
// restarted server resumes both the matching state and the ingest
// watermark; layout at the bottom of this header.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.h"
#include "poet/session.h"

namespace ocep::net {

enum class TenantState : std::uint8_t {
  kStreaming,
  kComplete,
  kDegraded,
  kShed,
};

[[nodiscard]] const char* to_string(TenantState state) noexcept;

struct TenantConfig {
  /// Includes the byte cap on the tenant's shared leaf histories.
  MonitorConfig monitor;
  /// Governance knobs applied to every registered pattern
  /// (docs/GOVERNANCE.md); defaults are the do-nothing configuration.
  MatcherConfig matcher;
  SessionConfig session;
};

/// Test/bench hook: observes every event released into a tenant monitor,
/// on the serving thread.  `position` counts releases per tenant from 0.
using ObserveHook =
    std::function<void(std::string_view tenant, std::uint64_t position)>;

class Tenant {
 public:
  Tenant(std::string name, const TenantConfig& config,
         ObserveHook observe_hook = nullptr);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  /// Compiles and registers the pattern set, creating the monitor and the
  /// session.  Throws (ParseError/PatternError) on a bad pattern — the
  /// caller turns that into a handshake rejection.
  void register_patterns(const std::vector<std::string>& patterns);

  /// Restores monitor + session from a checkpoint previously written by
  /// checkpoint(); the checkpointed pattern set is authoritative (a later
  /// handshake naming different patterns is rejected against it).  Throws
  /// SerializationError on corruption.
  void restore(std::istream& in);

  /// Serializes patterns, monitor (OCEPCKP6), and session state, CRC
  /// framed.  Safe mid-stream.
  void checkpoint(std::ostream& out);

  /// True once the monitor can legally checkpoint (trace table announced
  /// or restored).  A tenant that handshook but whose announcement frames
  /// are still in flight has nothing coherent to freeze: callers skip the
  /// checkpoint or retry the migration a beat later.
  [[nodiscard]] bool can_checkpoint() const noexcept {
    return monitor_ != nullptr && monitor_->traces_known();
  }

  /// Feeds received forward-stream bytes into the session.
  void feed(std::string_view bytes);
  /// Advances session time without bytes (resync backoff, stall aging).
  void tick();

  /// Resync requests the session issued since the last take; the server
  /// forwards them to the attached connection (or drops them when
  /// detached — the session's retry budget handles the loss).
  [[nodiscard]] std::vector<ResyncRequest> take_resyncs();

  /// Declares the stream finished (clean EOF or expired linger) and runs
  /// the session to a terminal state, shedding if it must.  Transitions
  /// to kComplete or kDegraded.
  void finalize();

  /// Governance ejection: finalize degraded and mark kShed.
  void shed(std::string reason);

  /// Checks for clean completion after a feed; transitions to kComplete /
  /// kDegraded when the session reached a terminal state.  Returns true
  /// on the transition edge (the server then sends FIN).
  [[nodiscard]] bool maybe_finish();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] TenantState state() const noexcept { return state_; }
  [[nodiscard]] bool streaming() const noexcept {
    return state_ == TenantState::kStreaming;
  }
  [[nodiscard]] const std::string& shed_reason() const noexcept {
    return shed_reason_;
  }
  [[nodiscard]] Monitor& monitor() noexcept { return *monitor_; }
  [[nodiscard]] SessionClient& session() noexcept { return *session_; }
  [[nodiscard]] const std::vector<std::string>& patterns() const noexcept {
    return patterns_;
  }
  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  [[nodiscard]] std::uint64_t events_released() const noexcept {
    return released_;
  }
  [[nodiscard]] bool degraded() const;

  /// Reinstates the cumulative received-byte count after a live shard
  /// migration: the OCEPNTC2 image deliberately omits it (a restart
  /// resets governance budgets), but an in-flight hop must not.
  void restore_bytes_in(std::uint64_t bytes) noexcept { bytes_in_ = bytes; }

  /// Attaches a history spill sink (core/span_sink.h), applied to the
  /// monitor as soon as it exists.  Call right after construction —
  /// before register_patterns()/restore() — so a restored checkpoint's
  /// spilled-span metadata can fault through it.  The sink must outlive
  /// the tenant; nullptr detaches.
  void set_span_sink(SpanSink* sink);

  // Attachment bookkeeping (owned by the server's policy).
  std::uint64_t conn_id = 0;          ///< 0 = detached
  std::uint64_t detach_deadline_ms = 0;  ///< linger expiry when detached
  std::uint64_t migrations = 0;  ///< live shard hops this tenant survived

 private:
  /// Forwards releases to the monitor, counting them and invoking the
  /// observe hook; keeps the hook out of the session/monitor layers.
  class TapSink final : public EventSink {
   public:
    explicit TapSink(Tenant& owner) : owner_(owner) {}
    void on_traces(const std::vector<Symbol>& names) override;
    void on_event(const Event& event, const VectorClock& clock) override;

   private:
    Tenant& owner_;
  };

  /// Collects session resync requests for the server to forward.
  class QueuedTransport final : public ResyncTransport {
   public:
    void request_resync(const ResyncRequest& request) override {
      pending.push_back(request);
    }
    std::vector<ResyncRequest> pending;
  };

  void build(const std::vector<std::string>& patterns);

  std::string name_;
  TenantConfig config_;
  ObserveHook observe_hook_;
  SpanSink* span_sink_ = nullptr;
  TenantState state_ = TenantState::kStreaming;
  std::string shed_reason_;
  std::vector<std::string> patterns_;
  std::unique_ptr<StringPool> pool_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<TapSink> tap_;
  std::unique_ptr<QueuedTransport> transport_;
  std::unique_ptr<SessionClient> session_;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t released_ = 0;
};

/// Parsed tenant checkpoint: one "OCEPNTC2" frame (common/frame.h) whose
/// body is varint pattern count, each pattern string, then the monitor
/// blob (an OCEPCKP6 frame) and the session blob, each varint-length-
/// prefixed.  Exposed so tests and tools can split the sections — the
/// monitor blob is the byte-identity surface across resumed runs (session
/// counters legitimately differ once a resync replayed data).
struct TenantCheckpoint {
  std::vector<std::string> patterns;
  std::string monitor_blob;
  std::string session_blob;
};

[[nodiscard]] TenantCheckpoint read_tenant_checkpoint(std::istream& in);

}  // namespace ocep::net
