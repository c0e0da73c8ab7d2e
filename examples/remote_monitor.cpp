// Remote online monitoring over a byte channel: the instrumented system
// streams events as session frames (poet/session.h) as it runs; the monitor
// lives at the other end of a pipe (stand-in for a socket to another
// machine) and reports violations while the system is still executing.
//
//   ./build/examples/remote_monitor [--followers N] [--requests R]
//
// Producer thread:  Sim --live sink--> SessionServer --> pipe
// Consumer (main):  pipe --> SessionClient --> Monitor --> reports
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <thread>

#include "apps/apps.h"
#include "apps/patterns.h"
#include "common/error.h"
#include "common/fd_stream.h"
#include "common/flags.h"
#include "core/monitor.h"
#include "poet/session.h"
#include "sim/sim.h"

using namespace ocep;

namespace {

/// Writes session frames to the pipe.
class StreamSink final : public ByteSink {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}
  void write(std::string_view bytes) override {
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::ostream& out_;
};

/// Live sink that streams every simulated event as session frames.
class SessionForwarder final : public EventSink {
 public:
  SessionForwarder(ByteSink& out, const StringPool& pool)
      : out_(out), pool_(pool) {}

  void on_traces(const std::vector<Symbol>& names) override {
    server_ = std::make_unique<SessionServer>(out_, pool_, names);
  }
  void on_event(const Event& event, const VectorClock& clock) override {
    server_->write(event, clock);
  }
  void finish() { server_->finish(); }

 private:
  ByteSink& out_;
  const StringPool& pool_;
  std::unique_ptr<SessionServer> server_;
};

/// A pipe loses nothing, so no resync is ever requested; one that were
/// would go unanswered and the client would report a degraded stream.
class NoResync final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest&) override {}
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    apps::OrderingParams params;
    params.followers =
        static_cast<std::uint32_t>(flags.get_int("followers", 10));
    params.requests_each =
        static_cast<std::uint64_t>(flags.get_int("requests", 60));
    params.bug_percent =
        static_cast<std::uint32_t>(flags.get_int("bug-percent", 2));
    flags.check_unused();

    int fds[2];
    if (::pipe(fds) != 0) {
      throw Error("pipe() failed");
    }

    // --- Producer: the instrumented system, in its own thread ---------
    std::thread producer([fds, params] {
      StringPool pool;  // the producer's own pool, as a real process has
      sim::SimConfig config;
      config.seed = 97;
      sim::Sim sim(pool, config);
      apps::setup_leader_follower(sim, params);
      FdOStream out(fds[1]);
      StreamSink pipe(out.get());
      SessionForwarder forwarder(pipe, pool);
      sim.set_live_sink(&forwarder);
      sim.run();
      forwarder.finish();
      out.get().flush();
      ::close(fds[1]);
    });

    // --- Consumer: the remote monitor ----------------------------------
    StringPool pool;
    Monitor monitor(pool);
    std::uint64_t incidents = 0;
    monitor.add_pattern(
        apps::ordering_pattern(), MatcherConfig{},
        [&](const Match& match, bool) {
          ++incidents;
          const Event& snapshot = monitor.store().event(match.bindings[1]);
          std::printf("[remote] stale snapshot for request '%s'\n",
                      std::string(pool.view(snapshot.text)).c_str());
        });
    NoResync no_resync;
    SessionClient client(monitor, pool, no_resync);
    FdIStream in(fds[0]);
    char chunk[4096];
    while (in.get().read(chunk, sizeof(chunk)) || in.get().gcount() > 0) {
      client.feed(std::string_view(chunk,
                                   static_cast<std::size_t>(in.get().gcount())));
    }
    client.finish_input();
    producer.join();
    ::close(fds[0]);
    if (!client.done() || client.degraded()) {
      throw Error("the session stream arrived incomplete");
    }

    std::printf("[remote] monitored %llu events over the session, "
                "%llu incidents\n",
                static_cast<unsigned long long>(monitor.events_seen()),
                static_cast<unsigned long long>(incidents));
    return incidents > 0 ? 0 : 1;
  } catch (const Error& error) {
    std::fprintf(stderr, "remote_monitor: %s\n", error.what());
    return 2;
  }
}
