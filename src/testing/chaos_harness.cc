#include "testing/chaos_harness.h"

#include <algorithm>
#include <utility>

namespace ocep::testing {
namespace {

/// Forwards delivered bytes into the client, optionally re-chunked.
/// Buffers until the client exists: the server's HELLO is emitted from its
/// constructor, before the client can be wired up.
class ClientFeed final : public ByteSink {
 public:
  void write(std::string_view bytes) override {
    if (client == nullptr) {
      pending.append(bytes);
      return;
    }
    if (chunk == 0) {
      client->feed(bytes);
      return;
    }
    while (!bytes.empty()) {
      const std::size_t take = std::min(chunk, bytes.size());
      client->feed(bytes.substr(0, take));
      bytes.remove_prefix(take);
    }
  }

  void drain() {
    if (client != nullptr && !pending.empty()) {
      std::string buffered = std::move(pending);
      pending.clear();
      write(buffered);
    }
  }

  SessionClient* client = nullptr;
  std::size_t chunk = 0;
  std::string pending;
};

/// Queues resync requests so the harness answers them between feeds.
class QueueTransport final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest& request) override {
    requests.push_back(request);
  }
  std::vector<ResyncRequest> requests;
};

}  // namespace

std::vector<std::string> match_signature(Monitor& monitor,
                                         std::size_t index) {
  std::vector<std::string> out;
  for (const Match& match : monitor.matcher(index).subset().matches()) {
    std::string sig;
    for (const EventId id : match.bindings) {
      sig += std::to_string(id.trace) + ":" + std::to_string(id.index) + ";";
    }
    out.push_back(std::move(sig));
  }
  std::sort(out.begin(), out.end());
  return out;
}

ChaosResult run_chaos(const EventStore& source, StringPool& pool,
                      const std::string& pattern_text,
                      const ChaosOptions& options) {
  Monitor monitor(pool, source.storage());
  monitor.add_pattern(pattern_text);

  SessionConfig session = options.session;
  if (session.linearizer.shed_type == kEmptySymbol) {
    session.linearizer.shed_type = pool.intern("__shed");
  }

  std::vector<Symbol> names;
  for (TraceId t = 0; t < source.trace_count(); ++t) {
    names.push_back(source.trace_name(t));
  }

  ClientFeed feed;
  feed.chunk = options.feed_chunk;
  FaultyChannel channel(feed, options.faults);
  QueueTransport transport;
  SessionServer server(channel, pool, names, session);
  SessionClient client(monitor, pool, transport, session);
  monitor.set_ingest_source([&client] { return client.stats(); });
  feed.client = &client;
  feed.drain();  // the HELLO buffered while the client did not exist yet

  const auto serve = [&] {
    while (!transport.requests.empty()) {
      const ResyncRequest request = transport.requests.front();
      transport.requests.erase(transport.requests.begin());
      server.handle_resync(request);
    }
  };

  const std::uint64_t total = source.event_count();
  for (std::uint64_t pos = 0; pos < total; ++pos) {
    const EventId id = source.arrival(pos);
    server.write(source.event(id), source.clock(id));
    serve();
  }
  server.finish();
  channel.flush();
  serve();

  // The forward stream is over; let the client recover or degrade.  Every
  // tick may fire a resync whose snapshot frames arrive through the same
  // faulty channel, so keep serving between ticks.
  client.finish_input();
  serve();
  std::uint64_t ticks = 0;
  while (!client.done() && ticks < options.settle_ticks) {
    client.tick();
    serve();
    ++ticks;
  }

  ChaosResult result;
  result.done = client.done();
  result.degraded = client.degraded();
  result.ingest = client.stats();
  result.faults = channel.stats();
  result.events_delivered = monitor.events_seen();
  result.matches = match_signature(monitor, 0);
  return result;
}

std::vector<std::string> clean_matches(const EventStore& source,
                                       StringPool& pool,
                                       const std::string& pattern_text) {
  Monitor monitor(pool, source.storage());
  monitor.add_pattern(pattern_text);
  std::vector<Symbol> names;
  for (TraceId t = 0; t < source.trace_count(); ++t) {
    names.push_back(source.trace_name(t));
  }
  monitor.on_traces(names);
  const std::uint64_t total = source.event_count();
  for (std::uint64_t pos = 0; pos < total; ++pos) {
    const EventId id = source.arrival(pos);
    monitor.on_event(source.event(id), source.clock(id));
  }
  return match_signature(monitor, 0);
}

bool is_subset_of(const std::vector<std::string>& subset,
                  const std::vector<std::string>& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

}  // namespace ocep::testing
