#include "net/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "net/protocol.h"
#include "net/shard.h"

namespace ocep::net {
namespace {

/// How long the admin plane waits for a shard thread to answer a posted
/// /healthz or /checkpoint task before reporting 503.  Generous: a shard
/// only stalls this long when one tenant's arrival wedges its reactor.
constexpr std::chrono::seconds kShardReplyDeadline{2};

/// Rebalancer hysteresis: the hottest shard must exceed the mean shard
/// load by this factor before anything moves (guards against noise
/// churn).
constexpr double kRebalanceHysteresis = 1.25;
/// Migrations per rebalance cycle.
constexpr std::size_t kRebalanceBudget = 4;

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.store_dir.empty()) {
    // Each of these acts only on the store; ignoring one silently would
    // let an operator believe tenants are being spilled or replicated.
    const std::pair<const char*, bool> store_only[] = {
        {"spill_bytes", config_.spill_bytes != 0},
        {"pool_bytes", config_.pool_bytes != 0},
        {"replicate_host", !config_.replicate_host.empty()},
    };
    for (const auto& [field, set] : store_only) {
      if (set) {
        throw Error(std::string(field) + " requires store_dir");
      }
    }
  }
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  // Placement first: shards consult it (overrides loaded from the
  // store dir) when partitioning the restore scan.
  placement_ = std::make_unique<PlacementMap>(config_.shards);
  try {
    placement_->load_file(config_.store_dir);
  } catch (const Error&) {
    // A corrupt placement map degrades to pure hash placement; the
    // tenant logs themselves are untouched.
    registry_.counter("net.placement_load_errors").add(1);
  }
  const bool reuseport = config_.shards > 1;
  // Shard 0 binds first so an ephemeral port request resolves once; the
  // siblings then join the same port via SO_REUSEPORT.
  shards_.push_back(std::make_unique<Shard>(
      config_, 0, config_.port, reuseport, tenant_total_, *placement_));
  const std::uint16_t ingest_port = shards_[0]->port();
  for (std::size_t i = 1; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config_, i, ingest_port, reuseport, tenant_total_, *placement_));
  }
  std::vector<Shard*> peers;
  peers.reserve(shards_.size());
  for (const auto& shard : shards_) {
    peers.push_back(shard.get());
  }
  for (const auto& shard : shards_) {
    shard->set_peers(peers);
  }
  // Only after every shard has scanned every log: a shard tombstoning a
  // record it holds but does not own must not race a sibling that still
  // needs to read that copy.
  for (const auto& shard : shards_) {
    shard->host().settle_store();
  }

  admin_ = std::make_unique<Listener>(config_.host, config_.admin_port);
  poller_.add(wake_.fd(), EPOLLIN, kTagWake);
  poller_.add(admin_->fd(), EPOLLIN, kTagAdmin);
  clock_ms_ = monotonic_ms();
}

Server::~Server() = default;

std::uint16_t Server::port() const noexcept { return shards_[0]->port(); }
std::uint16_t Server::admin_port() const noexcept { return admin_->port(); }

void Server::request_shutdown() noexcept {
  for (const auto& shard : shards_) {
    shard->request_stop();
  }
  stop_.store(true, std::memory_order_release);
  wake_.wake();
}

std::uint64_t Server::counter_value(std::string_view key) const {
  std::uint64_t total = registry_.counter_value(key);
  for (const auto& shard : shards_) {
    total += shard->metrics().counter_value(key);
  }
  return total;
}

void Server::merge_metrics(obs::Registry& into) const {
  for (const auto& shard : shards_) {
    into.merge_from(shard->metrics());
  }
  into.merge_from(registry_);
}

Tenant* Server::find_tenant(const std::string& name) {
  for (const auto& shard : shards_) {
    if (Tenant* tenant = shard->host().find_tenant(name)) {
      return tenant;
    }
  }
  return nullptr;
}

std::size_t Server::tenant_count() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->host().tenant_count();
  }
  return total;
}

int Server::tenant_shard(const std::string& name) const {
  // The placement map, not the shard tenant tables: it answers under its
  // own mutex, so this is safe against live shard threads (a mid-flight
  // migration reports the shard routing already points at).
  const std::optional<std::size_t> shard = placement_->shard_of(name);
  return shard ? static_cast<int>(*shard) : -1;
}

const obs::Registry& Server::shard_metrics(std::size_t index) const {
  return shards_.at(index)->metrics();
}

void Server::run() {
  running_.store(true, std::memory_order_release);
  shard_threads_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard_threads_.emplace_back([s = shard.get()] { s->run(); });
  }
  const auto join_all = [this] {
    for (std::thread& thread : shard_threads_) {
      thread.join();
    }
    shard_threads_.clear();
    // A tenant handed off to a shard that had already drained its final
    // mailbox would otherwise be stranded (and silently lost) in the
    // queue; service leftovers now that every shard thread is done.
    for (const auto& shard : shards_) {
      shard->drain_stranded();
    }
    running_.store(false, std::memory_order_release);
  };
  try {
    run_admin();
  } catch (...) {
    request_shutdown();
    join_all();
    throw;
  }
  join_all();
  if (!placement_->save_file(config_.store_dir)) {
    registry_.counter("net.placement_save_errors").add(1);
  }
}

void Server::run_admin() {
  // The admin plane has no tick-driven work beyond idle sweeps, so a
  // coarse timeout keeps the thread cold between scrapes; a live
  // rebalancer needs ticks at least as fine as its interval.
  int timeout_ms = 200;
  if (config_.rebalance) {
    const std::uint64_t interval =
        std::max<std::uint64_t>(config_.rebalance_interval_ms, 1);
    timeout_ms = static_cast<int>(std::min<std::uint64_t>(200, interval));
  }
  std::vector<Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = poller_.wait(events, timeout_ms);
    clock_ms_ = monotonic_ms();
    for (std::size_t i = 0; i < n; ++i) {
      const Poller::Event& ev = events[i];
      switch (ev.tag) {
        case kTagWake:
          wake_.drain();
          break;
        case kTagAdmin:
          accept_admin();
          break;
        default:
          on_admin_event(ev.tag, ev.events);
          break;
      }
    }
    sweep_admin_timers();
    if (config_.rebalance && clock_ms_ >= next_rebalance_ms_) {
      next_rebalance_ms_ = clock_ms_ + config_.rebalance_interval_ms;
      rebalance_cycle();
    }
  }
  poller_.del(admin_->fd());
  admin_->close();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    close_admin(id);
  }
}

void Server::accept_admin() {
  admin_->accept_ready([this](OwnedFd fd) {
    if (conns_.size() >= config_.max_connections) {
      registry_.counter("net.accept_overflow").add(1);
      return;  // fd closes on scope exit; the peer sees a reset
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(std::move(fd), id, ConnKind::kAdmin);
    conn->last_active_ms = clock_ms_;
    poller_.add(conn->fd(), EPOLLIN, id);
    conns_.emplace(id, std::move(conn));
    registry_.counter("net.accepted", "plane=\"admin\"").add(1);
    registry_.gauge("net.connections").add(1);
  });
}

void Server::on_admin_event(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;  // closed earlier in this batch
  }
  Conn& conn = *it->second;
  conn.last_active_ms = clock_ms_;
  if ((events & EPOLLIN) != 0 || (events & (EPOLLHUP | EPOLLERR)) != 0) {
    const IoStatus status = conn.fill();
    if (conn.state() == ConnState::kRequest) {
      advance_admin(conn);
    } else {
      conn.consume(conn.pending().size());
    }
    if (status == IoStatus::kEof) {
      if (conn.state() != ConnState::kClosed) {
        conn.set_state(ConnState::kClosing);
      }
    } else if (status == IoStatus::kError) {
      conn.set_state(ConnState::kClosed);
    }
  }
  settle_admin(id);
}

void Server::advance_admin(Conn& conn) {
  std::size_t head_end = conn.rpos();
  HttpRequest request;
  switch (parse_http_request(conn.rbuf(), head_end, Conn::kMaxPrefaceBytes,
                             request)) {
    case ParseStatus::kNeedMore:
      return;
    case ParseStatus::kError:
      conn.set_state(ConnState::kClosed);
      return;
    case ParseStatus::kDone:
      break;
  }
  conn.consume(head_end - conn.rpos());
  const std::string& method = request.method;
  const std::string& path = request.path;
  const std::string& query = request.query;

  if (method == "GET" && path == "/metrics") {
    respond_http(conn, 200, "text/plain; version=0.0.4",
                 metrics_prometheus());
  } else if (method == "GET" && path == "/healthz") {
    std::string body = healthz_json();
    if (body.empty()) {
      respond_http(conn, 503, "application/json",
                   "{\"error\":\"shard did not answer\"}\n");
    } else {
      respond_http(conn, 200, "application/json", body);
    }
  } else if (method == "POST" && path == "/checkpoint") {
    if (config_.store_dir.empty()) {
      respond_http(conn, 409, "application/json",
                   "{\"error\":\"no store_dir\"}\n");
    } else {
      const auto [code, body] = checkpoint_live();
      respond_http(conn, code, "application/json", body);
    }
  } else if (method == "POST" && path == "/rebalance") {
    // Plain POST runs one scoring + migration cycle; ?tenant=X&to=N
    // forces a single targeted migration instead.
    std::string tenant;
    std::size_t target = 0;
    bool targeted = false;
    std::size_t pos = 0;
    while (pos < query.size()) {
      std::size_t amp = query.find('&', pos);
      if (amp == std::string::npos) {
        amp = query.size();
      }
      const std::string_view pair =
          std::string_view(query).substr(pos, amp - pos);
      const std::size_t eq = pair.find('=');
      if (eq != std::string_view::npos) {
        const std::string_view key = pair.substr(0, eq);
        const std::string_view value = pair.substr(eq + 1);
        if (key == "tenant") {
          tenant = std::string(value);
        } else if (key == "to") {
          targeted = true;
          target = 0;
          for (const char c : value) {
            if (c < '0' || c > '9') {
              targeted = false;
              break;
            }
            target = target * 10 + static_cast<std::size_t>(c - '0');
          }
        }
      }
      pos = amp + 1;
    }
    if (!tenant.empty() || targeted) {
      if (tenant.empty() || !targeted || target >= shards_.size()) {
        respond_http(conn, 409, "application/json",
                     "{\"error\":\"need tenant=<name>&to=<shard>\"}\n");
      } else if (migrate_tenant(tenant, target)) {
        respond_http(conn, 200, "application/json",
                     "{\"migrated\":\"" + tenant +
                         "\",\"to\":" + std::to_string(target) + "}\n");
      } else {
        respond_http(conn, 409, "application/json",
                     "{\"error\":\"migration refused\"}\n");
      }
    } else {
      const std::size_t moves = rebalance_cycle();
      respond_http(conn, 200, "application/json",
                   "{\"moves\":" + std::to_string(moves) + "}\n");
    }
  } else {
    respond_http(conn, 404, "text/plain", "not found\n");
  }
}

void Server::respond_http(Conn& conn, int code, std::string_view content_type,
                          std::string_view body) {
  if (!conn.respond_http(code, content_type, body)) {
    registry_.counter("net.write_overflow").add(1);
  }
}

std::string Server::metrics_prometheus() const {
  // Merge shard registries into a scratch per scrape: instruments are
  // relaxed atomics, so reading them while shard threads record is safe,
  // and a scratch keeps the merged totals from compounding.
  obs::Registry merged;
  merge_metrics(merged);
  return merged.to_prometheus();
}

std::string Server::healthz_json() {
  std::vector<std::string> rows(shards_.size());
  std::vector<std::string> status(shards_.size());
  std::size_t connections = conns_.size();
  if (running_.load(std::memory_order_acquire)) {
    // Tenant state belongs to shard threads; render on each one.
    using Reply = std::tuple<std::string, std::string, std::size_t>;
    std::vector<std::future<Reply>> replies;
    replies.reserve(shards_.size());
    for (const auto& shard : shards_) {
      auto promise = std::make_shared<std::promise<Reply>>();
      replies.push_back(promise->get_future());
      Shard* raw = shard.get();
      shard->post([promise, raw] {
        promise->set_value({raw->host().healthz_rows(),
                            raw->healthz_shard_json(),
                            raw->connection_count()});
      });
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (replies[i].wait_for(kShardReplyDeadline) !=
          std::future_status::ready) {
        return {};
      }
      Reply reply = replies[i].get();
      rows[i] = std::move(std::get<0>(reply));
      status[i] = std::move(std::get<1>(reply));
      connections += std::get<2>(reply);
    }
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      rows[i] = shards_[i]->host().healthz_rows();
      status[i] = shards_[i]->healthz_shard_json();
      connections += shards_[i]->connection_count();
    }
  }
  std::ostringstream out;
  out << "{\"shards\":" << shards_.size() << ",\"shards_status\":[";
  for (std::size_t i = 0; i < status.size(); ++i) {
    if (i != 0) {
      out << ",";
    }
    out << status[i];
  }
  out << "],\"tenants\":[";
  bool first = true;
  for (const std::string& shard_rows : rows) {
    if (shard_rows.empty()) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << shard_rows;
  }
  out << "],\"connections\":" << connections << "}\n";
  return out.str();
}

std::pair<int, std::string> Server::checkpoint_live() {
  // Called only by the admin plane inside run(): each shard owns its
  // store, so the commit runs on the shard's own thread.
  using Reply = std::optional<std::size_t>;
  std::vector<std::future<Reply>> replies;
  replies.reserve(shards_.size());
  for (const auto& shard : shards_) {
    auto promise = std::make_shared<std::promise<Reply>>();
    replies.push_back(promise->get_future());
    Shard* raw = shard.get();
    shard->post([promise, raw] { promise->set_value(raw->host().checkpoint()); });
  }
  std::size_t written = 0;
  bool failed = false;
  for (auto& reply : replies) {
    if (reply.wait_for(kShardReplyDeadline) != std::future_status::ready) {
      return {503, "{\"error\":\"shard did not answer\"}\n"};
    }
    const Reply committed = reply.get();
    failed = failed || !committed;
    written += committed.value_or(0);
  }
  if (!placement_->save_file(config_.store_dir)) {
    registry_.counter("net.placement_save_errors").add(1);
  }
  if (failed) {
    return {503, "{\"error\":\"store commit failed\"}\n"};
  }
  return {200, "{\"written\":" + std::to_string(written) + "}\n"};
}

bool Server::migrate_tenant(const std::string& name, std::size_t target) {
  if (!running_.load(std::memory_order_acquire) || target >= shards_.size()) {
    return false;
  }
  const std::size_t source = placement_->owner_of(name);
  if (source >= shards_.size() || source == target) {
    return false;
  }
  auto promise = std::make_shared<std::promise<bool>>();
  std::future<bool> reply = promise->get_future();
  Shard* raw = shards_[source].get();
  raw->post([promise, raw, name, target] {
    promise->set_value(raw->migrate_tenant(name, target));
  });
  if (reply.wait_for(kShardReplyDeadline) != std::future_status::ready) {
    return false;
  }
  return reply.get();
}

std::size_t Server::rebalance_cycle() {
  registry_.counter("net.rebalance_cycles").add(1);
  const std::size_t shard_count = shards_.size();
  if (shard_count < 2) {
    return 0;
  }
  const std::uint64_t now = monotonic_ms();

  // Score: per-tenant byte rate over the window since the last cycle
  // (cumulative counters survive migration — each shard registry keeps
  // the bytes from the tenant's residency there, so the cross-shard sum
  // is monotone).  A tenant's first sighting scores 0: no move decisions
  // on a single sample.
  struct Candidate {
    std::string name;
    std::size_t shard;
    std::uint64_t rate;
  };
  std::vector<Candidate> candidates;
  std::vector<double> loads(shard_count, 0.0);
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [name, shard] : placement_->residents()) {
    const std::uint64_t total =
        counter_value("net.tenant.bytes{tenant=\"" + name + "\"}");
    const auto it = rebalance_last_bytes_.find(name);
    const std::uint64_t rate =
        it == rebalance_last_bytes_.end() || total < it->second
            ? 0
            : total - it->second;
    totals[name] = total;
    candidates.push_back(Candidate{name, shard, rate});
    loads[shard] += static_cast<double>(rate);
  }
  rebalance_last_bytes_ = std::move(totals);
  placement_->set_load_hints(loads);

  std::size_t hottest = 0;
  std::size_t coldest = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < shard_count; ++i) {
    sum += loads[i];
    if (loads[i] > loads[hottest]) {
      hottest = i;
    }
    if (loads[i] < loads[coldest]) {
      coldest = i;
    }
  }
  const double mean = sum / static_cast<double>(shard_count);
  // Hysteresis + an absolute imbalance floor: an idle or already-even
  // daemon must not churn tenants over measurement noise.
  if (loads[hottest] < mean * kRebalanceHysteresis ||
      loads[hottest] - loads[coldest] <=
          static_cast<double>(config_.rebalance_min_rate)) {
    return 0;
  }

  // Largest movers first: fewer migrations shed the most load.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.rate > b.rate;
            });
  std::size_t moves = 0;
  for (const Candidate& candidate : candidates) {
    if (moves >= kRebalanceBudget || loads[hottest] <= mean) {
      break;
    }
    if (candidate.shard != hottest || candidate.rate == 0) {
      continue;
    }
    const auto cooled = rebalance_cooldown_.find(candidate.name);
    if (cooled != rebalance_cooldown_.end() && now < cooled->second) {
      continue;
    }
    // Re-pick the sink each move so the budget spreads across shards,
    // and skip movers so hot they would just invert the imbalance.
    coldest = 0;
    for (std::size_t i = 1; i < shard_count; ++i) {
      if (loads[i] < loads[coldest]) {
        coldest = i;
      }
    }
    if (coldest == hottest ||
        static_cast<double>(candidate.rate) >=
            loads[hottest] - loads[coldest]) {
      continue;
    }
    // Fire and forget: the source shard freezes + hands off on its own
    // thread; adoption lands whenever the destination drains its mail.
    Shard* raw = shards_[hottest].get();
    const std::string name = candidate.name;
    const std::size_t target = coldest;
    raw->post([raw, name, target] { raw->migrate_tenant(name, target); });
    rebalance_cooldown_[name] = now + config_.rebalance_cooldown_ms;
    loads[hottest] -= static_cast<double>(candidate.rate);
    loads[coldest] += static_cast<double>(candidate.rate);
    registry_.counter("net.rebalance_moves").add(1);
    ++moves;
  }
  // Expired cooldowns are dead weight; prune so the map stays bounded by
  // the live tenant set.
  for (auto it = rebalance_cooldown_.begin();
       it != rebalance_cooldown_.end();) {
    it = now >= it->second ? rebalance_cooldown_.erase(it) : ++it;
  }
  return moves;
}

void Server::settle_admin(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it != conns_.end() && it->second->settle(poller_)) {
    close_admin(id);
  }
}

void Server::close_admin(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  poller_.del(conn.fd());
  registry_.counter("net.bytes_in_total").add(conn.bytes_in());
  registry_.counter("net.bytes_out_total").add(conn.bytes_out());
  registry_.gauge("net.connections").add(-1);
  conns_.erase(it);
}

void Server::sweep_admin_timers() {
  clock_ms_ = monotonic_ms();
  if (config_.idle_timeout_ms == 0) {
    return;
  }
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_) {
    if (clock_ms_ - conn->last_active_ms > config_.idle_timeout_ms) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) {
    registry_.counter("net.idle_closed").add(1);
    close_admin(id);
  }
}

}  // namespace ocep::net
