#include "world.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/multicast.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "transport/vmtp.hpp"
#include "viper/codec.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kHeaderBytes = 20;  // seq u64, due i64, length u32

/// Writes the generator header into the first kHeaderBytes of @p payload.
void stamp(wire::Bytes& payload, std::uint64_t seq, sim::Time due) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(payload.data(), &seq, 8);
  std::memcpy(payload.data() + 8, &due, 8);
  std::memcpy(payload.data() + 16, &len, 4);
}

/// Seed-derived fill for payload bytes past the header.
wire::Bytes fill_pattern(std::size_t n, std::uint64_t seed) {
  wire::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((seed >> 8) + i * 13);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared by the two open-loop packet workloads: payload stamping, sink-side
// integrity checks and due-time latency.

class PacketWorld : public World {
 protected:
  PacketWorld(std::uint64_t seed, sim::Time step, std::size_t max_payload)
      : World(step),
        fill_(fill_pattern(max_payload, seed)) {}

  /// Sends one stamped payload of @p size along @p route.
  void send_payload(viper::ViperHost& host, const core::SourceRoute& route,
                    std::size_t size, std::uint64_t seq, sim::Time due) {
    scratch_.assign(fill_.begin(), fill_.begin() + static_cast<long>(size));
    stamp(scratch_, seq, due);
    if (tracer_ == nullptr) {
      host.send(route, scratch_);
      return;
    }
    const std::uint64_t t0 = wall_ns();
    const std::uint64_t id = host.send(route, scratch_);
    tracer_->call(Call::kSend, t0, wall_ns(), id);
  }

  void on_delivery(const viper::Delivery& d) {
    ++sink_delivered_;
    if (d.truncated || d.data.size() < kHeaderBytes) {
      ++sink_bad_;
      return;
    }
    std::uint32_t len = 0;
    sim::Time due = 0;
    std::memcpy(&due, d.data.data() + 8, 8);
    std::memcpy(&len, d.data.data() + 16, 4);
    const std::size_t fill_len = d.data.size() - kHeaderBytes;
    if (len != d.data.size() || d.data.size() > fill_.size() ||
        std::memcmp(d.data.data() + kHeaderBytes,
                    fill_.data() + kHeaderBytes, fill_len) != 0) {
      ++sink_bad_;
      return;
    }
    ++sink_ok_;
    if (latency_log_ != nullptr) latency_log_->push_back(d.delivered_at - due);
  }

  [[nodiscard]] Totals workload_totals() const override {
    Totals t;
    t.attempted = offered_;
    t.completed = sink_delivered_;
    t.succeeded = sink_ok_;
    return t;
  }

  void workload_checks(std::vector<std::string>& failures) const override {
    if (sink_bad_ != 0) {
      failures.push_back(std::to_string(sink_bad_) +
                         " sink deliveries failed the payload check");
    }
  }

  [[nodiscard]] sim::Time drain_time() const override {
    return 500 * sim::kMillisecond;
  }
  void stop() override { stopped_ = true; }

  const wire::Bytes fill_;
  wire::Bytes scratch_;
  bool stopped_ = false;
  std::uint64_t offered_ = 0;
  std::uint64_t sink_delivered_ = 0;
  std::uint64_t sink_ok_ = 0;
  std::uint64_t sink_bad_ = 0;
};

// ---------------------------------------------------------------------------
// line8_small: src — r1 … r8 — dst, 64 B payloads, Poisson open loop at
// ~30% of the 1 Gb/s link.  No tokens, congestion control, faults or
// observability: the fixed per-hop cost dominates.

class Line8World final : public PacketWorld {
 public:
  static constexpr std::size_t kPayload = 64;
  static constexpr double kLoad = 0.30;

  Line8World(std::uint64_t seed, Tracer* tracer)
      : PacketWorld(seed, sim::kMillisecond, kPayload),
        rng_(seed ^ 0x11E8) {
    tracer_ = tracer;
    src_ = &fabric_.add_host("src.line8");
    net::PortedNode* prev = src_;
    for (int i = 1; i <= 8; ++i) {
      auto& r = fabric_.add_router("r" + std::to_string(i));
      fabric_.connect(*prev, r);
      prev = &r;
    }
    auto& dst = fabric_.add_host("dst.line8");
    fabric_.connect(*prev, dst);
    dst.set_default_handler(
        [this](const viper::Delivery& d) { on_delivery(d); });

    timed_query(*src_, "dst.line8", {});
    route_ = timed_route_to(fabric_.route_cache(*src_), "dst.line8", {}).value();
    const std::size_t wire =
        viper::encode_packet(route_.route, fill_).size();
    mean_gap_ = sim::from_seconds(static_cast<double>(wire) * 8.0 /
                                  (kLoad * dir::LinkParams{}.rate_bps));
    start();
    warm_up(20 * sim::kMillisecond);
    tracer_ = nullptr;
  }

  [[nodiscard]] double reference_rate_bps() const override {
    return dir::LinkParams{}.rate_bps;
  }

 private:
  void start() override {
    sim_.after(rng_.exp_interval(mean_gap_), [this] { emit(); });
  }

  void emit() {
    if (stopped_) return;
    ++generator_events_;
    send_payload(*src_, route_.route, kPayload, offered_++, sim_.now());
    sim_.after(rng_.exp_interval(mean_gap_), [this] { emit(); });
  }

  sim::Rng rng_;
  viper::ViperHost* src_ = nullptr;
  dir::IssuedRoute route_;
  sim::Time mean_gap_ = 0;
};

// ---------------------------------------------------------------------------
// fanin_tokens_mtu: 16 hosts — r1 —(100 Mb/s, limited buffer)— r2 — sink,
// ~1350 B payloads, on-off bursty open loop averaging ~90% of the
// bottleneck.  Tokens enforced (optimistic), congestion control on; every
// source paces through its SourceThrottle.

class FaninWorld final : public PacketWorld {
 public:
  static constexpr int kSources = 16;
  static constexpr std::size_t kMinPayload = 1300;
  static constexpr std::size_t kMaxPayload = 1400;
  static constexpr double kBottleneckBps = 100e6;
  static constexpr double kLoad = 0.90;
  static constexpr std::size_t kBufferBytes = 1024 * 1024;
  static constexpr sim::Time kOnMean = 4 * sim::kMillisecond;
  static constexpr sim::Time kOffMean = 12 * sim::kMillisecond;

  FaninWorld(std::uint64_t seed, Tracer* tracer)
      : PacketWorld(seed, 50 * sim::kMillisecond, kMaxPayload) {
    tracer_ = tracer;
    std::vector<viper::ViperHost*> hosts;
    for (int i = 0; i < kSources; ++i) {
      const std::string name =
          std::string("h") + (i < 10 ? "0" : "") + std::to_string(i);
      hosts.push_back(&fabric_.add_host(name + ".fanin"));
    }
    auto& r1 = fabric_.add_router("r1");
    auto& r2 = fabric_.add_router("r2");
    auto& sink = fabric_.add_host("sink.fanin");
    for (auto* h : hosts) fabric_.connect(*h, r1);
    dir::LinkParams bottleneck;
    bottleneck.rate_bps = kBottleneckBps;
    fabric_.connect(r1, r2, bottleneck);
    r1.port(r1.port_count()).set_buffer_limit(kBufferBytes);
    fabric_.connect(r2, sink);
    sink.set_default_handler(
        [this](const viper::Delivery& d) { on_delivery(d); });

    fabric_.enable_tokens(0x70C3'0000 ^ seed, /*enforce=*/true,
                          tokens::UncachedPolicy::kOptimistic);
    fabric_.enable_congestion_control();

    // Peak rate while on: the duty cycle scales it to the average load.
    const double duty = static_cast<double>(kOnMean) /
                        static_cast<double>(kOnMean + kOffMean);
    const double peak_bps = kLoad * kBottleneckBps / (kSources * duty);
    // The warm-up draws from a fixed stream, so every seed's set-up does
    // the same work: the bursts of 400 ms moved set-up time by a third
    // from seed to seed.  The seed's streams take over when it ends.
    sim::Rng warm_up_seeds(0xFA41);
    for (auto* h : hosts) {
      timed_query(*h, "sink.fanin", {});
      Source s{h,
               timed_route_to(fabric_.route_cache(*h), "sink.fanin", {})
                   .value(),
               {}, fabric_.throttle_of(*h), warm_up_seeds.split(), 0, 0, 0};
      s.key = cc::FlowKey{s.route.router_ids.front(),
                          s.route.route.segments.front().port};
      s.route_bytes = viper::encode_route(s.route.route).size() + 2;
      const double mean_wire = static_cast<double>(
          s.route_bytes + (kMinPayload + kMaxPayload) / 2);
      s.gap = sim::from_seconds(mean_wire * 8.0 / peak_bps);
      sources_.push_back(std::move(s));
    }
    start();
    warm_up(400 * sim::kMillisecond);
    sim::Rng seeds(seed ^ 0xFA41);
    for (Source& s : sources_) s.rng = seeds.split();
    tracer_ = nullptr;
  }

  [[nodiscard]] double reference_rate_bps() const override {
    return kBottleneckBps;
  }

 private:
  struct Source {
    viper::ViperHost* host;
    dir::IssuedRoute route;
    cc::FlowKey key;
    cc::SourceThrottle* throttle;
    sim::Rng rng;
    sim::Time on_until;
    sim::Time gap;
    std::size_t route_bytes;
  };

  void start() override {
    for (Source& s : sources_) {
      sim_.after(1 + s.rng.exp_interval(kOffMean), [this, &s] { tick(s); });
    }
  }

  /// One generator step of @p s: begin a burst after an off period, or
  /// offer the next packet of the current burst.
  void tick(Source& s) {
    if (stopped_) return;
    ++generator_events_;
    const sim::Time now = sim_.now();
    if (now >= s.on_until) {
      s.on_until = now + s.rng.exp_interval(kOnMean);
    }
    offer(s);
    sim::Time next = now + s.gap;
    if (next >= s.on_until) {
      next = s.on_until + s.rng.exp_interval(kOffMean);
    }
    sim_.at(next, [this, &s] { tick(s); });
  }

  void offer(Source& s) {
    const auto size =
        static_cast<std::size_t>(s.rng.uniform_int(kMinPayload, kMaxPayload));
    const std::uint64_t seq = offered_++;
    const sim::Time due = sim_.now();
    sim::Time at = due;
    if (tracer_ == nullptr) {
      at = s.throttle->acquire(s.key, s.route_bytes + size);
    } else {
      const std::uint64_t t0 = wall_ns();
      at = s.throttle->acquire(s.key, s.route_bytes + size);
      tracer_->call(Call::kAcquire, t0, wall_ns());
    }
    if (at <= due) {
      send_payload(*s.host, s.route.route, size, seq, due);
      return;
    }
    sim_.at(at, [this, &s, size, seq, due] {
      send_payload(*s.host, s.route.route, size, seq, due);
    });
  }

  std::vector<Source> sources_;
};

// ---------------------------------------------------------------------------
// chaos_rpc_observed: the chaos diamond (r1, r2 | r3a–r3b, r4) under the
// chaos_test fault plan, with every observability plane on, closed-loop
// VMTP echo clients and a hostile byte-soup host on r1.

class ChaosWorld final : public World {
 public:
  static constexpr int kClients = 4;
  static constexpr std::uint64_t kServerEntity = 0x5E;
  static constexpr double kHostileShare = 0.10;
  /// Rare enough that the windows a flap stalls stay beyond the tail
  /// percentile (ten windows beyond it) instead of being it.
  static constexpr sim::Time kFlapEvery = 5 * sim::kSecond;
  static constexpr sim::Time kFlapFor = 30 * sim::kMillisecond;
  static constexpr sim::Time kThink = sim::kMicrosecond;
  static constexpr int kMaxAttempts = 8;

  ChaosWorld(std::uint64_t seed, Tracer* tracer)
      : World(2 * sim::kMillisecond),
        plane_(flow::FlowConfig{128, 64, seed}, &registry_, &recorder_),
        rng_(seed * 131 + 17),
        hostile_rng_(seed ^ 0xB17E) {
    tracer_ = tracer;
    client_host_ = &fabric_.add_host("client.chaos");
    auto& server_host = fabric_.add_host("server.chaos");
    r1_ = &fabric_.add_router("r1");
    r2_ = &fabric_.add_router("r2");
    auto& r3a = fabric_.add_router("r3a");
    auto& r3b = fabric_.add_router("r3b");
    auto& r4 = fabric_.add_router("r4");
    dir::LinkParams fast;
    fast.prop_delay = 10 * sim::kMicrosecond;
    dir::LinkParams slower;
    slower.prop_delay = 15 * sim::kMicrosecond;
    fabric_.connect(*client_host_, *r1_, fast);
    fabric_.connect(*r1_, *r2_, fast);
    fabric_.connect(*r2_, r4, fast);
    fabric_.connect(*r1_, r3a, slower);
    fabric_.connect(r3a, r3b, slower);
    fabric_.connect(r3b, r4, slower);
    fabric_.connect(r4, server_host, fast);
    hostile_ = &fabric_.add_host("hostile.chaos");
    fabric_.connect(*hostile_, *r1_, fast);

    fabric_.enable_tokens(0xC4A05, /*enforce=*/true,
                          tokens::UncachedPolicy::kOptimistic);
    fabric_.enable_congestion_control();
    const obs::Observer observer{&registry_, &recorder_, &plane_};
    fabric_.enable_observability(observer);
    dir::PathTelemetryConfig telemetry;
    telemetry.seed = seed;
    telemetry.sample_period = 16;
    fabric_.enable_path_telemetry(telemetry);
    fabric_.enable_health();

    // The chaos_test plan, except for corruption: its up-to-8-bit flips on
    // every lane let two flips on one packet cancel in VMTP's 16-bit
    // checksum, so at closed-loop volume a few damaged echoes are acked in
    // every run and a byte-exact echo check cannot hold.  Here each packet
    // can take at most one single-bit flip (host egress only), which the
    // checksum always detects.  README.md records the finding.
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.defaults.drop_rate = 0.01;
    plan.defaults.duplicate_rate = 0.01;
    plan.defaults.reorder_rate = 0.01;
    plan.defaults.jitter_rate = 0.01;
    plan.token_poisons_per_second = 100.0;
    for (const viper::ViperHost* host : {client_host_, &server_host}) {
      fault::LaneConfig& lane = plan.lane(std::string(host->name()) + ":p1");
      lane.corrupt_rate = 0.01;
      lane.corrupt_max_bits = 1;
    }
    faults_ = std::make_unique<fault::FaultEngine>(sim_, plan, fault_stats_);
    for (auto* router : fabric_.routers()) {
      faults_->attach_all(*router);
      faults_->attach_token_cache(std::string(router->name()),
                                  router->token_cache());
    }
    faults_->attach_all(*client_host_);
    faults_->attach_all(server_host);

    vmtp::VmtpConfig config;
    config.max_retries = 6;
    server_ = std::make_unique<vmtp::VmtpEndpoint>(sim_, server_host,
                                                   kServerEntity, config);
    server_->set_observer(observer);
    server_->serve([](std::span<const std::uint8_t> req,
                      const viper::Delivery&) {
      wire::Bytes response(req.begin(), req.end());
      for (auto& byte : response) byte ^= 0x5A;
      return response;
    });

    dir::RouteCacheConfig cache_config;
    cache_config.ttl = 200 * sim::kMillisecond;
    cache_ = &fabric_.route_cache(*client_host_, cache_config);
    query_.dest_endpoint = kServerEntity;
    timed_query(*client_host_, "server.chaos", query_);
    for (int c = 0; c < kClients; ++c) {
      auto client = std::make_unique<Client>();
      client->endpoint = std::make_unique<vmtp::VmtpEndpoint>(
          sim_, *client_host_, 0xC1 + static_cast<std::uint64_t>(c), config);
      client->endpoint->set_observer(observer);
      client->endpoint->set_failure_hook(
          [this] { cache_->report_failure("server.chaos"); });
      client->endpoint->set_rtt_hook(
          [this](sim::Time rtt) { cache_->report_rtt("server.chaos", rtt); });
      clients_.push_back(std::move(client));
    }
    start();
    warm_up(100 * sim::kMillisecond);
    tracer_ = nullptr;
  }

  [[nodiscard]] double reference_rate_bps() const override {
    return dir::LinkParams{}.rate_bps;
  }
  vmtp::VmtpEndpoint::Stats transport_stats() const override {
    vmtp::VmtpEndpoint::Stats sum;
    auto add = [&sum](const vmtp::VmtpEndpoint& e) {
      const auto& s = e.stats();
      sum.requests_sent += s.requests_sent;
      sum.responses_received += s.responses_received;
      sum.requests_served += s.requests_served;
      sum.data_packets_sent += s.data_packets_sent;
      sum.retransmitted_packets += s.retransmitted_packets;
      sum.nacks_sent += s.nacks_sent;
      sum.nacks_received += s.nacks_received;
      sum.timeouts += s.timeouts;
      sum.failures += s.failures;
      sum.mpl_discards += s.mpl_discards;
      sum.checksum_drops += s.checksum_drops;
      sum.misdeliveries += s.misdeliveries;
      sum.duplicate_requests += s.duplicate_requests;
    };
    add(*server_);
    for (const auto& c : clients_) add(*c->endpoint);
    return sum;
  }
  stats::Registry* registry() override { return &registry_; }
  obs::FlightRecorder* recorder() override { return &recorder_; }
  flow::FlowPlane* flow_plane() override { return &plane_; }

 private:
  struct Client {
    std::unique_ptr<vmtp::VmtpEndpoint> endpoint;
  };

  void start() override {
    for (auto& c : clients_) {
      Client* client = c.get();
      sim_.after(kThink, [this, client] { issue(*client); });
    }
    sim_.after(200 * sim::kMillisecond, [this] { flap(); });
  }

  void stop() override { stopped_ = true; }

  [[nodiscard]] sim::Time drain_time() const override {
    return 3 * sim::kSecond;
  }

  /// A flap on the primary path, repeating (the chaos_test flap window).
  void flap() {
    faults_->schedule_flap(r1_->port(2), sim_.now(), kFlapFor);
    faults_->schedule_flap(r2_->port(1), sim_.now(), kFlapFor);
    sim_.after(kFlapEvery, [this] { flap(); });
  }

  /// One echo operation: its request, the byte-exact answer it must get,
  /// and the VMTP transactions spent on it so far.
  struct Echo {
    wire::Bytes request;
    wire::Bytes expected;
    int attempts = 0;
  };

  /// Closed loop: the client's next echo, issued when the last one
  /// completed.
  void issue(Client& client) {
    if (stopped_) return;
    const std::size_t size = 1 + rng_.uniform_int(0, 1999);
    auto echo = std::make_shared<Echo>();
    echo->request.resize(size);
    const auto tag = static_cast<std::uint8_t>(issued_);
    for (std::size_t i = 0; i < size; ++i) {
      echo->request[i] = static_cast<std::uint8_t>(tag + i * 13);
    }
    echo->expected = echo->request;
    for (auto& byte : echo->expected) byte ^= 0x5A;
    ++issued_;
    inject_hostile(size);
    attempt(client, std::move(echo));
  }

  /// One VMTP transaction for @p echo.  A transaction that fails (retries
  /// exhausted, typically inside a flap window) has already told the route
  /// cache, which fails over; the echo is then retried on the new route,
  /// as an application would, so an echo fails only after kMaxAttempts.
  void attempt(Client& client, std::shared_ptr<Echo> echo) {
    ++generator_events_;  // one benchmark event per attempt
    const auto route = timed_route_to(*cache_, "server.chaos", query_);
    if (!route.has_value()) {
      sim_.after(sim::kMillisecond,
                 [this, &client, echo] { attempt(client, echo); });
      return;
    }
    ++echo->attempts;
    auto done = [this, &client, echo](vmtp::Result r) {
      if (!r.ok && echo->attempts < kMaxAttempts) {
        sim_.after(kThink, [this, &client, echo] { attempt(client, echo); });
        return;
      }
      ++completed_;
      if (!r.ok) {
        ++failed_;
      } else if (r.response == echo->expected) {
        ++ok_;
      } else {
        ++mismatched_;
      }
      sim_.after(kThink, [this, &client] { issue(client); });
    };
    if (tracer_ == nullptr) {
      client.endpoint->invoke(*route, kServerEntity, echo->request,
                              std::move(done));
      return;
    }
    const std::uint64_t trace = fabric_.network().packets().issued() + 1;
    const std::uint64_t t0 = wall_ns();
    client.endpoint->invoke(*route, kServerEntity, echo->request,
                            std::move(done));
    tracer_->call(Call::kInvoke, t0, wall_ns(), trace);
  }

  /// Byte soup from the hostile host at ~10% of the client packet rate: a
  /// request of n bytes costs about 2·ceil(n/1024) data packets.
  void inject_hostile(std::size_t request_bytes) {
    double expected =
        kHostileShare * 2.0 * static_cast<double>((request_bytes + 1023) / 1024);
    for (; expected > 0.0; expected -= 1.0) {
      if (!hostile_rng_.chance(std::min(expected, 1.0))) continue;
      hostile_->port(1).enqueue(
          fabric_.network().packets().make(byte_soup(), sim_.now()),
          net::TxMeta{});
      ++hostile_injected_;
    }
  }

  /// 4–256 random bytes.  Soup whose first segment parses as a tree-info
  /// segment is redrawn: a router consumes a branched packet without moving
  /// any public counter, so its fate could not enter the conservation
  /// identity (README.md, "Known gaps").
  wire::Bytes byte_soup() {
    while (true) {
      wire::Bytes soup(hostile_rng_.uniform_int(4, 256));
      for (auto& byte : soup) {
        byte = static_cast<std::uint8_t>(hostile_rng_.next_u64());
      }
      try {
        const auto view = viper::decode_segment_view(soup, 0);
        if (view.is_legal() && core::is_tree_info(view.port_info)) continue;
      } catch (const wire::CodecError&) {
        // Malformed at the first segment: the common case.
      }
      return soup;
    }
  }

  [[nodiscard]] Totals workload_totals() const override {
    Totals t;
    t.attempted = issued_;
    t.completed = completed_;
    t.succeeded = ok_;
    return t;
  }

  void workload_checks(std::vector<std::string>& failures) const override {
    if (mismatched_ != 0) {
      failures.push_back(std::to_string(mismatched_) +
                         " VMTP echoes were not byte-exact");
    }
    if (drained_ && completed_ != issued_) {
      failures.push_back(std::to_string(issued_ - completed_) +
                         " transactions never completed");
    }
  }

  stats::Registry registry_;
  obs::FlightRecorder recorder_;
  flow::FlowPlane plane_;
  std::unique_ptr<fault::FaultEngine> faults_;
  viper::ViperHost* client_host_ = nullptr;
  viper::ViperHost* hostile_ = nullptr;
  viper::ViperRouter* r1_ = nullptr;
  viper::ViperRouter* r2_ = nullptr;
  dir::RouteCache* cache_ = nullptr;
  dir::QueryOptions query_;
  std::unique_ptr<vmtp::VmtpEndpoint> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  sim::Rng rng_;
  sim::Rng hostile_rng_;
  bool stopped_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace

std::uint64_t World::fault_count(std::string_view lane) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : fault_stats_.snapshot()) {
    if (name.size() > lane.size() && name.ends_with(lane) &&
        name[name.size() - lane.size() - 1] == '.') {
      total += value;
    }
  }
  return total;
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kLine8Small, Workload::kFaninTokensMtu,
                           Workload::kChaosRpcObserved}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kLine8Small:
      return "line8_small";
    case Workload::kFaninTokensMtu:
      return "fanin_tokens_mtu";
    case Workload::kChaosRpcObserved:
      return "chaos_rpc_observed";
  }
  return "?";
}

World::World(sim::Time step) : step_(step) {}

std::unique_ptr<World> World::make(Workload workload, std::uint64_t seed,
                                   Tracer* tracer) {
  switch (workload) {
    case Workload::kLine8Small:
      return std::make_unique<Line8World>(seed, tracer);
    case Workload::kFaninTokensMtu:
      return std::make_unique<FaninWorld>(seed, tracer);
    case Workload::kChaosRpcObserved:
      return std::make_unique<ChaosWorld>(seed, tracer);
  }
  throw std::invalid_argument("unknown workload");
}

std::uint64_t World::advance() {
  const std::uint64_t n = sim_.run_until(sim_.now() + step_);
  events_ += n;
  return n;
}

void World::warm_up(sim::Time span) {
  const sim::Time end = sim_.now() + span;
  while (sim_.now() < end) advance();
}

void World::drain() {
  stop();
  events_ += sim_.run_until(sim_.now() + drain_time());
  // Some protocol timers outlive the traffic (README.md, "Findings"), so
  // step on until an instant at which every packet has a fate.
  constexpr sim::Time kSettleStep = 50 * sim::kMicrosecond;
  constexpr int kSettleSteps = 2000;
  for (int i = 0; i < kSettleSteps && !settled(); ++i) {
    events_ += sim_.run_until(sim_.now() + kSettleStep);
  }
  drained_ = true;
}

std::uint64_t World::held() {
  std::uint64_t held = 0;
  auto ports = [&held](net::PortedNode& node) {
    for (int p = 1; p <= node.port_count(); ++p) {
      held += node.port(p).queue_packets() + (node.port(p).busy() ? 1 : 0);
    }
  };
  for (auto* host : fabric_.hosts()) ports(*host);
  for (auto* router : fabric_.routers()) {
    ports(*router);
    if (const auto* c = fabric_.controller_of(*router)) {
      held += c->held_packets();
    }
  }
  return held;
}

bool World::settled() {
  const Fates f = fates();
  return held() == 0 && f.originated + f.copies == f.host_terminal +
                                                       f.router_terminal +
                                                       f.port_drops +
                                                       f.fault_drops;
}

void World::timed_query(viper::ViperHost& host, const std::string& name,
                        const dir::QueryOptions& options) {
  const std::uint64_t t0 = wall_ns();
  const auto routes =
      fabric_.directory().query(fabric_.id_of(host), name, options);
  if (tracer_ != nullptr) tracer_->call(Call::kQuery, t0, wall_ns());
  if (routes.empty()) throw std::runtime_error("no route to " + name);
}

std::optional<dir::IssuedRoute> World::timed_route_to(
    dir::RouteCache& cache, const std::string& name,
    const dir::QueryOptions& options) {
  if (std::find(caches_.begin(), caches_.end(), &cache) == caches_.end()) {
    caches_.push_back(&cache);
  }
  if (tracer_ == nullptr) return cache.route_to(name, options);
  const std::uint64_t t0 = wall_ns();
  auto route = cache.route_to(name, options);
  tracer_->call(Call::kRouteTo, t0, wall_ns());
  return route;
}

dir::RouteCache::Stats World::route_cache_stats() const {
  dir::RouteCache::Stats sum;
  for (const dir::RouteCache* cache : caches_) {
    const auto s = cache->stats();
    sum.hits += s.hits;
    sum.queries += s.queries;
    sum.switches += s.switches;
    sum.refreshes += s.refreshes;
  }
  return sum;
}

Totals World::totals() const {
  Totals t = workload_totals();
  for (const auto* host : fabric_.hosts()) {
    t.delivered += host->stats().delivered;
  }
  t.events = events_;
  t.generator_events = generator_events_;
  return t;
}

Fates World::fates() {
  auto& fabric = fabric_;
  Fates f;
  f.originated = hostile_injected_;
  auto port_fates = [&f](net::PortedNode& node) {
    for (int p = 1; p <= node.port_count(); ++p) {
      const auto& s = node.port(p).stats();
      f.port_drops += s.dropped_full + s.dropped_down + s.dropped_blocked;
      f.fault_drops += s.dropped_injected;
    }
  };
  for (auto* host : fabric.hosts()) {
    const auto& s = host->stats();
    f.originated += s.sent;
    f.host_terminal +=
        s.delivered + s.control_received + s.dropped_malformed + s.misrouted;
    port_fates(*host);
  }
  for (auto* router : fabric.routers()) {
    const auto& s = router->stats();
    f.router_terminal += s.delivered_control + s.dropped_malformed +
                         s.dropped_no_port + s.dropped_unauthorized +
                         s.dropped_token_limit + s.dropped_uncached +
                         s.dropped_expired_token + s.delay_line_overflows;
    f.copies += s.tree_copies + s.fanout_copies;
    if (const auto* c = fabric.controller_of(*router)) {
      f.originated += c->stats().reports_sent;
    }
    port_fates(*router);
  }
  f.copies += fault_count("duplicate");
  return f;
}

std::vector<std::string> World::check() {
  std::vector<std::string> failures;
  workload_checks(failures);
  if (!drained_) return failures;
  if (const std::uint64_t n = held(); n != 0) {
    failures.push_back("drain left " + std::to_string(n) +
                       " packets queued or held");
  }
  const Fates f = fates();
  const std::uint64_t in = f.originated + f.copies;
  const std::uint64_t out =
      f.host_terminal + f.router_terminal + f.port_drops + f.fault_drops;
  if (in != out) {
    failures.push_back(
        "packet conservation: originated " + std::to_string(f.originated) +
        " + copies " + std::to_string(f.copies) + " != host fates " +
        std::to_string(f.host_terminal) + " + router fates " +
        std::to_string(f.router_terminal) + " + port drops " +
        std::to_string(f.port_drops) + " + fault drops " +
        std::to_string(f.fault_drops));
  }
  return failures;
}

}  // namespace perfbench
