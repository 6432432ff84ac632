#include "tracer.hpp"

#include <cstdio>

namespace perfbench {
namespace {

/// Re-points every port of @p world whose peer @p make wraps.  @p make
/// returns the wrapper for a peer node, or null to leave the port alone.
template <class Make>
void repoint(World& world, Make&& make) {
  auto visit = [&make](net::PortedNode& node) {
    for (int p = 1; p <= node.port_count(); ++p) {
      net::TxPort& port = node.port(p);
      if (port.peer() == nullptr) continue;
      if (net::Node* wrapper = make(*port.peer())) {
        port.connect(wrapper, port.peer_in_port());
      }
    }
  };
  for (auto* router : world.fabric().routers()) visit(*router);
  for (auto* host : world.fabric().hosts()) visit(*host);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// What one router arrival did, by the Stats counter it moved.
enum class Fate : std::uint8_t {
  kForward,
  kMalformed,
  kUnauthorized,  ///< unauthorized, expired or over its byte limit
  kUncached,
  kNoPort,
  kControl,
  kHeld,  ///< no counter moved: shaped or awaiting verification
};

Fate classify(const viper::ViperRouter::Stats& before,
              const viper::ViperRouter::Stats& after) {
  if (after.forwarded != before.forwarded) return Fate::kForward;
  if (after.dropped_malformed != before.dropped_malformed) {
    return Fate::kMalformed;
  }
  if (after.dropped_unauthorized != before.dropped_unauthorized ||
      after.dropped_expired_token != before.dropped_expired_token ||
      after.dropped_token_limit != before.dropped_token_limit) {
    return Fate::kUnauthorized;
  }
  if (after.dropped_uncached != before.dropped_uncached) {
    return Fate::kUncached;
  }
  if (after.dropped_no_port != before.dropped_no_port) return Fate::kNoPort;
  if (after.delivered_control != before.delivered_control) {
    return Fate::kControl;
  }
  return Fate::kHeld;
}

bool is_drop(Fate fate) {
  return fate == Fate::kMalformed || fate == Fate::kUnauthorized ||
         fate == Fate::kUncached || fate == Fate::kNoPort;
}

}  // namespace

const char* call_name(Call call) {
  switch (call) {
    case Call::kSend:
      return "viper.host.send";
    case Call::kInvoke:
      return "transport.invoke";
    case Call::kRouteTo:
      return "directory.route_to";
    case Call::kAcquire:
      return "congestion.acquire";
    case Call::kQuery:
      return "directory.query";
    case Call::kExport:
      return "obs.export";
    case Call::kSlice:
      return "sim.run_until";
    case Call::kRouterArrival:
      return "viper.router.arrival";
    case Call::kHostArrival:
      return "viper.host.arrival";
    case Call::kCount:
      break;
  }
  return "?";
}

class Tracer::Shim final : public net::Node {
 public:
  Shim(Tracer& tracer, net::Node& real)
      : net::Node(std::string(real.name())),
        tracer(tracer),
        real(real),
        router(dynamic_cast<viper::ViperRouter*>(&real)) {}

  void on_arrival(const net::Arrival& arrival) override {
    tracer.arrive(*this, arrival);
  }

  Tracer& tracer;
  net::Node& real;
  viper::ViperRouter* router;
};

Tracer::Tracer() { spans_.reserve(kMaxSpans); }
Tracer::~Tracer() = default;

void Tracer::call(Call kind, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t trace_id) {
  timings_[static_cast<std::size_t>(kind)].record(end_ns - start_ns);
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(Span{kind, open_slice_, start_ns, end_ns, trace_id});
}

std::uint64_t Tracer::slice(World& world) {
  for (const net::TxPort* port : ports_) {
    port_depth_.record(port->queue_packets());
  }
  const bool kept = spans_.size() < kMaxSpans;
  if (kept) {
    spans_.push_back(Span{Call::kSlice, 0, 0, 0, 0});
    open_slice_ = static_cast<std::uint32_t>(spans_.size());
  } else {
    ++spans_dropped_;
  }
  const std::uint64_t t0 = wall_ns();
  const std::uint64_t events = world.advance();
  const std::uint64_t t1 = wall_ns();
  timings_[static_cast<std::size_t>(Call::kSlice)].record(t1 - t0);
  if (kept) {
    spans_[open_slice_ - 1].start_ns = t0;
    spans_[open_slice_ - 1].end_ns = t1;
  }
  open_slice_ = 0;
  return events;
}

void Tracer::install(World& world) {
  sim_ = &world.sim();
  std::map<const net::Node*, Shim*> by_node;
  repoint(world, [this, &by_node](net::Node& peer) -> net::Node* {
    Shim*& shim = by_node[&peer];
    if (shim == nullptr) {
      shims_.push_back(std::make_unique<Shim>(*this, peer));
      shim = shims_.back().get();
    }
    return shim;
  });
  for (auto* router : world.fabric().routers()) {
    for (int p = 1; p <= router->port_count(); ++p) {
      ports_.push_back(&router->port(p));
    }
  }
  for (auto* host : world.fabric().hosts()) {
    for (int p = 1; p <= host->port_count(); ++p) {
      ports_.push_back(&host->port(p));
    }
  }
}

void Tracer::capture(std::vector<Captured>& into, std::uint32_t router_id,
                     const net::Arrival& arrival) {
  // Reservoir sampling: a uniform sample of the whole phase.
  const std::uint64_t seen =
      router_id != 0 ? router_arrivals_ : host_arrivals_;
  std::size_t slot = into.size();
  if (slot >= kMaxCaptures) {
    const std::uint64_t pick = reservoir_.uniform_int(0, seen - 1);
    if (pick >= kMaxCaptures) return;
    slot = static_cast<std::size_t>(pick);
  }
  Captured c;
  c.router_id = router_id;
  c.arrival = arrival;
  auto copy = std::make_shared<net::Packet>();
  copy->bytes = arrival.packet->bytes;
  copy->id = arrival.packet->id;
  copy->created = arrival.packet->created;
  copy->flow = arrival.packet->flow;
  copy->hops = arrival.packet->hops;
  copy->telemetry = arrival.packet->telemetry;
  c.arrival.packet = std::move(copy);
  if (slot == into.size()) {
    into.push_back(std::move(c));
  } else {
    into[slot] = std::move(c);
  }
}

void Tracer::arrive(Shim& shim, const net::Arrival& arrival) {
  const std::uint64_t trace = arrival.packet->id;
  if (shim.router == nullptr) {
    ++host_arrivals_;
    capture(host_captures_, 0, arrival);
    const std::uint64_t t0 = wall_ns();
    shim.real.on_arrival(arrival);
    call(Call::kHostArrival, t0, wall_ns(), trace);
    return;
  }
  viper::ViperRouter& router = *shim.router;
  ++router_arrivals_;
  capture(router_captures_, router.router_id(), arrival);
  event_depth_.record(sim_->pending_events());
  const viper::ViperRouter::Stats before = router.stats();
  const std::uint64_t t0 = wall_ns();
  shim.real.on_arrival(arrival);
  const std::uint64_t t1 = wall_ns();
  const Fate fate = classify(before, router.stats());
  if (fate == Fate::kForward) forward_timing_.record(t1 - t0);
  if (is_drop(fate)) drop_timing_.record(t1 - t0);
  call(Call::kRouterArrival, t0, t1, trace);
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%u,\"trace_id\":%llu}%s\n",
                 i + 1, call_name(s.kind),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.trace_id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------

class DeliveryTap::Tap final : public net::Node {
 public:
  Tap(DeliveryTap& owner, net::Node& real)
      : net::Node(std::string(real.name())), owner(owner), real(real) {}

  void on_arrival(const net::Arrival& arrival) override {
    owner.arrive(arrival);
    real.on_arrival(arrival);
  }

  DeliveryTap& owner;
  net::Node& real;
};

DeliveryTap::DeliveryTap() = default;
DeliveryTap::~DeliveryTap() = default;

void DeliveryTap::install(World& world,
                          std::vector<sim::Time>* latency_log) {
  latency_log_ = latency_log;
  std::map<const net::Node*, Tap*> by_node;
  repoint(world, [this, &by_node](net::Node& peer) -> net::Node* {
    if (dynamic_cast<viper::ViperHost*>(&peer) == nullptr) return nullptr;
    Tap*& tap = by_node[&peer];
    if (tap == nullptr) {
      taps_.push_back(std::make_unique<Tap>(*this, peer));
      tap = taps_.back().get();
    }
    return tap;
  });
}

void DeliveryTap::arrive(const net::Arrival& arrival) {
  const net::Packet& p = *arrival.packet;
  if (p.hops > 0) {  // router-originated control packets carry hops 0
    ++routed_;
    hops_ += p.hops;
  }
  for (const std::uint64_t v :
       {p.id, static_cast<std::uint64_t>(arrival.head),
        static_cast<std::uint64_t>(arrival.tail), fnv1a(p.bytes)}) {
    digest_ = (digest_ ^ v) * 0x100000001B3ULL;
  }
  if (latency_log_ != nullptr) latency_log_->push_back(arrival.tail - p.created);
}

double DeliveryTap::mean_hops() const {
  return routed_ == 0 ? 0.0
                      : static_cast<double>(hops_) /
                            static_cast<double>(routed_);
}

}  // namespace perfbench
