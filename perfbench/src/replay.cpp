#include "replay.hpp"

#include <algorithm>

#include "net/port.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "tokens/cache.hpp"
#include "viper/codec.hpp"

namespace perfbench {
namespace {

/// Wall time each price is measured over.
constexpr std::uint64_t kReplayNs = 20'000'000;

/// Repeats @p pass — one pass over the captured inputs, returning the calls
/// it made — for kReplayNs after one warm-up pass; returns ns per call.
template <class Pass>
double per_call(Pass&& pass) {
  if (pass() == 0) return 0.0;
  std::uint64_t calls = 0;
  const std::uint64_t t0 = wall_ns();
  std::uint64_t t1 = t0;
  do {
    calls += pass();
    t1 = wall_ns();
  } while (t1 - t0 < kReplayNs);
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

/// Keeps replay results observable so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

/// The run's median pending-event count at router arrivals.
std::uint64_t captured_depth(const Tracer& tracer) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(tracer.event_depth().quantile(0.5)));
}

/// Parks @p depth events far in the future, so that a standalone
/// simulator's queue operations run at the depth the real run saw.
void fill_queue(sim::Simulator& sim, std::uint64_t depth) {
  for (std::uint64_t i = 0; i < depth; ++i) {
    sim.at(1000 * sim::kSecond + static_cast<sim::Time>(i), [] {});
  }
}

/// Runs a standalone replay simulator past its own events, but not into
/// the parked fillers.
constexpr sim::Time kReplayHorizon = sim::kMillisecond;

class NullNode final : public net::Node {
 public:
  NullNode() : net::Node("replay.null") {}
  void on_arrival(const net::Arrival&) override {}
};

double clock_cost() {
  return per_call([] {
    std::uint64_t acc = 0;
    for (int i = 0; i < 1000; ++i) acc += wall_ns();
    g_sink = g_sink + acc;
    return std::uint64_t{1000};
  });
}

double price_schedule_pop(const Tracer& tracer) {
  const std::uint64_t depth = captured_depth(tracer);
  constexpr sim::Time kSpan = 100 * sim::kMicrosecond;
  sim::EventQueue queue;
  sim::Rng rng(0x5C4E);
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    queue.schedule(static_cast<sim::Time>(rng.uniform_int(0, kSpan)),
                   [&fired] { ++fired; });
  }
  const double ns = per_call([&] {
    for (int i = 0; i < 1000; ++i) {
      const sim::Time when = queue.pop().first;
      queue.schedule(when + 1 + static_cast<sim::Time>(
                                    rng.uniform_int(0, kSpan)),
                     [&fired] { ++fired; });
    }
    return std::uint64_t{1000};
  });
  g_sink = g_sink + fired;
  return ns;
}

void price_decode(const Tracer& tracer, Prices& prices) {
  std::vector<const wire::Bytes*> images;
  for (const Captured& c : tracer.router_captures()) {
    images.push_back(&c.arrival.packet->bytes);
  }
  prices.decode_view_ns = per_call([&images] {
    for (const wire::Bytes* bytes : images) {
      try {
        g_sink = g_sink + viper::decode_segment_view(*bytes, 0).wire_size;
      } catch (const wire::CodecError&) {
        g_sink = g_sink + 1;
      }
    }
    return images.size();
  });
  prices.decode_copy_ns = per_call([&images] {
    for (const wire::Bytes* bytes : images) {
      try {
        wire::Reader r(*bytes);
        g_sink = g_sink + viper::decode_segment(r).port;
      } catch (const wire::CodecError&) {
        g_sink = g_sink + 1;
      }
    }
    return images.size();
  });
}

void price_host_body(const Tracer& tracer, Prices& prices) {
  struct Body {
    std::span<const std::uint8_t> body;  ///< after the local segment
    wire::Bytes trailer;                 ///< after DataLen + Data
  };
  std::vector<Body> bodies;
  for (const Captured& c : tracer.host_captures()) {
    const wire::Bytes& bytes = c.arrival.packet->bytes;
    try {
      wire::Reader r(bytes);
      (void)viper::decode_segment(r);
      Body b;
      b.body = std::span<const std::uint8_t>(bytes).subspan(r.position());
      wire::Reader data(b.body);
      data.skip(data.u16());
      b.trailer.assign(b.body.begin() + static_cast<long>(data.position()),
                       b.body.end());
      bodies.push_back(std::move(b));
    } catch (const wire::CodecError&) {
      // Malformed at the host: no body to price.
    }
  }
  prices.delivered_body_ns = per_call([&bodies] {
    for (const Body& b : bodies) {
      try {
        wire::Reader r(b.body);
        g_sink = g_sink + viper::decode_delivered_body(r).trailer.size();
      } catch (const wire::CodecError&) {
        g_sink = g_sink + 1;
      }
    }
    return bodies.size();
  });
  // Reversal is its own inverse, so repeated passes need no re-copy.
  prices.trailer_reverse_ns = per_call([&bodies] {
    for (Body& b : bodies) {
      g_sink = g_sink + viper::reverse_trailer_in_place(b.trailer);
    }
    return bodies.size();
  });
}

void price_tokens(const Tracer& tracer, World& world, Prices& prices) {
  struct Token {
    std::uint32_t router_id;
    wire::Bytes bytes;
  };
  std::vector<Token> seen;
  const tokens::TokenAuthority* authority = world.fabric().authority();
  if (authority != nullptr) {
    for (const Captured& c : tracer.router_captures()) {
      try {
        const auto view =
            viper::decode_segment_view(c.arrival.packet->bytes, 0);
        if (view.token.size() == tokens::kTokenWireSize) {
          seen.push_back(Token{c.router_id, wire::Bytes(view.token.begin(),
                                                        view.token.end())});
        }
      } catch (const wire::CodecError&) {
        // Byte soup: no token to price.
      }
    }
  }
  if (seen.empty()) return;
  tokens::TokenCache cache;
  for (const Token& t : seen) {
    cache.store(t.bytes, authority->open(t.router_id, t.bytes));
  }
  prices.token_lookup_ns = per_call([&] {
    for (const Token& t : seen) {
      g_sink = g_sink + cache.lookup(t.bytes).has_value();
    }
    return seen.size();
  });
  prices.token_open_ns = per_call([&] {
    for (const Token& t : seen) {
      g_sink = g_sink + authority->open(t.router_id, t.bytes).has_value();
    }
    return seen.size();
  });
}

/// One idle-port transmission per captured router image: the enqueue, then
/// the port's own events (wakeup, completion, arrival dispatch).
void price_port(const Tracer& tracer, Prices& prices) {
  const auto& captures = tracer.router_captures();
  if (captures.empty()) return;
  sim::Simulator sim;
  fill_queue(sim, captured_depth(tracer));
  net::TxPort port(sim, "replay:p1", net::LinkConfig{});
  NullNode null;
  port.connect(&null, 1);
  const sim::Time bound = viper::RouterConfig{}.decision_delay;
  auto pass = [&](bool cut_through, double& enqueue_ns, double& events_ns) {
    std::uint64_t n = 0;
    double enq = 0;
    double ev = 0;
    const std::uint64_t start = wall_ns();
    while (wall_ns() - start < kReplayNs) {
      for (const Captured& c : captures) {
        const std::uint64_t t0 = wall_ns();
        port.enqueue(c.arrival.packet, net::TxMeta{},
                     cut_through ? sim.now() + bound : 0);
        const std::uint64_t t1 = wall_ns();
        sim.run_until(sim.now() + kReplayHorizon);
        const std::uint64_t t2 = wall_ns();
        enq += static_cast<double>(t1 - t0) - prices.clock_ns;
        ev += static_cast<double>(t2 - t1) - prices.clock_ns;
        ++n;
      }
    }
    enqueue_ns = enq / static_cast<double>(n);
    events_ns = ev / static_cast<double>(n);
  };
  double unused = 0;
  pass(true, prices.enqueue_ns, prices.port_events_router_ns);
  pass(false, unused, prices.port_events_host_ns);
}

/// The host's deferred receive, per captured host image, on a standalone
/// host: on_arrival schedules it, the timed run() executes it.
void price_host_process(const Tracer& tracer, Prices& prices) {
  const auto& captures = tracer.host_captures();
  if (captures.empty()) return;
  sim::Simulator sim;
  fill_queue(sim, captured_depth(tracer));
  net::PacketFactory factory;
  viper::ViperHost host(sim, "replay.host", factory);
  host.add_port(net::LinkConfig{});
  host.set_default_handler([](const viper::Delivery& d) {
    g_sink = g_sink + d.data.size();
  });
  const std::uint64_t start = wall_ns();
  while (wall_ns() - start < kReplayNs) {
    for (const Captured& c : captures) {
      net::Arrival arrival = c.arrival;
      arrival.in_port = 1;
      arrival.head = sim.now();
      arrival.tail = sim.now() + (c.arrival.tail - c.arrival.head);
      host.on_arrival(arrival);
      const std::uint64_t t0 = wall_ns();
      sim.run_until(sim.now() + kReplayHorizon);
      const std::uint64_t t1 = wall_ns();
      const double ns = static_cast<double>(t1 - t0) - prices.clock_ns;
      prices.host_process.record(static_cast<std::uint64_t>(std::max(ns, 0.0)));
    }
  }
}

}  // namespace

Prices price(const Tracer& tracer, World& world) {
  Prices prices;
  prices.clock_ns = clock_cost();
  prices.schedule_pop_ns = price_schedule_pop(tracer);
  price_decode(tracer, prices);
  price_host_body(tracer, prices);
  price_tokens(tracer, world, prices);
  price_port(tracer, prices);
  price_host_process(tracer, prices);
  return prices;
}

}  // namespace perfbench
