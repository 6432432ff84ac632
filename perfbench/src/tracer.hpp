// Outside-in instrumentation for the traced run and the check phase.
//
// Nothing here reaches inside the simulator: layers are timed through
// their public functions only.
//
//  * Tracer::install re-points every TxPort (TxPort::connect) at a shim
//    net::Node that times the real node's on_arrival and classifies each
//    router call by which public ViperRouter::Stats counter it moved.
//  * World code reports the calls the benchmark itself makes (send, invoke,
//    route_to, acquire, query, exporters, run_until slices) via call().
//  * Every timed call becomes a span (name, start, end, parent, trace id =
//    packet id), held in memory and written out by write_spans().
//  * Arrivals are sampled into captures that replay.cpp later prices
//    through public functions.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/random.hpp"
#include "stats.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"
#include "world.hpp"

namespace perfbench {

/// The calls the tracer times.
enum class Call : std::uint8_t {
  kSend,           ///< ViperHost::send
  kInvoke,         ///< VmtpEndpoint::invoke
  kRouteTo,        ///< RouteCache::route_to
  kAcquire,        ///< SourceThrottle::acquire
  kQuery,          ///< Directory::query
  kExport,         ///< one exporter call
  kSlice,          ///< one Simulator::run_until slice
  kRouterArrival,  ///< ViperRouter::on_arrival through the shim
  kHostArrival,    ///< ViperHost::on_arrival through the shim
  kCount,
};

[[nodiscard]] const char* call_name(Call call);

/// One arrival image kept for replay.
struct Captured {
  std::uint32_t router_id = 0;  ///< receiving router (0 for a host)
  net::Arrival arrival;         ///< packet deep-copied at capture time
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;
  static constexpr std::size_t kMaxCaptures = 4096;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one timed call as a span under the open slice.
  void call(Call kind, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t trace_id = 0);

  /// Runs one step of @p world as a timed run_until slice whose span
  /// parents every call made inside it.  Returns the events run.
  std::uint64_t slice(World& world);

  /// Re-points every port of @p world at timing shims of its peers.
  void install(World& world);

  [[nodiscard]] const LogHistogram& timing(Call kind) const {
    return timings_[static_cast<std::size_t>(kind)];
  }
  /// Router arrivals that forwarded.
  [[nodiscard]] const LogHistogram& forward_timing() const {
    return forward_timing_;
  }
  /// Router arrivals that ended in any drop.
  [[nodiscard]] const LogHistogram& drop_timing() const {
    return drop_timing_;
  }
  /// Simulator pending-event count sampled at each router arrival.
  [[nodiscard]] const LogHistogram& event_depth() const {
    return event_depth_;
  }
  /// Output-queue depth (packets) of every port, sampled per slice.
  [[nodiscard]] const LogHistogram& port_depth() const { return port_depth_; }
  [[nodiscard]] const std::vector<Captured>& router_captures() const {
    return router_captures_;
  }
  [[nodiscard]] const std::vector<Captured>& host_captures() const {
    return host_captures_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }

  /// Writes the retained spans as a JSON array to @p path.
  bool write_spans(const std::string& path) const;

 private:
  class Shim;
  struct Span {
    Call kind;
    std::uint32_t parent;  ///< index + 1 of the parent span; 0 = root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t trace_id;
  };

  void arrive(Shim& shim, const net::Arrival& arrival);
  void capture(std::vector<Captured>& into, std::uint32_t router_id,
               const net::Arrival& arrival);

  std::array<LogHistogram, static_cast<std::size_t>(Call::kCount)> timings_;
  LogHistogram forward_timing_;
  LogHistogram drop_timing_;
  LogHistogram event_depth_;
  LogHistogram port_depth_;
  std::vector<Span> spans_;
  std::uint64_t spans_dropped_ = 0;
  std::uint32_t open_slice_ = 0;
  std::vector<std::unique_ptr<Shim>> shims_;
  std::vector<net::TxPort*> ports_;
  sim::Simulator* sim_ = nullptr;
  sim::Rng reservoir_{0x7AC3};  ///< capture sampling stream
  std::vector<Captured> router_captures_;
  std::vector<Captured> host_captures_;
  std::uint64_t router_arrivals_ = 0;
  std::uint64_t host_arrivals_ = 0;
};

/// Check-phase wrapper on every host-facing port: folds each arrival at a
/// host into an order-sensitive digest and, when asked, logs its
/// simulated one-way latency (last bit in minus creation).
class DeliveryTap {
 public:
  DeliveryTap();
  ~DeliveryTap();
  DeliveryTap(const DeliveryTap&) = delete;
  DeliveryTap& operator=(const DeliveryTap&) = delete;

  void install(World& world, std::vector<sim::Time>* latency_log);

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// Mean routers traversed by host-bound packets that crossed a router.
  [[nodiscard]] double mean_hops() const;

 private:
  class Tap;
  void arrive(const net::Arrival& arrival);

  std::vector<std::unique_ptr<Tap>> taps_;
  std::vector<sim::Time>* latency_log_ = nullptr;
  std::uint64_t digest_ = 0xCBF29CE484222325ULL;
  std::uint64_t routed_ = 0;
  std::uint64_t hops_ = 0;
};

}  // namespace perfbench
