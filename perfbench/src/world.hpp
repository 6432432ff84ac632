// The three whole-fabric workloads: topology, traffic generator, drain and
// output checks.
//
// A World is built from (workload, seed) alone; everything random is drawn
// from streams derived from the seed (or, for fanin's warm-up, from a fixed
// stream), so one seed always yields the same
// offered traffic and — the simulator being deterministic — the same
// simulated outcome.  The simulator library sees only the generated sends
// and invokes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"
#include "transport/vmtp.hpp"

namespace perfbench {

using namespace srp;

class Tracer;

enum class Workload : std::uint8_t {
  kLine8Small,
  kFaninTokensMtu,
  kChaosRpcObserved,
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// Monotone totals; a phase's figures are differences of two readings.
struct Totals {
  std::uint64_t delivered = 0;  ///< VIPER packets delivered to hosts
  std::uint64_t attempted = 0;  ///< operations issued: packets offered by
                                ///  the sources, or VMTP transactions
  std::uint64_t completed = 0;  ///< operations finished: packets delivered
                                ///  to the sink, or transactions completed
  std::uint64_t succeeded = 0;  ///< finished with correct output
  std::uint64_t events = 0;     ///< simulator events run
  std::uint64_t generator_events = 0;  ///< events the generators ran
};

/// Packet-fate terms of the conservation identity (see World::check).
struct Fates {
  std::uint64_t originated = 0;  ///< host sends + router control + hostile
  std::uint64_t copies = 0;      ///< fault duplicates + fan-out copies
  std::uint64_t host_terminal = 0;
  std::uint64_t router_terminal = 0;
  std::uint64_t port_drops = 0;   ///< full + down + blocked
  std::uint64_t fault_drops = 0;  ///< port dropped_injected
};

class World {
 public:
  virtual ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Set-up: topology, directory queries (which mint the tokens) and a
  /// warm-up.  @p tracer, when set, times the set-up's directory calls.
  static std::unique_ptr<World> make(Workload workload, std::uint64_t seed,
                                     Tracer* tracer = nullptr);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] dir::Fabric& fabric() { return fabric_; }

  /// Runs one step of simulated time (a few ms of wall time; measurement
  /// windows close on step boundaries); returns the events run.
  std::uint64_t advance();

  /// Stops issuing new work and runs until every packet has a fate.
  void drain();

  [[nodiscard]] Totals totals() const;
  [[nodiscard]] Fates fates();

  /// Output-check failures: packet conservation (after drain()), payload
  /// and echo integrity.  Empty when every check holds.
  [[nodiscard]] std::vector<std::string> check();

  /// Routes the per-call timings of the calls this world makes into
  /// @p tracer (null stops timing).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Appends the simulated one-way latency of every sink delivery to
  /// @p log (null stops).  The chaos workload has no sink handler; its
  /// latencies come from a delivery tap instead (main.cpp).
  void set_latency_log(std::vector<sim::Time>* log) { latency_log_ = log; }

  /// Bits offered per simulated second relative to the workload's
  /// reference link (the bottleneck, or the first hop).
  [[nodiscard]] virtual double reference_rate_bps() const = 0;

  // --- planes some workloads wire (null elsewhere) ---
  [[nodiscard]] virtual stats::Registry* registry() { return nullptr; }
  [[nodiscard]] virtual obs::FlightRecorder* recorder() { return nullptr; }
  [[nodiscard]] virtual flow::FlowPlane* flow_plane() { return nullptr; }
  /// Faults injected so far on lane @p lane ("drop", "flap", ...): the sum
  /// of every `fault.<target>.<lane>` counter.
  [[nodiscard]] std::uint64_t fault_count(std::string_view lane) const;
  /// Hostile byte-soup packets injected so far (chaos only).
  [[nodiscard]] std::uint64_t hostile_injected() const {
    return hostile_injected_;
  }

  /// VMTP stats summed over every endpoint (zero without transport).
  [[nodiscard]] virtual vmtp::VmtpEndpoint::Stats transport_stats() const {
    return {};
  }
  /// RouteCache stats summed over the caches this world consults.
  [[nodiscard]] dir::RouteCache::Stats route_cache_stats() const;

 protected:
  explicit World(sim::Time step);

  /// Issues the first work items; generators reschedule themselves.
  virtual void start() = 0;
  /// Stops issuing work; pending work still completes.
  virtual void stop() = 0;
  /// Simulated time drain() allows for outstanding work to finish.
  [[nodiscard]] virtual sim::Time drain_time() const = 0;
  [[nodiscard]] virtual Totals workload_totals() const = 0;
  virtual void workload_checks(std::vector<std::string>& failures) const = 0;

  /// Times one Directory::query from @p host to @p name (set-up).
  void timed_query(viper::ViperHost& host, const std::string& name,
                   const dir::QueryOptions& options);
  /// Times one RouteCache::route_to (set-up, and per request in chaos).
  std::optional<dir::IssuedRoute> timed_route_to(
      dir::RouteCache& cache, const std::string& name,
      const dir::QueryOptions& options);
  /// Runs the warm-up: @p span of simulated time with traffic on.
  void warm_up(sim::Time span);
  /// Packets queued or transmitting on a port, or held by a shaper.
  [[nodiscard]] std::uint64_t held();
  /// Nothing held and the conservation identity closes: every packet has
  /// a fate at this instant.
  [[nodiscard]] bool settled();

  sim::Time step_;
  sim::Simulator sim_;
  dir::Fabric fabric_{sim_};
  stats::Registry fault_stats_;
  Tracer* tracer_ = nullptr;
  std::vector<sim::Time>* latency_log_ = nullptr;
  std::vector<dir::RouteCache*> caches_;
  std::uint64_t events_ = 0;
  std::uint64_t generator_events_ = 0;
  std::uint64_t hostile_injected_ = 0;
  bool drained_ = false;
};

}  // namespace perfbench
