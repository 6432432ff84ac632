// perfbench: wall-clock cost per delivered packet on whole-fabric
// workloads, with a traced per-layer ledger.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Every run first checks the program's outputs (two replays of a fixed
// prefix with the same seed must agree; packet conservation and payload /
// echo integrity must hold) and prints the counter cross-checks and the
// workload characterization.  --trace 0 then measures the end-to-end
// metrics with no instrumentation; --trace 1 measures the per-layer
// ledger instead.  The last stdout line is the JSON result; a run whose
// checks fail prints no result and exits 1.  See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "flow/export.hpp"
#include "health/export.hpp"
#include "ledger.hpp"
#include "reference.hpp"
#include "obs/export.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::kLine8Small;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Set-ups per run: at least kMinSetups, then more until kSetupBudgetNs of
/// set-up wall time is spent, at most kMaxSetups; setup_s is their median.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 81;
constexpr std::uint64_t kSetupBudgetNs = 1'500'000'000;
/// Wall time of one measurement window.  Fixed in wall time, every run has
/// about the same number of windows, so the tail percentile does not move
/// with the machine's or the program's speed.
constexpr std::uint64_t kWindowNs = 40'000'000;
/// Sub-windows per window.  The reference kernel runs after each, so a
/// change of machine speed inside a window is corrected at a quarter of
/// the window's length.
constexpr int kSubWindows = 4;
/// Share of a --trace 1 run measured before the shims go in.
constexpr double kUntracedShare = 0.4;
/// Plain and loaded windows, each, in the correction check.
constexpr int kCheckWindows = 25;
/// The correction check fails when the corrected rise falls short of the
/// added work by more than this share (the ns_per_pkt_p50 bound).
constexpr double kCheckTolerance = 0.25;
/// A check that falls short is repeated on fresh windows, at most this many
/// times in all; the run fails only when every attempt falls short.
constexpr int kCheckAttempts = 3;

int usage() {
  std::fputs(
      "usage: perfbench --workload <line8_small|fanin_tokens_mtu|"
      "chaos_rpc_observed> --seed <n> --seconds <s> --trace <0|1> "
      "[--out-dir <dir>]\n",
      stderr);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      o.workload = *w;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return std::nullopt;
  return o;
}

/// A /proc/self/status size field in MB: "VmHWM" (the resident-set
/// high-water mark) or "VmRSS".  Not getrusage: ru_maxrss survives execve,
/// so it would report the launching interpreter's peak when that was larger.
double status_mb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  const std::string format = std::string(field) + ": %lf kB";
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, format.c_str(), &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Cross-checks: the counters against values documented elsewhere in the
// repository.

struct CrossCheck {
  const char* name;
  double measured;
  double documented;
  double tolerance;  ///< share of documented; 0 = exact
  const char* source;

  [[nodiscard]] bool matches() const {
    return std::fabs(measured - documented) <= tolerance * documented;
  }
};

core::HeaderSegment hop(std::uint8_t port) {
  core::HeaderSegment seg;
  seg.port = port;
  seg.flags.vnt = true;
  return seg;
}

/// tests/alloc_budget_test.cpp's 2-router 64 B line, step for step.
CrossCheck cross_check_allocs() {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  auto& src = fabric.add_host("src.test");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.test");
  fabric.connect(src, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, dst);
  std::uint64_t delivered = 0;
  dst.set_default_handler([&](const viper::Delivery&) { ++delivered; });
  core::SourceRoute route;
  route.segments = {hop(2), hop(2), hop(core::kLocalPort)};
  wire::Bytes payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(1 + i * 13);
  }
  for (int i = 0; i < 50; ++i) src.send(route, payload);
  sim.run();
  constexpr int kPackets = 200;
  const std::uint64_t before = alloc_reading().count;
  for (int i = 0; i < kPackets; ++i) src.send(route, payload);
  sim.run();
  const double per_packet =
      static_cast<double>(alloc_reading().count - before) / kPackets;
  // The test prints (6222 / 200) rounded down, 31; the exact figure is
  // compared so that a drift of a single allocation shows (README.md).
  return {"allocs_per_pkt_2router_64B",
          delivered == 50 + kPackets ? per_packet : -1.0, 6222.0 / kPackets, 0,
          "tests/alloc_budget_test.cpp: 31 = 6222 / 200 rounded down"};
}

/// bench_flow_overhead's BM_ForwardNoObserver: one 256 B packet
/// src -> r1 -> dst, sent and drained per iteration.  The time is
/// drift-corrected like the measured windows; the raw median is printed.
std::pair<CrossCheck, CrossCheck> cross_check_line1(ReferenceKernel& reference,
                                                    double& raw_ns) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.bench");
  auto& dst = fabric.add_host("dst.bench");
  auto& r1 = fabric.add_router("r1");
  fabric.connect(src, r1);
  fabric.connect(r1, dst);
  dst.set_default_handler([](const viper::Delivery&) {});
  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.bench", {});
  const wire::Bytes payload(256, 0x42);
  for (int i = 0; i < 1000; ++i) {
    src.send(routes.front().route, payload);
    sim.run();
  }
  constexpr int kPackets = 10000;
  constexpr int kReps = 11;
  std::vector<double> ns;
  std::vector<double> raw;
  std::uint64_t events = 0;
  double reference_before = reference.ns();
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kPackets; ++i) {
      src.send(routes.front().route, payload);
      events += sim.run();
    }
    const double per_packet = static_cast<double>(wall_ns() - t0) / kPackets;
    const double reference_after = reference.ns();
    raw.push_back(per_packet);
    ns.push_back(per_packet * 2.0 * kReferenceNominalNs /
                 (reference_before + reference_after));
    reference_before = reference_after;
  }
  raw_ns = median_of(raw);
  return {{"events_per_pkt_1router_256B",
           static_cast<double>(events) / (kReps * kPackets), 6, 0,
           "ROADMAP.md (BM_ForwardNoObserver)"},
          {"ns_per_pkt_1router_256B", median_of(ns), 1200, 0.25,
           "ROADMAP.md (BM_ForwardNoObserver, 4-core box)"}};
}

// ---------------------------------------------------------------------------
// Check phase: a fixed-length prefix, run twice.

/// Simulated traffic time of the check prefix, after the warm-up.
sim::Time prefix_span(Workload workload) {
  switch (workload) {
    case Workload::kLine8Small:
      return 60 * sim::kMillisecond;
    case Workload::kFaninTokensMtu:
      return 1680 * sim::kMillisecond;
    case Workload::kChaosRpcObserved:
      return 1500 * sim::kMillisecond;
  }
  return 0;
}

struct Prefix {
  std::uint64_t digest = 0;
  Totals totals;
  std::vector<std::string> failures;
  std::vector<sim::Time> latency;
  Characterization ch;
};

Prefix run_prefix(Workload workload, std::uint64_t seed) {
  Prefix p;
  auto world = World::make(workload, seed);
  DeliveryTap tap;
  if (workload == Workload::kChaosRpcObserved) {
    tap.install(*world, &p.latency);
  } else {
    tap.install(*world, nullptr);
    world->set_latency_log(&p.latency);
  }
  const sim::Time end = world->sim().now() + prefix_span(workload);
  while (world->sim().now() < end) world->advance();
  const Counters traffic = read_counters(*world);
  world->drain();
  p.failures = world->check();
  p.totals = world->totals();
  p.digest = tap.digest() ^ (p.totals.delivered * 0x9E3779B97F4A7C15ULL) ^
             p.totals.succeeded;
  p.ch = characterize(*world, read_counters(*world), traffic, tap.mean_hops());
  return p;
}

// ---------------------------------------------------------------------------
// Measured phases.

/// One measured window and the reference kernel's time around it.
struct Window {
  double wall_ns = 0;
  double delivered = 0;  ///< VIPER packets delivered to hosts
  double completed = 0;  ///< operations completed
  double reference_ns = 0;
  double added_ns = 0;   ///< wall time of the correction check's added work

  /// Wall ns per delivered packet, drift-corrected or raw.
  [[nodiscard]] double ns_per_pkt(bool corrected) const {
    const double scale = corrected ? kReferenceNominalNs / reference_ns : 1.0;
    return wall_ns * scale / delivered;
  }
};

/// Runs @p step for one window of kWindowNs wall time, or until @p deadline,
/// in kSubWindows sub-windows with a kernel run after each; sets the
/// window's wall time and its reference time.  Each sub-window is scaled
/// by the mean of the kernel runs just before and just after it, and the
/// window's reference time is the one that gives the window the sum of its
/// sub-windows' corrected times.  @p reference_before carries the last
/// kernel run from one window to the next.
template <class Step>
void timed_window(ReferenceKernel& reference, double& reference_before,
                  std::uint64_t deadline, Window& window, Step&& step) {
  double wall = 0;
  double scaled = 0;  // Σ sub-window wall time / its reference time
  for (int s = 0; s < kSubWindows; ++s) {
    const std::uint64_t t0 = wall_ns();
    std::uint64_t t1 = t0;
    while (t1 - t0 < kWindowNs / kSubWindows && t1 < deadline) {
      step();
      t1 = wall_ns();
    }
    const double reference_after = reference.ns();
    wall += static_cast<double>(t1 - t0);
    scaled += static_cast<double>(t1 - t0) * 2.0 /
              (reference_before + reference_after);
    reference_before = reference_after;
    if (t1 >= deadline) break;
  }
  window.wall_ns = wall;
  window.reference_ns = scaled == 0 ? reference_before : wall / scaled;
}

struct Phase {
  Counters begin;
  Counters end;
  std::vector<Window> windows;
  double footprint_mb = 0;  ///< VmHWM once the footprint span was reached

  /// Summed window wall time: raw, or drift-corrected (reference.hpp).
  [[nodiscard]] double wall_ns(bool corrected) const {
    double sum = 0;
    for (const Window& w : windows) {
      sum += corrected ? w.wall_ns * kReferenceNominalNs / w.reference_ns
                       : w.wall_ns;
    }
    return sum;
  }
  [[nodiscard]] double delivered() const {
    return static_cast<double>(end.totals.delivered - begin.totals.delivered);
  }
  /// Wall ns per delivered packet of each window that delivered any.
  [[nodiscard]] std::vector<double> ns_per_pkt(bool corrected) const {
    std::vector<double> out;
    for (const Window& w : windows) {
      if (w.delivered != 0) out.push_back(w.ns_per_pkt(corrected));
    }
    return out;
  }
  /// Median reference time over nominal: how much slower than full speed
  /// the machine ran.
  [[nodiscard]] double drift() const {
    std::vector<double> r;
    for (const Window& w : windows) r.push_back(w.reference_ns);
    return median_of(r) / kReferenceNominalNs;
  }
};

/// Simulated time after set-up at which peak_rss_mb is read: a fixed
/// amount of the measured world's work (line8 ~550k delivered packets,
/// fanin ~85k, chaos ~300k), inside a 20 s measured phase even when the
/// machine runs 2.5x slow.  Over longer fanin spans the seed's deepest
/// burst decides the peak (README.md).
sim::Time footprint_span(Workload workload) {
  switch (workload) {
    case Workload::kLine8Small:
      return 1500 * sim::kMillisecond;
    case Workload::kFaninTokensMtu:
      return 10 * sim::kSecond;
    case Workload::kChaosRpcObserved:
      return 8 * sim::kSecond;
  }
  return 0;
}

/// Runs @p world for @p seconds of wall time in windows of kWindowNs, the
/// reference kernel between sub-windows.  Reads VmHWM at the first window
/// boundary at or past @p footprint_at (simulated time; 0 = never).
Phase measure(World& world, ReferenceKernel& reference, double seconds,
              Tracer* tracer, sim::Time footprint_at = 0) {
  Phase phase;
  phase.begin = read_counters(world, tracer);
  double reference_before = reference.ns();
  Totals last = phase.begin.totals;
  const std::uint64_t start = wall_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  while (wall_ns() < deadline) {
    Window window;
    timed_window(reference, reference_before, deadline, window, [&] {
      if (tracer != nullptr) {
        tracer->slice(world);
      } else {
        world.advance();
      }
    });
    const Totals now = world.totals();
    window.delivered = static_cast<double>(now.delivered - last.delivered);
    window.completed = static_cast<double>(now.completed - last.completed);
    phase.windows.push_back(window);
    last = now;
    if (footprint_at != 0 && phase.footprint_mb == 0 &&
        world.sim().now() >= footprint_at) {
      phase.footprint_mb = status_mb("VmHWM");
    }
  }
  phase.end = read_counters(world, tracer);
  return phase;
}

// ---------------------------------------------------------------------------
// Correction check: a known slowdown inside the program must show, in
// full, in the corrected figures.

/// Work added per delivered packet in the check's loaded windows, about
/// the cost of a packet itself, so that the rise stands well clear of the
/// noise of 25 windows: random cache-line updates over a ballast far larger
/// than the caches, a dependent arithmetic chain, and a heap block replaced
/// in a ring.  That is more memory traffic, a larger footprint and a
/// changed allocator state — the kinds of change that would also slow a
/// reference kernel sharing the program's process.
class AddedWork {
 public:
  void run(std::uint64_t packets) {
    for (std::uint64_t p = 0; p < packets; ++p) {
      for (int i = 0; i < kLinesPerPacket; ++i) {
        next_random();
        ballast_[(x_ % (kWords / 8)) * 8] += x_;
      }
      for (int i = 0; i < kChainPerPacket; ++i) next_random();
      ring_[next_] = std::make_unique<std::vector<std::uint8_t>>(
          256 + (x_ & 2047), static_cast<std::uint8_t>(x_));
      next_ = (next_ + 1) % ring_.size();
    }
  }

 private:
  static constexpr std::size_t kWords = 8 << 20;  // 64 MiB
  static constexpr int kLinesPerPacket = 64;
  static constexpr int kChainPerPacket = 4096;

  void next_random() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
  }

  std::vector<std::uint64_t> ballast_ = std::vector<std::uint64_t>(kWords, 1);
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> ring_ =
      std::vector<std::unique_ptr<std::vector<std::uint8_t>>>(4096);
  std::size_t next_ = 0;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
};

struct CorrectionCheck {
  double plain_ns = 0;      ///< median corrected ns/pkt, plain windows
  double loaded_ns = 0;     ///< same, loaded windows
  double added_ns = 0;      ///< added work per packet, corrected with the
                            ///  plain windows' median reference
  double raw_plain_ns = 0;  ///< raw medians
  double raw_loaded_ns = 0;
  double reference_shift = 0;  ///< median reference, loaded / plain

  /// Corrected rise over the added work: 1 when the correction passes a
  /// slowdown through in full.
  [[nodiscard]] double rise_share() const {
    return ratio(loaded_ns - plain_ns, added_ns);
  }
  [[nodiscard]] bool holds() const {
    return rise_share() >= 1.0 - kCheckTolerance;
  }
};

/// Alternates plain windows with loaded ones, in which AddedWork runs after
/// every step for the packets that step delivered, and compares the
/// corrected rise with the added work's own wall time.
CorrectionCheck check_correction(World& world, ReferenceKernel& reference) {
  AddedWork work;
  std::vector<Window> plain;
  std::vector<Window> loaded;
  double reference_before = reference.ns();
  for (int w = 0; w < 2 * kCheckWindows; ++w) {
    const bool add = w % 2 == 1;
    Window window;
    timed_window(reference, reference_before, UINT64_MAX, window, [&] {
      const std::uint64_t before = world.totals().delivered;
      world.advance();
      const std::uint64_t delivered = world.totals().delivered - before;
      window.delivered += static_cast<double>(delivered);
      if (add) {
        const std::uint64_t a0 = wall_ns();
        work.run(delivered);
        window.added_ns += static_cast<double>(wall_ns() - a0);
      }
    });
    if (window.delivered != 0) (add ? loaded : plain).push_back(window);
  }
  auto median = [](const std::vector<Window>& ws, auto&& f) {
    std::vector<double> v;
    for (const Window& w : ws) v.push_back(f(w));
    return median_of(v);
  };
  CorrectionCheck c;
  const double plain_reference =
      median(plain, [](const Window& w) { return w.reference_ns; });
  c.plain_ns = median(plain, [](const Window& w) { return w.ns_per_pkt(true); });
  c.loaded_ns =
      median(loaded, [](const Window& w) { return w.ns_per_pkt(true); });
  c.raw_plain_ns =
      median(plain, [](const Window& w) { return w.ns_per_pkt(false); });
  c.raw_loaded_ns =
      median(loaded, [](const Window& w) { return w.ns_per_pkt(false); });
  c.added_ns = median(loaded, [&](const Window& w) {
    return w.added_ns / w.delivered * kReferenceNominalNs / plain_reference;
  });
  c.reference_shift =
      ratio(median(loaded, [](const Window& w) { return w.reference_ns; }),
            plain_reference);
  return c;
}

// ---------------------------------------------------------------------------
// Output.

void print_metric_line(const Metric& m) {
  std::printf("# %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_characterization(const Characterization& ch) {
  std::printf(
      "# workload: sim_s=%.6g offered_load=%.6g wire_bytes_per_pkt=%.6g "
      "hops_per_pkt=%.6g malformed_share=%.6g token_hit_share=%.6g "
      "delivered=%llu\n",
      ch.sim_seconds, ch.offered_load, ch.wire_bytes_per_pkt, ch.hops_per_pkt,
      ch.malformed_share, ch.token_hit_share,
      static_cast<unsigned long long>(ch.delivered));
  std::printf(
      "# workload: fault_lanes drop=%llu corrupt=%llu duplicate=%llu "
      "reorder=%llu jitter=%llu flap=%llu token_poison=%llu hostile=%llu\n",
      static_cast<unsigned long long>(ch.fault_drop),
      static_cast<unsigned long long>(ch.fault_corrupt),
      static_cast<unsigned long long>(ch.fault_duplicate),
      static_cast<unsigned long long>(ch.fault_reorder),
      static_cast<unsigned long long>(ch.fault_jitter),
      static_cast<unsigned long long>(ch.fault_flap),
      static_cast<unsigned long long>(ch.fault_token_poison),
      static_cast<unsigned long long>(ch.hostile));
}

/// The result line: the last line of stdout.
bool print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n",
                   metrics[i].name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return true;
}

bool report_failures(const char* phase,
                     const std::vector<std::string>& failures) {
  for (const auto& f : failures) {
    std::fprintf(stderr, "perfbench: check failed (%s): %s\n", phase,
                 f.c_str());
  }
  return failures.empty();
}

// ---------------------------------------------------------------------------

int run(const Options& opt) {
  // Forked first, while this process is small and has built nothing.
  ReferenceKernel reference;
  const char* name = workload_name(opt.workload);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# build: compiler=%s build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);

  // Cross-checks against documented values; a difference is reported, not
  // fatal (README.md explains each).
  const CrossCheck allocs = cross_check_allocs();
  double line1_raw_ns = 0;
  const auto [events1, ns1] = cross_check_line1(reference, line1_raw_ns);
  for (const CrossCheck& c : {allocs, events1, ns1}) {
    std::printf("# cross-check: %s measured=%.3f documented=%.6g "
                "tolerance=%g (%s) %s\n",
                c.name, c.measured, c.documented, c.tolerance, c.source,
                c.matches() ? "MATCH" : "DIFFERS");
  }
  std::printf("# cross-check: ns_per_pkt_1router_256B raw=%.3f\n",
              line1_raw_ns);

  // Output checks: two replays of the fixed prefix must agree.
  const Prefix first = run_prefix(opt.workload, opt.seed);
  const Prefix second = run_prefix(opt.workload, opt.seed);
  bool ok = report_failures("prefix", first.failures);
  if (first.digest != second.digest) {
    ok = report_failures("replay",
                         {"outcome digests differ across two replays of the "
                          "same seed"});
  }
  if (first.totals.delivered == 0) {
    ok = report_failures("prefix", {"nothing was delivered"});
  }
  if (!ok) return 1;
  std::printf("# check: prefix digest=%016llx replays=2 identical; "
              "conservation and payload checks hold\n",
              static_cast<unsigned long long>(first.digest));
  print_characterization(first.ch);
  // Simulated one-way latency: exact for a seed, so an engine-only change
  // must leave it untouched (README.md: why it is not a bounded metric).
  std::vector<double> latency_us;
  for (const sim::Time t : first.latency) latency_us.push_back(sim::to_micros(t));
  const Tail lat_tail = tail_of(latency_us);
  std::printf("# workload: sim_latency_p50_us=%.6f sim_latency_tail_us=%.6f "
              "(p%g of %zu deliveries)\n",
              median_of(latency_us), lat_tail.value, lat_tail.percentile,
              latency_us.size());

  // Set-up, many times; the last world is the one measured.  Each set-up
  // is corrected by the mean of the kernel runs around it.
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  double reference_before = reference.ns();
  std::uint64_t setup_wall = 0;
  for (int k = 0; k < kMaxSetups; ++k) {
    const bool last = k + 1 >= kMinSetups &&
                      (setup_wall >= kSetupBudgetNs || k + 1 == kMaxSetups);
    world.reset();
    const std::uint64_t t0 = wall_ns();
    world = World::make(opt.workload, opt.seed,
                        opt.trace && last ? &tracer : nullptr);
    const std::uint64_t raw = wall_ns() - t0;
    const double reference_after = reference.ns();
    setup_wall += raw;
    setup_s.push_back(static_cast<double>(raw) / 1e9 * 2.0 *
                      kReferenceNominalNs /
                      (reference_before + reference_after));
    reference_before = reference_after;
    if (last) break;
  }
  const sim::Time setup_end = world->sim().now();

  if (!opt.trace) {
    const double rss_before_mb = status_mb("VmRSS");
    const Phase phase =
        measure(*world, reference, opt.seconds, nullptr,
                setup_end + footprint_span(opt.workload));
    const double rss_after_mb = status_mb("VmRSS");
    const double measured_sim_s = sim::to_seconds(phase.end.now - phase.begin.now);
    // A machine too slow to reach the footprint span in the measured phase
    // runs on, untimed, until it does.
    double peak_rss_mb = phase.footprint_mb;
    if (peak_rss_mb == 0) {
      while (world->sim().now() < setup_end + footprint_span(opt.workload)) {
        world->advance();
      }
      peak_rss_mb = status_mb("VmHWM");
    }
    // A burst of another tenant's load during one attempt can move the
    // kernel's plain and loaded medians apart; a correction that hides a
    // slowdown falls short on every attempt.
    bool corrected_in_full = false;
    for (int attempt = 1; attempt <= kCheckAttempts && !corrected_in_full;
         ++attempt) {
      const CorrectionCheck c = check_correction(*world, reference);
      corrected_in_full = c.holds();
      std::printf("# correction check %d/%d: %d plain + %d loaded windows; "
                  "corrected ns_per_pkt %.6g -> %.6g, added work %.6g ns/pkt, "
                  "rise/added %.4f (must be >= %.2f); raw %.6g -> %.6g; "
                  "reference loaded/plain %.4f %s\n",
                  attempt, kCheckAttempts, kCheckWindows, kCheckWindows,
                  c.plain_ns, c.loaded_ns, c.added_ns, c.rise_share(),
                  1.0 - kCheckTolerance, c.raw_plain_ns, c.raw_loaded_ns,
                  c.reference_shift, corrected_in_full ? "PASS" : "FAIL");
    }
    world->drain();
    if (!report_failures("measured run", world->check())) return 1;
    if (!corrected_in_full) {
      report_failures("correction check",
                      {"a slowdown added inside the program did not show in "
                       "full in the corrected times, in any attempt"});
      return 1;
    }
    const double delivered = phase.delivered();
    const double wall_s = phase.wall_ns(true) / 1e9;
    const std::vector<double> ns = phase.ns_per_pkt(true);
    const std::vector<double> raw = phase.ns_per_pkt(false);
    const Tail tail = tail_of(ns);
    const Totals done = world->totals();
    const std::uint64_t attempted = done.attempted;
    const std::uint64_t failed = done.attempted - done.succeeded;
    double completed = 0;
    for (const Window& w : phase.windows) completed += w.completed;

    std::printf("# windows=%zu of %g ms over %.4g simulated s; drift-corrected "
                "ns_per_pkt q1=%.6g median=%.6g q3=%.6g p90=%.6g; machine "
                "drift x%.4g\n",
                ns.size(), static_cast<double>(kWindowNs) / 1e6,
                measured_sim_s, percentile_of(ns, 25), median_of(ns),
                percentile_of(ns, 75), percentile_of(ns, 90), phase.drift());
    // Raw figures next to the corrected ones: README.md, "Drift correction".
    std::printf("# raw: ns_per_pkt_p50=%.6g pkts_per_s=%.6g txns_per_s=%.6g\n",
                median_of(raw), ratio(delivered, phase.wall_ns(false) / 1e9),
                ratio(completed, phase.wall_ns(false) / 1e9));
    std::printf("# ns_per_pkt_tail=%.6g ns (p%.4g: the 11th-largest of %zu "
                "windows; raw %.6g)\n",
                tail.value, tail.percentile, ns.size(),
                percentile_of(raw, tail.percentile));
    std::printf("# setups=%zu setup_s q1=%.6g median=%.6g q3=%.6g\n",
                setup_s.size(), percentile_of(setup_s, 25), median_of(setup_s),
                percentile_of(setup_s, 75));
    std::printf("# rss: peak %.4g MB at %.4g simulated s of the measured "
                "world; resident %.4g MB -> %.4g MB across the measured "
                "phase\n",
                peak_rss_mb, sim::to_seconds(footprint_span(opt.workload)),
                rss_before_mb, rss_after_mb);
    std::printf("# fail_frac=%.6g (attempted=%llu failed=%llu)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));

    const Totals& b = phase.begin.totals;
    const Totals& e = phase.end.totals;
    const double alloc_count =
        static_cast<double>(phase.end.allocs.count - phase.begin.allocs.count);
    const double alloc_bytes =
        static_cast<double>(phase.end.allocs.bytes - phase.begin.allocs.bytes);
    const std::vector<Metric> metrics = {
        {"pkts_per_s", ratio(delivered, wall_s), "1/s"},
        {"ns_per_pkt_p50", median_of(ns), "ns"},
        {"ns_per_pkt_tail", tail.value, "ns"},
        {"txns_per_s", ratio(completed, wall_s), "1/s"},
        {"events_per_pkt",
         ratio(static_cast<double>(e.events - b.events), delivered), "count"},
        {"allocs_per_pkt", ratio(alloc_count, delivered), "count"},
        {"alloc_bytes_per_pkt", ratio(alloc_bytes, delivered), "B"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", median_of(setup_s), "s"},
        {"ok_frac", ratio(static_cast<double>(done.succeeded),
                          static_cast<double>(attempted)),
         "frac"},
    };
    for (const Metric& m : metrics) print_metric_line(m);
    return print_result(attempted, failed, metrics) ? 0 : 1;
  }

  // --trace 1: untraced, then traced, on the same world.
  const Phase untraced =
      measure(*world, reference, opt.seconds * kUntracedShare, nullptr);
  tracer.install(*world);
  world->set_tracer(&tracer);
  const Phase traced =
      measure(*world, reference, opt.seconds * (1.0 - kUntracedShare),
              &tracer);
  world->set_tracer(nullptr);
  world->drain();
  if (!report_failures("traced run", world->check())) return 1;

  TracedRun run;
  run.begin = traced.begin;
  run.end = traced.end;
  run.wall_ns = traced.wall_ns(false);
  // Raw: the two phases are adjacent in time, so the drift is common to
  // both; both drift factors are printed.
  run.traced_ns_per_pkt = ratio(traced.wall_ns(false), traced.delivered());
  run.untraced_ns_per_pkt =
      ratio(untraced.wall_ns(false), untraced.delivered());
  std::printf("# raw ns_per_pkt untraced=%.6g (drift x%.4g) traced=%.6g "
              "(drift x%.4g)\n",
              run.untraced_ns_per_pkt, untraced.drift(),
              run.traced_ns_per_pkt, traced.drift());
  if (stats::Registry* registry = world->registry()) {
    run.series = registry->snapshot().size();
    std::uint64_t bytes = 0;
    double export_ns = 0;
    auto timed_export = [&](auto&& exporter) {
      const std::uint64_t t0 = wall_ns();
      bytes += exporter().size();
      const std::uint64_t t1 = wall_ns();
      tracer.call(Call::kExport, t0, t1);
      export_ns += static_cast<double>(t1 - t0);
    };
    timed_export([&] { return obs::to_prometheus(registry->full_snapshot()); });
    timed_export([&] { return obs::to_chrome_trace(world->recorder()->spans()); });
    timed_export([&] { return flow::to_json(*world->flow_plane()); });
    if (health::HealthMonitor* monitor = world->fabric().health_monitor()) {
      timed_export([&] { return health::to_alerts_json(*monitor); });
      run.alerts_fired = monitor->engine().fired().size();
    }
    run.export_ms = export_ns / 1e6;
    std::printf("# exported %llu bytes\n", static_cast<unsigned long long>(bytes));
  }
  const Prices prices = price(tracer, *world);
  const std::vector<Metric> metrics =
      layer_metrics(run, tracer, prices, first.ch);
  std::printf("# traced: windows=%zu spans_dropped=%llu clock_ns=%.3g "
              "router_arrival_tail=p%.4g host_process_p50_ns=%.6g\n",
              traced.windows.size(),
              static_cast<unsigned long long>(tracer.spans_dropped()),
              prices.clock_ns,
              tracer.timing(Call::kRouterArrival).tail().percentile,
              prices.host_process.quantile(0.5));
  for (const Metric& m : metrics) print_metric_line(m);

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string spans = opt.out_dir + "/spans-" + name + "-" +
                            std::to_string(opt.seed) + ".json";
  std::printf("# spans: %s %s\n", spans.c_str(),
              tracer.write_spans(spans) ? "written" : "NOT written");

  const Totals done = world->totals();
  return print_result(done.attempted, done.attempted - done.succeeded, metrics)
             ? 0
             : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto options = perfbench::parse(argc, argv);
  if (!options) return perfbench::usage();
  try {
    return perfbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
