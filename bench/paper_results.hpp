// The paper's congestion-control results as data (DESIGN.md §3).
//
// Each run_<experiment>() builds and runs its scenarios and returns the
// table as a struct; render_<experiment>() formats it.  Two consumers
// link this library: the bench binary prints the rendering, and
// tests/paper_results_test.cpp compares it with the committed golden
// (tests/golden/paper/) and asserts EXPERIMENTS.md's shape predicates on
// the struct.  Every figure is simulated time, so the tables are
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace srp::bench {

/// E4: one run of four bursty sources into a 2x-overloaded bottleneck.
struct E4Case {
  double utilization = 0;
  double mean_queue_pkts = 0;
  double max_queue_pkts = 0;
  std::uint64_t drops = 0;
  double fairness = 0;  ///< Jain's index over per-source deliveries
  std::uint64_t reports = 0;
};

struct E4Results {
  /// 64 KB buffer, 5 us feeder links.
  E4Case no_control;
  E4Case rate_control;
  /// Rate control at 16 / 32 / 64 / 128 KB of output buffer.
  std::vector<std::pair<std::size_t, E4Case>> by_buffer_kb;
  /// Rate control at 5 us / 100 us / 1 ms / 5 ms to the feeders.
  std::vector<std::pair<sim::Time, E4Case>> by_feeder_prop;
};

E4Results run_e4();
/// bench_congestion's whole output.
std::string render_e4(const E4Results& results);

/// A2: two-tier backpressure with feed-forward off or on.
struct A2Case {
  double util = 0;
  std::uint64_t drops = 0;
  std::uint64_t renewals = 0;  ///< total reports (incl. feed-forward ones)
};

struct A2Results {
  A2Case off;
  A2Case on;
};

A2Results run_a2();
/// bench_ablation's A2 table.
std::string render_a2(const A2Results& results);

}  // namespace srp::bench
