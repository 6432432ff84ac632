// The paper's congestion-control results as checks (EXPERIMENTS.md E4 and
// A2).  Each table must equal its golden under tests/golden/paper/ — the
// benches print the same rendering — and must keep the shape
// EXPERIMENTS.md states, so a change that moves a table on purpose still
// has to keep the paper's claim.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "paper_results.hpp"

namespace srp::bench {
namespace {

const E4Results& e4() {
  static const E4Results results = run_e4();
  return results;
}

const A2Results& a2() {
  static const A2Results results = run_a2();
  return results;
}

/// Compares @p text against the committed golden file; with GOLDEN_REGEN
/// set, rewrites the file instead.
void expect_golden_text(const std::string& name, const std::string& text) {
  const std::string path = std::string(GOLDEN_DIR) + "/paper/" + name;
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "regen failed for " << name;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << name << " missing — run with GOLDEN_REGEN=1";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text, golden) << "paper table drifted from " << name;
}

TEST(PaperResults, E4MatchesGolden) {
  expect_golden_text("e4.txt", render_e4(e4()));
}

TEST(PaperResults, E4RateControlCutsDropsAtFullUtilization) {
  // 2369 < 5900 drops at 0.986 utilization.
  EXPECT_LT(e4().rate_control.drops, e4().no_control.drops);
  EXPECT_GE(e4().rate_control.utilization, 0.97);
}

TEST(PaperResults, E4MeanQueueGrowsWithBuffer) {
  // 9.0 / 18.9 / 37.5 / 90.4 packets at 16 / 32 / 64 / 128 KB.
  const auto& rows = e4().by_buffer_kb;
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].second.mean_queue_pkts,
              rows[i - 1].second.mean_queue_pkts)
        << rows[i].first << " KB";
  }
}

TEST(PaperResults, E4DropsGrowWithFeederDelay) {
  // 2369 / 2436 / 2575 / 3590 drops at 5 us / 100 us / 1 ms / 5 ms.
  const auto& rows = e4().by_feeder_prop;
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].second.drops, rows[i - 1].second.drops)
        << rows[i].first << " ps";
  }
}

TEST(PaperResults, A2MatchesGolden) {
  expect_golden_text("a2.txt", render_a2(a2()));
}

TEST(PaperResults, A2FeedForwardCutsDrops) {
  // 17 < 281 drops at the tight two-tier bottleneck.
  EXPECT_LT(a2().on.drops, a2().off.drops);
}

}  // namespace
}  // namespace srp::bench
