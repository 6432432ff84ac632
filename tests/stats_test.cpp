// Unit tests for statistics, queueing analytics and the metric registry's
// counter bindings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "check/contract.hpp"
#include "stats/queueing.hpp"
#include "stats/registry.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace srp::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(TimeWeighted, StepFunctionAverage) {
  TimeWeighted tw;
  tw.update(0.0, 2.0);   // value 2 on [0, 10)
  tw.update(10.0, 6.0);  // value 6 on [10, 20)
  tw.finish(20.0);
  EXPECT_DOUBLE_EQ(tw.average(), 4.0);
  EXPECT_DOUBLE_EQ(tw.max_value(), 6.0);
}

TEST(TimeWeighted, NoSamples) {
  TimeWeighted tw;
  tw.finish(10.0);
  EXPECT_DOUBLE_EQ(tw.average(), 0.0);
}

TEST(Queueing, Md1MatchesClosedForm) {
  // The paper's claim (§6.1): at <= 70% utilization the mean number in
  // system is about one packet or less, and mean wait is about half a
  // service time.
  EXPECT_NEAR(md1_mean_in_system(0.7), 0.7 + 0.49 / 0.6, 1e-12);
  EXPECT_LE(md1_mean_in_system(0.7), 1.52);
  EXPECT_NEAR(md1_mean_wait_service_units(0.5), 0.5, 1e-12);
  EXPECT_NEAR(md1_mean_wait_service_units(0.7), 7.0 / 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(md1_mean_in_queue(0.0), 0.0);
}

TEST(Queueing, Md1HalfOfMm1) {
  // M/D/1 waiting is exactly half of M/M/1 waiting at equal rho.
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(md1_mean_wait_service_units(rho),
                mm1_mean_wait_service_units(rho) / 2.0, 1e-12);
  }
}

TEST(Queueing, MG1GeneralizesBoth) {
  for (double rho : {0.2, 0.6, 0.8}) {
    EXPECT_NEAR(mg1_mean_wait_service_units(rho, 0.0),
                md1_mean_wait_service_units(rho), 1e-12);
    EXPECT_NEAR(mg1_mean_wait_service_units(rho, 1.0),
                mm1_mean_wait_service_units(rho), 1e-12);
  }
}

TEST(Queueing, SaturationIsInfinite) {
  EXPECT_TRUE(std::isinf(md1_mean_in_system(1.0)));
  EXPECT_TRUE(std::isinf(mm1_mean_in_system(1.2)));
  EXPECT_THROW(md1_mean_in_system(-0.1), std::invalid_argument);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  t.note("paper: reference note");
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("paper: reference note"), std::string::npos);
  EXPECT_NE(out.find("| name "), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(1.0 / 0.0), "inf");
  EXPECT_EQ(Table::num(std::nan("")), "nan");
}

TEST(RegistryBinding, CounterReadsTheLiveField) {
  Registry registry;
  std::uint64_t forwarded = 5;
  registry.counter("viper.r1.forwarded", forwarded);
  EXPECT_EQ(registry.snapshot().at("viper.r1.forwarded"), 5u);
  forwarded += 3;  // no push: the next snapshot reads the field itself
  EXPECT_EQ(registry.snapshot().at("viper.r1.forwarded"), 8u);
  EXPECT_EQ(registry.full_snapshot().counters.at("viper.r1.forwarded"), 8u);
}

TEST(RegistryBinding, SourcesSharingANameSum) {
  Registry registry;
  std::uint64_t client_a = 2;
  std::uint64_t client_b = 40;
  registry.counter("vmtp.client.timeouts", client_a);
  registry.counter("vmtp.client.timeouts", client_b);
  EXPECT_EQ(registry.snapshot().size(), 1u);
  EXPECT_EQ(registry.snapshot().at("vmtp.client.timeouts"), 42u);
  ++client_a;
  EXPECT_EQ(registry.full_snapshot().counters.at("vmtp.client.timeouts"),
            43u);
}

TEST(RegistryBinding, RebindingASourceCountsItOnce) {
  Registry registry;
  std::uint64_t windows = 7;
  registry.counter("health.monitor.windows", windows);
  registry.counter("health.monitor.windows", windows);  // set_observer twice
  EXPECT_EQ(registry.snapshot().at("health.monitor.windows"), 7u);
  // size() counts names, not sources: a second source on a known name
  // adds to its sum but not to the registry's size.
  EXPECT_EQ(registry.size(), 1u);
  const std::uint64_t other = 3;
  registry.counter("health.monitor.windows", other);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.snapshot().at("health.monitor.windows"), 10u);
  registry.gauge("health.monitor.rules");
  registry.histogram("health.monitor.tick_ps");
  EXPECT_EQ(registry.size(), 3u);
}

#if SIRPENT_CONTRACTS_ENABLED
struct NamingViolation {};
[[noreturn]] void throwing_handler(const check::Violation&) {
  throw NamingViolation{};
}

TEST(MetricNaming, RegistryRejectsMalformedNames) {
  const auto previous = check::set_violation_handler(throwing_handler);
  Registry registry;
  const std::uint64_t source = 0;
  EXPECT_THROW(registry.counter("shared", source), NamingViolation);
  EXPECT_THROW(registry.counter("viper..forwarded", source), NamingViolation);
  EXPECT_THROW(registry.gauge("a..b"), NamingViolation);
  EXPECT_THROW(registry.histogram("a.b.c.d.e.f"), NamingViolation);
  EXPECT_NO_THROW(registry.counter("a.b", source));
  EXPECT_NO_THROW(registry.histogram("a.b.c.d.e"));
  check::set_violation_handler(previous);
}
#endif

}  // namespace
}  // namespace srp::stats
