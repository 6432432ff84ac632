// Unit tests for token mint/verify, the cache, and accounting; plus
// integration through the router for the three uncached-token policies.
#include <gtest/gtest.h>

#include <map>

#include "directory/fabric.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "tokens/cache.hpp"
#include "tokens/token.hpp"

namespace srp::tokens {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TokenBody sample_body() {
  TokenBody body;
  body.router_id = 7;
  body.port = 3;
  body.max_priority = 5;
  body.reverse_ok = true;
  body.account = 1234;
  body.byte_limit = 10'000;
  return body;
}

TEST(Token, MintOpenRoundTrip) {
  TokenAuthority authority(0xDEADBEEF);
  const wire::Bytes token = authority.mint(sample_body());
  EXPECT_EQ(token.size(), kTokenWireSize);
  const auto body = authority.open(7, token);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->router_id, 7u);
  EXPECT_EQ(body->port, 3);
  EXPECT_EQ(body->account, 1234u);
  EXPECT_TRUE(body->reverse_ok);
  EXPECT_EQ(body->byte_limit, 10'000u);
  EXPECT_NE(body->serial, 0u);
}

TEST(Token, SerialsAreUnique) {
  TokenAuthority authority(1);
  const auto t1 = authority.mint(sample_body());
  const auto t2 = authority.mint(sample_body());
  EXPECT_NE(t1, t2);  // serial randomizes the ciphertext
}

TEST(Token, TamperDetected) {
  TokenAuthority authority(42);
  wire::Bytes token = authority.mint(sample_body());
  for (std::size_t i : {0u, 15u, 31u, 35u}) {
    wire::Bytes bad = token;
    bad[i] ^= 0x01;
    EXPECT_FALSE(authority.open(7, bad).has_value()) << "byte " << i;
  }
}

TEST(Token, WrongRouterRejected) {
  TokenAuthority authority(42);
  const wire::Bytes token = authority.mint(sample_body());
  EXPECT_FALSE(authority.open(8, token).has_value());
}

TEST(Token, WrongAuthorityRejected) {
  TokenAuthority mint_authority(42);
  TokenAuthority other(43);
  const wire::Bytes token = mint_authority.mint(sample_body());
  EXPECT_FALSE(other.open(7, token).has_value());
}

TEST(Token, MalformedSizesRejected) {
  TokenAuthority authority(42);
  EXPECT_FALSE(authority.open(7, wire::Bytes{}).has_value());
  EXPECT_FALSE(authority.open(7, wire::Bytes(39, 0)).has_value());
  EXPECT_FALSE(authority.open(7, wire::Bytes(41, 0)).has_value());
}

TEST(TokenCache, HitMissAndFlagging) {
  TokenCache cache;
  const wire::Bytes token(40, 0x22);
  EXPECT_FALSE(cache.lookup(token).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.store(token, sample_body());
  auto entry = cache.lookup(token);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->valid);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Storing a failed verification flags the entry.
  cache.store(token, std::nullopt);
  entry = cache.lookup(token);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->flagged);
}

TEST(TokenCache, ChargingAndLimits) {
  TokenCache cache;
  Ledger ledger;
  const wire::Bytes token(40, 0x33);
  cache.store(token, sample_body());  // limit 10'000
  using Result = TokenCache::ChargeResult;
  EXPECT_EQ(cache.charge(token, 6'000, ledger), Result::kCharged);
  EXPECT_EQ(cache.charge(token, 4'000, ledger), Result::kCharged);
  // Limit exhausted.
  EXPECT_EQ(cache.charge(token, 1, ledger), Result::kLimitExhausted);
  EXPECT_EQ(cache.stats().limit_rejects, 1u);
  EXPECT_EQ(ledger.usage(1234).packets, 2u);
  EXPECT_EQ(ledger.usage(1234).bytes, 10'000u);
}

TEST(TokenCache, ChargeOutcomes) {
  TokenCache cache;
  Ledger ledger;
  using Result = TokenCache::ChargeResult;
  const wire::Bytes unknown(40, 0x55);
  EXPECT_EQ(cache.charge(unknown, 10, ledger), Result::kUnknown);
  const wire::Bytes bad(40, 0x66);
  cache.store(bad, std::nullopt);  // failed verification: flagged
  EXPECT_EQ(cache.charge(bad, 10, ledger), Result::kFlagged);
  EXPECT_EQ(cache.stats().flagged_rejects, 1u);
  EXPECT_EQ(ledger.usage(1234).packets, 0u);
}

TEST(TokenCache, UnlimitedTokenNeverExhausts) {
  TokenCache cache;
  Ledger ledger;
  TokenBody body = sample_body();
  body.byte_limit = 0;
  const wire::Bytes token(40, 0x44);
  cache.store(token, body);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cache.charge(token, 1'000'000, ledger),
              TokenCache::ChargeResult::kCharged);
  }
}

TEST(Ledger, AccumulatesPerAccount) {
  Ledger ledger;
  ledger.charge(1, 100);
  ledger.charge(1, 50);
  ledger.charge(2, 10);
  EXPECT_EQ(ledger.usage(1).bytes, 150u);
  EXPECT_EQ(ledger.usage(1).packets, 2u);
  EXPECT_EQ(ledger.usage(2).bytes, 10u);
  EXPECT_EQ(ledger.usage(99).packets, 0u);
  EXPECT_EQ(ledger.all().size(), 2u);
}

// --- Enforcement through the router ---

struct TokenRouterTest : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* a = nullptr;
  viper::ViperRouter* r = nullptr;
  viper::ViperHost* b = nullptr;
  int delivered = 0;

  void build(UncachedPolicy policy) {
    a = &fabric.add_host("a.test");
    r = &fabric.add_router("r1");
    b = &fabric.add_host("b.test");
    fabric.connect(*a, *r);
    fabric.connect(*r, *b);
    fabric.enable_tokens(0xfeed, /*enforce=*/true, policy,
                         100 * sim::kMicrosecond);
    b->set_default_handler([this](const viper::Delivery&) { ++delivered; });
  }

  std::optional<dir::IssuedRoute> issued;

  /// Queries once and reuses the same tokens afterwards — a re-query mints
  /// fresh tokens (new serial, new ciphertext) that would miss the cache.
  void send_with_directory_route(int n = 1) {
    if (!issued.has_value()) {
      const auto routes =
          fabric.directory().query(fabric.id_of(*a), "b.test", {});
      ASSERT_FALSE(routes.empty());
      issued = routes[0];
    }
    for (int i = 0; i < n; ++i) {
      viper::SendOptions options;
      options.out_port = issued->host_out_port;
      a->send(issued->route, pattern_bytes(64), options);
    }
  }
};

TEST_F(TokenRouterTest, MissingTokenDropped) {
  build(UncachedPolicy::kOptimistic);
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  a->send(route, pattern_bytes(64));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(r->stats().dropped_unauthorized, 1u);
}

TEST_F(TokenRouterTest, OptimisticForwardsFirstPacketImmediately) {
  build(UncachedPolicy::kOptimistic);
  send_with_directory_route(1);
  // Run only a little: well under the 100 us verification delay.
  sim.run_until(80 * sim::kMicrosecond);
  EXPECT_EQ(delivered, 1);  // forwarded before verification finished
  sim.run();
  // Verification eventually lands in the cache and charges the account.
  EXPECT_GE(r->token_cache().size(), 1u);
  EXPECT_GT(fabric.ledger().usage(0).bytes, 0u);
}

TEST_F(TokenRouterTest, BlockingDelaysFirstPacket) {
  build(UncachedPolicy::kBlocking);
  send_with_directory_route(1);
  sim.run_until(80 * sim::kMicrosecond);
  EXPECT_EQ(delivered, 0);  // held for verification
  sim.run();
  EXPECT_EQ(delivered, 1);  // released after the token checked out
}

TEST_F(TokenRouterTest, DropPolicyDropsButCachesForLater) {
  build(UncachedPolicy::kDrop);
  send_with_directory_route(1);
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(r->stats().dropped_uncached, 1u);
  // The background verification cached the token: the retry sails through.
  send_with_directory_route(1);
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(TokenRouterTest, ForgedTokenFlaggedAndBlocked) {
  build(UncachedPolicy::kOptimistic);
  const auto routes =
      fabric.directory().query(fabric.id_of(*a), "b.test", {});
  ASSERT_FALSE(routes.empty());
  core::SourceRoute forged = routes[0].route;
  forged.segments[0].token[10] ^= 0xFF;  // tamper

  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;
  // First forged packet slips through (the optimistic window the paper
  // accepts); once verification fails, the rest are blocked.
  a->send(forged, pattern_bytes(64), options);
  sim.run();
  const int after_first = delivered;
  EXPECT_LE(after_first, 1);
  for (int i = 0; i < 5; ++i) {
    a->send(forged, pattern_bytes(64), options);
  }
  sim.run();
  EXPECT_EQ(delivered, after_first);  // all subsequent uses rejected
  EXPECT_GE(r->stats().dropped_unauthorized, 5u);
}

TEST_F(TokenRouterTest, CachedTokenFastPath) {
  build(UncachedPolicy::kOptimistic);
  send_with_directory_route(1);
  sim.run();  // first packet verifies and caches
  const auto hits_before = r->token_cache().stats().hits;
  send_with_directory_route(10);
  sim.run();
  EXPECT_EQ(delivered, 11);
  EXPECT_GE(r->token_cache().stats().hits, hits_before + 10);
}

TEST_F(TokenRouterTest, ByteLimitEnforced) {
  build(UncachedPolicy::kBlocking);
  dir::QueryOptions options;
  options.token_byte_limit = 300;  // fits ~2 small packets
  const auto routes =
      fabric.directory().query(fabric.id_of(*a), "b.test", options);
  ASSERT_FALSE(routes.empty());
  viper::SendOptions send_options;
  send_options.out_port = routes[0].host_out_port;
  for (int i = 0; i < 5; ++i) {
    a->send(routes[0].route, pattern_bytes(64), send_options);
  }
  sim.run();
  EXPECT_LT(delivered, 5);
  EXPECT_GT(r->stats().dropped_token_limit, 0u);
}

TEST_F(TokenRouterTest, RegistryTokenCountersReadTheStats) {
  build(UncachedPolicy::kDrop);
  stats::Registry registry;
  r->set_observer({&registry, nullptr, nullptr});
  viper::SendOptions send_options;

  // Unauthorized: no token at all.
  core::SourceRoute bare;
  bare.segments = {p2p_segment(2), local_segment()};
  a->send(bare, pattern_bytes(64));
  sim.run();

  // Over the byte limit; the first packet of the fresh token is a kDrop
  // miss, and the background verification caches it for the rest.
  dir::QueryOptions limited;
  limited.token_byte_limit = 300;
  const auto capped =
      fabric.directory().query(fabric.id_of(*a), "b.test", limited);
  ASSERT_FALSE(capped.empty());
  send_options.out_port = capped[0].host_out_port;
  a->send(capped[0].route, pattern_bytes(64), send_options);
  sim.run();
  for (int i = 0; i < 5; ++i) {
    a->send(capped[0].route, pattern_bytes(64), send_options);
  }
  sim.run();

  // Expired: valid for the first simulated second only.
  dir::QueryOptions short_lived;
  short_lived.token_expiry_sec = 1;
  const auto expiring =
      fabric.directory().query(fabric.id_of(*a), "b.test", short_lived);
  ASSERT_FALSE(expiring.empty());
  send_options.out_port = expiring[0].host_out_port;
  a->send(expiring[0].route, pattern_bytes(64), send_options);
  sim.run();
  sim.run_until(2 * sim::kSecond);
  a->send(expiring[0].route, pattern_bytes(64), send_options);
  sim.run();

  const viper::ViperRouter::Stats& s = r->stats();
  EXPECT_EQ(s.dropped_unauthorized, 1u);
  EXPECT_GT(s.dropped_token_limit, 0u);
  EXPECT_EQ(s.dropped_expired_token, 1u);
  EXPECT_EQ(s.dropped_uncached, 2u);
  const auto counters = registry.snapshot();
  EXPECT_EQ(counters.at("viper.r1.token_rejected"),
            s.dropped_unauthorized + s.dropped_expired_token +
                s.dropped_token_limit);
  EXPECT_EQ(counters.at("viper.r1.token_miss_drop"), s.dropped_uncached);
  EXPECT_EQ(counters.at("viper.r1.token_hit"), s.token_hits);
  EXPECT_GT(s.token_hits, 0u);
}

// --- Determinism of the token-enforcing data path -------------------------

struct ChainResult {
  viper::ViperRouter::Stats router_stats;
  TokenCache::Stats cache_stats;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t charged = 0;  ///< successful charges, both routers' caches
  std::map<std::uint32_t, AccountUsage> ledger;
};

/// Runs 50 packets through a token-enforcing two-router chain with the
/// optimistic uncached policy; verification runs inline in the
/// verify-completion event.
ChainResult run_chain() {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.test");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.test");
  fabric.connect(src, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, dst);
  fabric.enable_tokens(0xBEEF, /*enforce=*/true, UncachedPolicy::kOptimistic,
                       50 * sim::kMicrosecond);

  ChainResult result;
  dst.set_default_handler(
      [&result](const viper::Delivery&) { ++result.delivered; });

  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.test", {});
  EXPECT_FALSE(routes.empty());
  const dir::IssuedRoute& route = routes.front();
  for (int i = 0; i < 50; ++i) {
    sim.at(i * 100 * sim::kMicrosecond, [&src, &route] {
      viper::SendOptions options;
      options.out_port = route.host_out_port;
      src.send(route.route, pattern_bytes(128), options);
    });
  }
  result.events = sim.run();
  result.router_stats = r1.stats();
  result.cache_stats = r1.token_cache().stats();
  for (viper::ViperRouter* router : {&r1, &r2}) {
    // Every packet carries a valid on-port token, so each cache hit is
    // charged unless the charge itself is rejected, and each verified
    // token settles its optimistically forwarded first packet once.
    EXPECT_EQ(router->stats().dropped_unauthorized, 0u);
    EXPECT_EQ(router->stats().dropped_expired_token, 0u);
    const TokenCache::Stats cache = router->token_cache().stats();
    result.charged += cache.hits - cache.flagged_rejects -
                      cache.limit_rejects + router->token_cache().size();
  }
  result.ledger = fabric.ledger().all();
  return result;
}

TEST(TokenChainDeterminism, InlineVerificationReplaysIdentically) {
  const ChainResult first = run_chain();
  EXPECT_GT(first.delivered, 0u);
  EXPECT_GT(first.cache_stats.hits, 0u);
  std::uint64_t ledger_packets = 0;
  for (const auto& [account, usage] : first.ledger) {
    ledger_packets += usage.packets;
  }
  EXPECT_EQ(ledger_packets, first.charged);

  const ChainResult second = run_chain();
  EXPECT_EQ(second.delivered, first.delivered);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.cache_stats.hits, first.cache_stats.hits);
  EXPECT_EQ(second.cache_stats.misses, first.cache_stats.misses);
  EXPECT_EQ(second.router_stats.forwarded, first.router_stats.forwarded);
  EXPECT_EQ(second.router_stats.dropped_unauthorized,
            first.router_stats.dropped_unauthorized);
  EXPECT_EQ(second.charged, first.charged);
  EXPECT_TRUE(second.ledger == first.ledger);
}

}  // namespace
}  // namespace srp::tokens
