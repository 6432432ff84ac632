// F1 (paper Figure 1): VIPER wire-format codec throughput, plus the other
// per-packet software costs — google-benchmark microbenchmarks.
//
// These bound the software cost of the Sirpent fast path (parse one
// segment, build the return entry) against the costs the paper removes
// (IP checksum update over the header, full token decryption).
#include <benchmark/benchmark.h>

#include "net/ethernet.hpp"
#include "tokens/cache.hpp"
#include "ip/header.hpp"
#include "tokens/token.hpp"
#include "viper/codec.hpp"
#include "wire/checksum.hpp"

namespace {

using namespace srp;

core::HeaderSegment make_segment(bool lan, std::size_t token_bytes) {
  core::HeaderSegment seg;
  seg.port = 7;
  seg.tos.priority = 2;
  if (lan) {
    seg.port_info.assign(net::EthernetHeader::kWireSize, 0x42);
  } else {
    seg.flags.vnt = true;
  }
  seg.token.assign(token_bytes, 0x24);
  return seg;
}

void BM_EncodeSegmentP2P(benchmark::State& state) {
  const auto seg = make_segment(false, 0);
  for (auto _ : state) {
    wire::Writer w(8);
    viper::encode_segment(w, seg);
    benchmark::DoNotOptimize(w.view().data());
  }
}
BENCHMARK(BM_EncodeSegmentP2P);

void BM_DecodeSegmentEthernetToken(benchmark::State& state) {
  wire::Writer w;
  viper::encode_segment(w, make_segment(true, tokens::kTokenWireSize));
  const wire::Bytes bytes = w.view();
  for (auto _ : state) {
    const auto seg = viper::parse_segment(bytes, 0);
    benchmark::DoNotOptimize(seg->port);
  }
}
BENCHMARK(BM_DecodeSegmentEthernetToken);

void BM_EncodePacket8Hops(benchmark::State& state) {
  core::SourceRoute route;
  for (int i = 0; i < 8; ++i) route.segments.push_back(make_segment(true, 0));
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  route.segments.push_back(local);
  const wire::Bytes data(633, 0x11);
  for (auto _ : state) {
    auto packet = viper::encode_packet(route, data);
    benchmark::DoNotOptimize(packet.data());
  }
}
BENCHMARK(BM_EncodePacket8Hops);

void BM_ReturnRouteReversal(benchmark::State& state) {
  // The host's trailer after an 8-hop LAN route: one return entry per hop.
  wire::Writer w;
  for (int i = 0; i < 8; ++i) {
    viper::encode_segment(w, make_segment(true, 0));
  }
  wire::Bytes trailer = std::move(w).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(viper::reverse_trailer_in_place(trailer));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ReturnRouteReversal);

void BM_IpChecksumUpdateTtl(benchmark::State& state) {
  ip::IpHeader h;
  h.dst = 42;
  h.ttl = 64;
  wire::Bytes packet = ip::encode_ip_packet(h, wire::Bytes(633, 0));
  for (auto _ : state) {
    wire::Bytes copy = packet;
    benchmark::DoNotOptimize(ip::decrement_ttl_in_place(copy));
  }
}
BENCHMARK(BM_IpChecksumUpdateTtl);

void BM_IpFullHeaderChecksum(benchmark::State& state) {
  ip::IpHeader h;
  h.dst = 42;
  const wire::Bytes packet = ip::encode_ip_packet(h, wire::Bytes(633, 0));
  const std::span<const std::uint8_t> header =
      std::span(packet).first(ip::IpHeader::kWireSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::internet_checksum(header));
  }
}
BENCHMARK(BM_IpFullHeaderChecksum);

void BM_TokenMint(benchmark::State& state) {
  tokens::TokenAuthority authority(1);
  tokens::TokenBody body;
  body.router_id = 3;
  for (auto _ : state) {
    auto token = authority.mint(body);
    benchmark::DoNotOptimize(token.data());
  }
}
BENCHMARK(BM_TokenMint);

void BM_TokenFullVerify(benchmark::State& state) {
  tokens::TokenAuthority authority(1);
  tokens::TokenBody body;
  body.router_id = 3;
  const auto token = authority.mint(body);
  for (auto _ : state) {
    benchmark::DoNotOptimize(authority.open(3, token));
  }
}
BENCHMARK(BM_TokenFullVerify);

void BM_TokenCachedCheck(benchmark::State& state) {
  tokens::TokenAuthority authority(1);
  tokens::TokenBody body;
  body.router_id = 3;
  const auto token = authority.mint(body);
  tokens::TokenCache cache;
  cache.store(token, body);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(token));
  }
}
BENCHMARK(BM_TokenCachedCheck);

}  // namespace

BENCHMARK_MAIN();
