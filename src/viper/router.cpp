#include "viper/router.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/analysis.hpp"
#include "check/contract.hpp"
#include "obs/telemetry.hpp"

namespace srp::viper {
namespace {

net::TxMeta meta_for(const core::TypeOfService& tos) {
  return net::TxMeta{core::priority_rank(tos.priority),
                     core::priority_preempts(tos.priority),
                     tos.drop_if_blocked};
}

}  // namespace

/// Port field of the packet's next segment, or 0 when the remainder does
/// not start with a routable segment (e.g. it is the DataLen of a locally
/// terminating packet).  Used only as the congestion flow key.
///
/// Reads the fixed 4-byte prefix and *skips* the variable fields instead
/// of materializing them the way decode_segment would — this runs once
/// per forward, and srp-lint's hot-path pass budget assumes it stays
/// allocation-free.
SRP_HOT_PATH std::uint8_t peek_next_port(const wire::Bytes& bytes,
                                         std::size_t offset) {
  if (offset >= bytes.size()) return 0;
  wire::Reader r{std::span{bytes}.subspan(offset)};
  try {
    const std::uint8_t info_len = r.u8();
    const std::uint8_t token_len = r.u8();
    const std::uint8_t port = r.u8();
    const std::uint8_t flags = static_cast<std::uint8_t>(r.u8() >> 4);
    // Mirror decode_field's framing exactly (length-escape rules and
    // bounds) so "parses here" agrees with "parses downstream".
    for (const std::uint8_t length_byte : {token_len, info_len}) {
      std::size_t len = length_byte;
      if (length_byte == 255) {
        len = r.u32();
        if (len <= 254) return 0;
      }
      r.skip(len);
    }
    const bool legal = (flags & kFlagTrm) == 0;
    return legal ? port : 0;
  } catch (const wire::CodecError&) {
    return 0;
  }
}

wire::Bytes encode_endpoint_id(std::uint64_t id) {
  wire::Writer w(8);
  w.u64(id);
  return std::move(w).take();
}

std::optional<std::uint64_t> decode_endpoint_id(const wire::Bytes& info) {
  if (info.size() != 8) return std::nullopt;
  wire::Reader r(info);
  return r.u64();
}

ViperRouter::ViperRouter(sim::Simulator& sim, std::string name,
                         RouterConfig config)
    : net::PortedNode(sim, std::move(name)), config_(config) {}

void ViperRouter::set_port_kind(int port_index, PortKind kind) {
  if (port_index <= 0) throw std::out_of_range("bad port index");
  if (static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    port_kinds_.resize(static_cast<std::size_t>(port_index) + 1,
                       PortKind::kPointToPoint);
  }
  port_kinds_[static_cast<std::size_t>(port_index)] = kind;
}

PortKind ViperRouter::port_kind(int port_index) const {
  if (port_index <= 0 ||
      static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    return PortKind::kPointToPoint;
  }
  return port_kinds_[static_cast<std::size_t>(port_index)];
}

void ViperRouter::define_logical_port(std::uint8_t id, LogicalPort lp) {
  logical_ports_[id] = std::move(lp);
}

void ViperRouter::define_tunnel_port(std::uint8_t id,
                                     TunnelTransmit transmit) {
  tunnel_ports_[id] = std::move(transmit);
}

void ViperRouter::inject_from_tunnel(std::uint8_t tunnel_port_id,
                                     wire::Bytes viper_bytes,
                                     wire::Bytes reverse_info) {
  ++stats_.received;
  auto packet = std::make_shared<net::Packet>();
  packet->bytes = std::move(viper_bytes);
  packet->created = sim_.now();
  net::Arrival arrival;
  arrival.packet = packet;
  arrival.in_port = 0;  // not a physical port; the trailer entry names the
                        // tunnel port instead (see make_return_entry)
  arrival.head = sim_.now();
  arrival.tail = sim_.now();
  arrival.rate_bps = 0.0;  // forces store-and-forward timing
  handle_packet(arrival, packet->bytes, /*synthetic_tree_copy=*/true,
                std::make_pair(tunnel_port_id, std::move(reverse_info)));
}

void ViperRouter::enable_delay_lines(sim::Time latency,
                                     int max_recirculations) {
  for (int p = 1; p <= port_count(); ++p) {
    net::TxPort& out = port(p);
    out.overflow_handler = [this, p, latency, max_recirculations](
                               net::PacketPtr packet, net::TxMeta meta) {
      if (packet->recirculations >=
          static_cast<std::uint8_t>(max_recirculations)) {
        ++stats_.delay_line_overflows;
        return false;  // give up: normal drop
      }
      ++packet->recirculations;
      ++stats_.delay_line_loops;
      // The packet spends `latency` in the delay line, then retries the
      // same output port ("entering it into a local delay line to store
      // the packet for some period of time", §2.1).
      sim_.after(latency, [this, p, packet = std::move(packet), meta] {
        port(p).enqueue(packet, meta, 0);
      });
      return true;
    };
  }
}

void ViperRouter::set_token_authority(const tokens::TokenAuthority* authority,
                                      tokens::Ledger* ledger) {
  authority_ = authority;
  ledger_ = ledger;
}

void ViperRouter::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    const auto instance = stats::metric_component(name());
    obs_hop_latency_ =
        &observer.registry->histogram("viper." + instance + ".hop_latency_ps");
    // Indexed by obs::TokenOutcome; kNone (index 0) is never counted.
    static constexpr std::array<const char*, 6> kOutcomeMetric = {
        nullptr,          "token_hit",       "token_miss_optimistic",
        "token_miss_blocking", "token_miss_drop", "token_rejected"};
    for (std::size_t i = 1; i < kOutcomeMetric.size(); ++i) {
      obs_token_counters_[i] = &observer.registry->counter(
          "viper." + instance + "." + kOutcomeMetric[i]);
    }
    token_cache_.set_occupancy_gauge(
        &observer.registry->gauge("tokens." + instance + ".cache_entries"));
  } else {
    obs_hop_latency_ = nullptr;
    obs_token_counters_ = {};
    token_cache_.set_occupancy_gauge(nullptr);
  }
  obs_recorder_ = observer.recorder;
  // Resolve this router's scoped flow observer once: the forward path then
  // pays a single untaken null branch when flow accounting is off.
  obs_flow_ =
      observer.flow != nullptr ? &observer.flow->scoped(name()) : nullptr;
  for (int p = 1; p <= port_count(); ++p) port(p).set_observer(observer);
}

void ViperRouter::count_token_outcome(obs::TokenOutcome outcome) {
  stats::Counter* c = obs_token_counters_[static_cast<std::size_t>(outcome)];
  if (c != nullptr) c->add();
}

SRP_HOT_PATH void ViperRouter::record_flow(
    const net::Arrival& arrival, const ParsedFront& front, int out_port,
    const wire::Bytes& bytes, bool cut_through, std::uint32_t account,
    sim::Time now) {
  obs::FlowSample sample;
  sample.route_digest = arrival.packet->route_digest;
  sample.packet_id = arrival.packet->id;
  sample.trace_id = arrival.packet->trace_id;
  sample.account = account;
  sample.tos_class = front.segment.tos.priority;
  sample.cut_through = cut_through;
  sample.in_port = static_cast<std::uint16_t>(arrival.in_port);
  sample.out_port = static_cast<std::uint16_t>(out_port);
  // The admitted byte count — the same value admit_token charged, which
  // is what makes per-account roll-ups reconcile with the ledger.
  sample.bytes = static_cast<std::uint32_t>(bytes.size());
  sample.now = now;
  // Link header + first segment, exactly as received: the excerpt source
  // for sampled-packet capture.
  sample.header =
      std::span(bytes).first(std::min(front.consumed, bytes.size()));
  obs_flow_->on_forward(sample);
}

SRP_SIM_VISIBLE void ViperRouter::on_arrival(const net::Arrival& arrival) {
  ++stats_.received;
  arrival.packet->last_in_port = arrival.in_port;
  if (!batching_) {
    handle_packet(arrival, arrival.packet->bytes,
                  /*synthetic_tree_copy=*/false);
    return;
  }
  // Batched plane: coalesce every arrival of this instant and drain once.
  // The drain event is scheduled at +0, so same-time FIFO ordering places
  // it after all arrivals already delivered at this instant — the batch
  // boundary IS the event boundary, which is what keeps the batched sim
  // byte-identical to the per-packet one (all forward timing derives from
  // arrival.head/tail, never from "processing time" within the instant).
  if (ingress_.push(arrival)) {
    sim_.after(0, [this] { drain_bursts(); });
  }
}

void ViperRouter::set_batching(BatchConfig config) {
  if (config.max_burst == 0) config.max_burst = 1;
  batch_config_ = config;
  arena_ = net::PacketArena(batch_config_.arena_capacity);
  batching_ = true;
}

SRP_SIM_VISIBLE void ViperRouter::drain_bursts() {
  while (!ingress_.empty()) {
    forward_burst(ingress_.take(batch_config_.max_burst));
  }
  ingress_.reset();  // drop held packet references, re-arm scheduling
}

SRP_HOT_PATH void ViperRouter::forward_burst(
    std::span<const net::Arrival> burst) {
  // Pass 1: classify.  Pure — no counters move, nothing is charged — so a
  // slow item replays through handle_packet() from scratch with no
  // double-count and a fast item is guaranteed to reach admission.
  burst_slots_.clear();
  for (const net::Arrival& arrival : burst) {
    // capacity-warm scratch; classify writes the view in place
    SRP_ALLOC_OK(BurstSlot& slot = burst_slots_.emplace_back());
    slot.fast = classify_fast(arrival, slot.view);
  }

  // Pass 2: prefetch validation tickets for this burst's uncached tokens.
  prefetch_burst_tokens();

  // Pass 3: per-item, in strict arrival order.  Slow items flush the
  // accumulated observability first so the flow sampler draws in exactly
  // the per-packet order.
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const net::Arrival& arrival = burst[i];
    if (burst_slots_[i].fast) {
      forward_fast(arrival, burst_slots_[i].view);
    } else {
      flush_burst_obs();
      handle_packet(arrival, arrival.packet->bytes,
                    /*synthetic_tree_copy=*/false);
    }
  }
  flush_burst_obs();

  // Every prefetched ticket is normally consumed by its fast item's
  // admission above.  The one escape: a slow item sharing the token value
  // entered pending_verifies_ first, orphaning the fast item's ticket —
  // settle such strays now so the engine's await-every-ticket contract
  // holds.
  if (!pending_tickets_.empty()) {
    for (const auto& [key, ticket] : SRP_ORDER_OK(pending_tickets_)) {
      (void)key;
      (void)validation_engine_->await(ticket);
    }
    pending_tickets_.clear();
  }
}

SRP_HOT_PATH bool ViperRouter::classify_fast(const net::Arrival& arrival,
                                             SegmentView& view) const {
  if (port_kind(arrival.in_port) == PortKind::kLan) return false;
  try {
    view = decode_segment_view(arrival.packet->bytes, 0);
  } catch (const wire::CodecError&) {
    return false;  // handle_packet counts the malformed drop
  }
  if (!view.is_legal()) return false;
  if (view.port == core::kLocalPort) return false;
  if (core::is_tree_info(view.port_info)) return false;
  if (!tunnel_ports_.empty() && tunnel_ports_.contains(view.port)) {
    return false;
  }
  if (!logical_ports_.empty() && logical_ports_.contains(view.port)) {
    return false;
  }
  if (view.port > port_count()) return false;  // slow path counts the drop
  if (port_kind(view.port) == PortKind::kLan) return false;
  // kBlocking admission defers the packet with a copied image; keep that
  // cold machinery on the reference path.
  if (config_.require_tokens && authority_ != nullptr &&
      config_.uncached_policy == tokens::UncachedPolicy::kBlocking) {
    return false;
  }
  return true;
}

SRP_HOT_PATH void ViperRouter::prefetch_burst_tokens() {
  if (!config_.require_tokens || authority_ == nullptr ||
      validation_engine_ == nullptr) {
    return;
  }
  prefetch_tokens_.clear();
  prefetch_keys_.clear();
  for (const BurstSlot& slot : burst_slots_) {
    if (!slot.fast || slot.view.token.empty()) continue;
    const std::uint64_t key = tokens::TokenCache::key_of(slot.view.token);
    // Skip tokens already verifying, already ticketed, already cached —
    // and dedup within the burst — so exactly one submission exists per
    // distinct uncached token, the same as the per-packet path.
    if (pending_verifies_.contains(key)) continue;
    if (!pending_tickets_.empty() && pending_tickets_.contains(key)) continue;
    if (std::find(prefetch_keys_.begin(), prefetch_keys_.end(), key) !=
        prefetch_keys_.end()) {
      continue;
    }
    if (token_cache_.probe(slot.view.token)) continue;
    SRP_ALLOC_OK(prefetch_keys_.push_back(key));       // capacity-warm
    SRP_ALLOC_OK(prefetch_tokens_.push_back(slot.view.token));
  }
  if (prefetch_tokens_.empty()) return;
  prefetch_tickets_.clear();
  validation_engine_->submit_batch(config_.router_id, prefetch_tokens_,
                                   prefetch_tickets_);
  SIRPENT_INVARIANT(prefetch_tickets_.size() == prefetch_keys_.size());
  for (std::size_t i = 0; i < prefetch_keys_.size(); ++i) {
    SRP_ALLOC_OK(
        pending_tickets_.emplace(prefetch_keys_[i], prefetch_tickets_[i]));
  }
}

SRP_HOT_PATH void ViperRouter::forward_fast(const net::Arrival& arrival,
                                            const SegmentView& v) {
  const int physical_port = v.port;  // classified: a plain physical port
  net::TxPort& out = port(physical_port);
  const wire::Bytes& bytes = arrival.packet->bytes;

  const auto decision = admit_token_ref(
      TokenRef{v.token, v.port, v.tos.priority, v.flags.rpf}, physical_port,
      bytes.size());
  if (!decision.has_value()) return;
  // kBlocking was classified slow, so admission never defers here.
  SIRPENT_INVARIANT(decision->extra_delay == 0);

  // The zero-copy rewrite: remainder + return entry appended straight into
  // a recycled arena slab whose capacity is warm — no Writer, no derive
  // allocation, header fields as views throughout.
  net::PacketPtr derived = arena_.acquire();
  wire::Bytes& out_bytes = derived->bytes;
  SRP_ALLOC_OK(out_bytes.insert(
      out_bytes.end(),
      bytes.begin() + static_cast<std::ptrdiff_t>(v.wire_size), bytes.end()));
  {
    // Byte-identical twin of make_return_entry() + encode_segment() for a
    // point-to-point, non-tunnel arrival: return port = arrival port, DIB
    // mirrored from the type of service, VNT set (no link header), token
    // echoed when reversible.
    core::SegmentFlags return_flags;
    return_flags.vnt = true;
    return_flags.dib = v.tos.drop_if_blocked;
    append_segment_raw(out_bytes, static_cast<std::uint8_t>(arrival.in_port),
                       v.tos, return_flags,
                       decision->reversible
                           ? v.token
                           : std::span<const std::uint8_t>{},
                       {});
  }

  const ForwardTiming timing =
      forward_timing(arrival, v.wire_size, physical_port);
  if (telemetry_enabled_ && arrival.packet->telemetry) {
    // Same stamp, same placement as forward(): after the return entry,
    // before the MTU cut — so the cut may slice through the newest record
    // on either path, byte-identically.
    stamp_telemetry(out_bytes, arrival, physical_port, &out, timing,
                    decision->outcome);
  }

  bool truncated = false;
  if (out_bytes.size() > out.config().mtu_bytes) {
    // Same cut as forward(): resize to MTU minus the 4-byte truncation
    // mark, then append the mark (an illegal segment, §2).
    static constexpr std::size_t kMarkWire = 4;
    SIRPENT_INVARIANT(out.config().mtu_bytes >= kMarkWire);
    SRP_ALLOC_OK(out_bytes.resize(out.config().mtu_bytes - kMarkWire));
    const core::HeaderSegment mark = core::HeaderSegment::truncation_marker();
    append_segment_raw(out_bytes, mark.port, mark.tos, mark.flags, {}, {});
    truncated = true;
    ++stats_.truncated_forwards;
    SIRPENT_ENSURES(out_bytes.size() == out.config().mtu_bytes);
  }

  // Packet::derive()'s bookkeeping, applied to the slab.
  const net::Packet& src = *arrival.packet;
  derived->id = src.id;
  derived->created = src.created;
  derived->flow = src.flow;
  derived->hops = src.hops + 1;
  derived->trace_id = src.trace_id;
  derived->route_digest = src.route_digest;
  derived->parent = arrival.packet;
  derived->truncated = truncated;
  derived->last_in_port = arrival.in_port;
  derived->feedforward = src.feedforward;
  derived->telemetry = src.telemetry;

  const net::TxMeta meta = meta_for(v.tos);

  ++stats_.forwarded;
  if (obs_hop_latency_ != nullptr) {
    obs_hop_latency_->record(
        static_cast<std::uint64_t>(timing.earliest - arrival.head));
  }
  if (obs_flow_ != nullptr) {
    obs::FlowSample sample;
    sample.route_digest = src.route_digest;
    sample.packet_id = src.id;
    sample.trace_id = src.trace_id;
    sample.account = decision->account;
    sample.tos_class = v.tos.priority;
    sample.cut_through = timing.cut_through;
    sample.in_port = static_cast<std::uint16_t>(arrival.in_port);
    sample.out_port = static_cast<std::uint16_t>(physical_port);
    sample.bytes = static_cast<std::uint32_t>(bytes.size());
    sample.now = timing.earliest;
    sample.header =
        std::span(bytes).first(std::min(v.wire_size, bytes.size()));
    SRP_ALLOC_OK(burst_samples_.push_back(sample));  // flushed this drain
  }
  if (obs_recorder_ != nullptr && derived->trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = derived->trace_id;
    span.hop = src.hops;
    span.kind = obs::SpanKind::kHop;
    span.token = decision->outcome;
    span.cut_through = timing.cut_through;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.out_port = static_cast<std::uint16_t>(physical_port);
    span.start = arrival.head;
    span.decision = timing.decision;
    span.end = timing.earliest;
    span.set_component(name());
    SRP_ALLOC_OK(burst_spans_.push_back(span));  // flushed this drain
  }
  if (shaper_) {
    // The shaper lookahead is the only consumer of the next-hop peek, so
    // the second segment decode is skipped entirely when no congestion
    // layer is attached.
    const std::uint8_t next_port = peek_next_port(bytes, v.wire_size);
    if (shaper_(physical_port, next_port, derived, meta, timing.earliest)) {
      return;  // congestion layer took custody
    }
  }
  out.enqueue(std::move(derived), meta, timing.earliest);
}

SRP_HOT_PATH void ViperRouter::flush_burst_obs() {
  if (!burst_samples_.empty()) {
    obs_flow_->on_forward_burst(burst_samples_);
    burst_samples_.clear();
  }
  if (!burst_spans_.empty()) {
    obs_recorder_->record_burst(burst_spans_);
    burst_spans_.clear();
  }
}

SRP_HOT_PATH void ViperRouter::handle_packet(
    const net::Arrival& arrival, const wire::Bytes& bytes,
    bool synthetic_tree_copy,
    std::optional<std::pair<std::uint8_t, wire::Bytes>> tunnel_return) {
  ParsedFront front;
  front.tunnel_return = std::move(tunnel_return);
  try {
    wire::Reader r(bytes);
    if (!synthetic_tree_copy &&
        port_kind(arrival.in_port) == PortKind::kLan) {
      front.link = net::EthernetHeader::decode(r);
    }
    front.segment = decode_segment(r);
    front.consumed = r.position();
  } catch (const wire::CodecError&) {
    ++stats_.dropped_malformed;
    return;
  }
  // Everything downstream slices `bytes` at `consumed`; the reader position
  // is by construction inside the packet.
  SIRPENT_INVARIANT(front.consumed <= bytes.size());
  if (!front.segment.is_legal()) {
    ++stats_.dropped_malformed;
    return;
  }

  if (front.segment.port == core::kLocalPort) {
    deliver_control(arrival, front, bytes);
    return;
  }

  // Blazenet-style tree multicast: the continuation lives in the branches.
  if (core::is_tree_info(front.segment.port_info)) {
    branch_tree(arrival, front, bytes);
    return;
  }

  const auto tunnel = tunnel_ports_.find(front.segment.port);
  if (tunnel != tunnel_ports_.end()) {
    forward_into_tunnel(arrival, front, tunnel->second, bytes);
    return;
  }

  const auto logical = logical_ports_.find(front.segment.port);
  if (logical != logical_ports_.end()) {
    const LogicalPort& lp = logical->second;
    if (lp.members.empty()) {
      ++stats_.dropped_no_port;
      return;
    }
    if (lp.kind == LogicalPort::Kind::kFanout) {
      // Multicast mechanism 1: reserved multi-port value.
      for (std::size_t i = 0; i < lp.members.size(); ++i) {
        if (i > 0) ++stats_.fanout_copies;
        forward(arrival, front, lp.members[i], bytes);
      }
      return;
    }
    // Replicated trunk: "A packet arriving for this logical link would be
    // routed to whichever of the channels was free" (§2.2).
    int best = lp.members.front();
    std::size_t best_bytes = std::numeric_limits<std::size_t>::max();
    for (int member : lp.members) {
      const net::TxPort& p = port(member);
      if (!p.is_up()) continue;
      if (!p.busy() && p.queue_packets() == 0) {
        best = member;
        best_bytes = 0;
        break;
      }
      if (p.queue_bytes() < best_bytes) {
        best = member;
        best_bytes = p.queue_bytes();
      }
    }
    forward(arrival, front, best, bytes);
    return;
  }

  if (front.segment.port > port_count()) {
    ++stats_.dropped_no_port;
    return;
  }
  forward(arrival, front, front.segment.port, bytes);
}

void ViperRouter::branch_tree(const net::Arrival& arrival,
                              const ParsedFront& front,
                              const wire::Bytes& bytes) {
  std::vector<wire::Bytes> branches;
  try {
    branches = core::decode_tree_info(front.segment.port_info);
  } catch (const wire::CodecError&) {
    ++stats_.dropped_malformed;
    return;
  }
  const std::span<const std::uint8_t> rest =
      std::span(bytes).subspan(front.consumed);
  for (const auto& blob : branches) {
    ++stats_.tree_copies;
    wire::Bytes copy;
    copy.reserve(blob.size() + rest.size());
    copy.insert(copy.end(), blob.begin(), blob.end());
    copy.insert(copy.end(), rest.begin(), rest.end());
    handle_packet(arrival, copy, /*synthetic_tree_copy=*/true);
  }
}

void ViperRouter::deliver_control(const net::Arrival& arrival,
                                  const ParsedFront& front,
                                  const wire::Bytes& bytes) {
  if (!control_handler_) {
    ++stats_.dropped_no_port;
    return;
  }
  try {
    wire::Reader r{std::span{bytes}.subspan(front.consumed)};
    DeliveredBody body = decode_delivered_body(r);
    ++stats_.delivered_control;
    control_handler_(front.segment, std::move(body.data), arrival.in_port);
  } catch (const wire::CodecError&) {
    ++stats_.dropped_malformed;
  }
}

core::HeaderSegment ViperRouter::make_return_entry(
    const net::Arrival& arrival, const ParsedFront& front,
    bool token_reversible) const {
  core::HeaderSegment entry;
  entry.port = static_cast<std::uint8_t>(arrival.in_port);
  entry.tos = front.segment.tos;
  entry.flags.dib = front.segment.tos.drop_if_blocked;
  if (token_reversible) entry.token = front.segment.token;
  if (front.tunnel_return.has_value()) {
    // Tunnel ingress: the return hop re-enters the tunnel toward the far
    // gateway learned from the encapsulation header.
    entry.port = front.tunnel_return->first;
    entry.port_info = front.tunnel_return->second;
    entry.flags.vnt = entry.port_info.empty();
    return entry;
  }
  if (front.link.has_value()) {
    // "with an Ethernet header, the destination and source addresses are
    // swapped" so the stored header is a correct return hop.
    wire::Writer w(net::EthernetHeader::kWireSize);
    front.link->reversed().encode(w);
    entry.port_info = std::move(w).take();
    entry.flags.vnt = false;
  } else {
    entry.flags.vnt = true;
  }
  return entry;
}

SRP_HOT_PATH std::optional<ViperRouter::TokenDecision>
ViperRouter::admit_token(const core::HeaderSegment& seg, int physical_port,
                         std::size_t packet_bytes) {
  return admit_token_ref(
      TokenRef{seg.token, seg.port, seg.tos.priority, seg.flags.rpf},
      physical_port, packet_bytes);
}

SRP_HOT_PATH std::optional<ViperRouter::TokenDecision>
ViperRouter::admit_token_ref(const TokenRef& ref, int physical_port,
                             std::size_t packet_bytes) {
  if (!config_.require_tokens || authority_ == nullptr) {
    // Enforcement disabled: echo any supplied token into the trailer so
    // the receiver can reuse it on the return route.
    return TokenDecision{0, !ref.token.empty()};
  }
  (void)physical_port;
  if (ref.token.empty()) {
    ++stats_.dropped_unauthorized;
    count_token_outcome(obs::TokenOutcome::kRejected);
    return std::nullopt;
  }

  const std::optional<tokens::TokenCache::Entry> entry =
      token_cache_.lookup(ref.token);
  if (entry.has_value()) {
    if (entry->flagged) {
      ++stats_.dropped_unauthorized;
      count_token_outcome(obs::TokenOutcome::kRejected);
      return std::nullopt;
    }
    // Cached, valid: real-time checks against the cached body.  A token
    // minted for the forward port also authorizes the *return* hop when
    // reverse charging is granted and the packet is marked RPF ("the
    // token can be used for the return route as well", §2.2).
    const bool port_ok =
        entry->body.port == ref.port ||
        (ref.rpf && entry->body.reverse_ok);
    if (!port_ok || core::priority_rank(ref.priority) >
                        core::priority_rank(entry->body.max_priority)) {
      ++stats_.dropped_unauthorized;
      count_token_outcome(obs::TokenOutcome::kRejected);
      return std::nullopt;
    }
    if (entry->body.expiry_sec != 0 &&
        sim_.now() > static_cast<sim::Time>(entry->body.expiry_sec) *
                         sim::kSecond) {
      ++stats_.dropped_expired_token;
      count_token_outcome(obs::TokenOutcome::kRejected);
      return std::nullopt;
    }
    SIRPENT_INVARIANT(ledger_ != nullptr);
    if (token_cache_.charge(ref.token, packet_bytes, *ledger_) !=
        tokens::TokenCache::ChargeResult::kCharged) {
      ++stats_.dropped_token_limit;
      count_token_outcome(obs::TokenOutcome::kRejected);
      return std::nullopt;
    }
    if (obs_flow_ != nullptr) {
      obs_flow_->on_charge(entry->body.account, packet_bytes);
    }
    count_token_outcome(obs::TokenOutcome::kHit);
    return TokenDecision{0, entry->body.reverse_ok, obs::TokenOutcome::kHit,
                         entry->body.account};
  }

  // Miss: start the (slow) verification exactly once per token value.
  // With a ValidationEngine attached, the XTEA decrypt + MAC check runs on
  // the worker pool while simulated time passes; the completion event
  // below awaits the ticket at exactly the instant the serial code would
  // have computed the same (pure-function) result, so the simulation
  // schedule is bit-identical either way.
  const std::uint64_t key = tokens::TokenCache::key_of(ref.token);
  if (!pending_verifies_.contains(key)) {
    // Verification slow path: one-time bookkeeping per distinct token
    // value, not per packet — the blessed allocations below amortize to
    // zero in steady state (pinned by tests/alloc_budget_test.cpp).
    SRP_ALLOC_OK(pending_verifies_.insert(key));
    SRP_ALLOC_OK(
        wire::Bytes token_copy(ref.token.begin(), ref.token.end()));
    const std::uint64_t first_packet_bytes = packet_bytes;
    std::optional<tokens::ValidationEngine::Ticket> ticket;
    if (validation_engine_ != nullptr) {
      // A batched drain prefetched this burst's uncached tokens; consume
      // the parked ticket instead of re-submitting.
      const auto prefetched = pending_tickets_.find(key);
      if (prefetched != pending_tickets_.end()) {
        ticket = prefetched->second;
        pending_tickets_.erase(prefetched);
      } else {
        ticket = validation_engine_->submit(config_.router_id, token_copy);
      }
    }
    // SRP_ALLOC_OK(verification completion event, once per token value)
    sim_.after(config_.verify_delay, [this, token_copy = std::move(token_copy),
                                      first_packet_bytes, key, ticket] {
      pending_verifies_.erase(key);
      const std::optional<tokens::TokenBody> body =
          ticket.has_value() ? validation_engine_->await(*ticket)
                             : authority_->open(config_.router_id, token_copy);
      // Store + optimistic settlement in one atomic cache step: the first
      // packet that flew before verification landed is charged exactly
      // once (tokens/token_core.hpp owns the transition).
      const std::uint64_t settle_bytes =
          config_.uncached_policy == tokens::UncachedPolicy::kOptimistic
              ? first_packet_bytes
              : 0;
      const auto outcome = token_cache_.store_and_settle(
          token_copy, body, settle_bytes, ledger_);
      if (outcome.settled && obs_flow_ != nullptr) {
        obs_flow_->on_charge(outcome.entry.body.account, first_packet_bytes);
      }
    });
  }

  switch (config_.uncached_policy) {
    case tokens::UncachedPolicy::kOptimistic:
      // "one or a small number of unauthorized packets can be allowed
      // through without significant problems."  The token is also echoed
      // into the trailer optimistically: by the time a reply presents it,
      // verification has landed and a bad token is flagged.
      count_token_outcome(obs::TokenOutcome::kMissOptimistic);
      return TokenDecision{0, true, obs::TokenOutcome::kMissOptimistic};
    case tokens::UncachedPolicy::kBlocking:
      // "the initial packet can be handled as a blocked packet ... the
      // blocking action allows some time for the token to be processed."
      count_token_outcome(obs::TokenOutcome::kMissBlocking);
      return TokenDecision{config_.verify_delay, false,
                           obs::TokenOutcome::kMissBlocking};
    case tokens::UncachedPolicy::kDrop:
      ++stats_.dropped_uncached;
      count_token_outcome(obs::TokenOutcome::kMissDrop);
      return std::nullopt;
  }
  return std::nullopt;
}

SRP_HOT_PATH void ViperRouter::stamp_telemetry(
    wire::Bytes& out_bytes, const net::Arrival& arrival, int out_port,
    const net::TxPort* out, const ForwardTiming& timing,
    obs::TokenOutcome outcome) {
  const net::Packet& src = *arrival.packet;
  if (src.hops >= obs::kMaxTelemetryHops) {
    // The record would outgrow any legal route; skip, but count the skip
    // so the sink can see its hop profile is a prefix.
    ++stats_.telemetry_overflow;
    return;
  }
  obs::HopTelemetry t;
  t.router_id = config_.router_id;
  t.hop = static_cast<std::uint8_t>(src.hops);
  t.egress_port = static_cast<std::uint8_t>(out_port);
  t.token = outcome;
  t.cut_through = timing.cut_through;
  t.in_port = static_cast<std::uint16_t>(arrival.in_port);
  t.arrival_ps = static_cast<std::uint64_t>(arrival.head);
  t.depart_ps = static_cast<std::uint64_t>(timing.earliest);
  if (out != nullptr) {
    t.egress_down = !out->is_up();
    t.queue_depth = static_cast<std::uint16_t>(
        std::min<std::size_t>(out->queue_packets(), 0xFFFF));
    const double rate = out->config().rate_bps;
    if (rate > 0.0) {
      // Estimated drain time of the bytes already queued ahead — the
      // queue's contribution to this hop's latency as seen at stamp time.
      t.queue_wait_ps = static_cast<std::uint32_t>(
          std::min<sim::Time>(sim::byte_time(out->queue_bytes(), rate),
                              0xFFFFFFFF));
    }
  }
  // The record is a pseudo-segment: TRM so it is "not a legal Sirpent
  // header segment" (no router routes by it), VNT clear so the payload
  // survives decode, the reserved port naming the record kind.
  std::array<std::uint8_t, obs::kHopTelemetryWire> payload;
  t.encode(payload);
  core::SegmentFlags flags;
  flags.trm = true;
  append_segment_raw(out_bytes, core::kTelemetryPort, core::TypeOfService{},
                     flags, {}, payload);
  ++stats_.telemetry_stamped;
}

SRP_HOT_PATH ViperRouter::ForwardTiming ViperRouter::forward_timing(
    const net::Arrival& arrival, std::size_t consumed, int out_port) const {
  // Cut-through preconditions (§2.1): output may start only after the
  // decision point — link header + first segment — has fully arrived, and
  // never before the packet's head reached us.
  SIRPENT_EXPECTS(consumed > 0);
  SIRPENT_EXPECTS(arrival.head <= arrival.tail);
  const net::TxPort& out = port(out_port);
  const bool same_rate = arrival.rate_bps == out.config().rate_bps;
  ForwardTiming timing;
  if (config_.cut_through && same_rate) {
    // Decision is possible once the link header + first segment are in.
    timing.cut_through = true;
    timing.decision =
        arrival.head + sim::byte_time(consumed, arrival.rate_bps);
  } else {
    // "Cut-through routing is only applicable when the input link and the
    // output link are the same data rates" — otherwise store-and-forward.
    timing.decision = arrival.tail + config_.store_forward_proc;
  }
  timing.earliest = timing.decision + config_.decision_delay;
  SIRPENT_ENSURES(timing.earliest >= arrival.head);
  return timing;
}

SRP_HOT_PATH void ViperRouter::forward(const net::Arrival& arrival,
                                       const ParsedFront& front,
                                       int physical_port,
                                       const wire::Bytes& bytes,
                                       bool was_blocked) {
  if (physical_port <= 0 || physical_port > port_count()) {
    ++stats_.dropped_no_port;
    return;
  }
  net::TxPort& out = port(physical_port);

  const auto decision =
      admit_token(front.segment, physical_port, bytes.size());
  if (!decision.has_value()) return;

  if (decision->extra_delay > 0 &&
      config_.uncached_policy == tokens::UncachedPolicy::kBlocking) {
    // Blocking admission: retry once the verification has landed in the
    // cache (the packet is fully buffered by then).  Copying the packet
    // image for the deferral is the price of the kBlocking policy, not of
    // the steady-state forward path.
    net::Arrival deferred = arrival;
    SRP_ALLOC_OK(wire::Bytes bytes_copy = bytes);
    SRP_ALLOC_OK(ParsedFront front_copy = front);
    // SRP_ALLOC_OK(deferred-retry event, kBlocking policy only)
    sim_.after(decision->extra_delay,
               [this, deferred, front_copy = std::move(front_copy),
                physical_port, bytes_copy = std::move(bytes_copy)] {
                 forward(deferred, front_copy, physical_port, bytes_copy,
                         /*was_blocked=*/true);
               });
    return;
  }

  // The one per-forward buffer: the rewritten packet image (remainder +
  // this hop's return entry).  The batched zero-copy refactor (ROADMAP
  // item 1) replaces this with an arena slab; until then it is the
  // documented baseline cost.
  SRP_ALLOC_OK(wire::Writer w(bytes.size() + 32));
  if (port_kind(physical_port) == PortKind::kLan) {
    if (front.segment.port_info.size() < net::EthernetHeader::kWireSize) {
      ++stats_.dropped_malformed;
      return;
    }
    // The segment's portInfo is the link header for the next network.
    w.bytes(front.segment.port_info);
  }
  w.bytes(std::span(bytes).subspan(front.consumed));
  encode_segment(w, make_return_entry(arrival, front, decision->reversible));
  wire::Bytes out_bytes = std::move(w).take();

  // forward_timing is pure; computed here so the telemetry stamp can
  // carry the hop's departure time before the MTU cut decides its fate.
  const ForwardTiming timing =
      forward_timing(arrival, front.consumed, physical_port);
  if (telemetry_enabled_ && arrival.packet->telemetry) {
    stamp_telemetry(out_bytes, arrival, physical_port, &out, timing,
                    was_blocked ? obs::TokenOutcome::kMissBlocking
                                : decision->outcome);
  }

  bool truncated = false;
  if (out_bytes.size() > out.config().mtu_bytes) {
    // Cut-through discovers oversize mid-transmission; the packet is cut
    // and a truncation mark (an illegal segment) is appended (§2).
    const core::HeaderSegment mark = core::HeaderSegment::truncation_marker();
    SRP_ALLOC_OK(wire::Writer mw(4));
    encode_segment(mw, mark);
    const wire::Bytes mark_bytes = std::move(mw).take();
    SIRPENT_INVARIANT(out.config().mtu_bytes >= mark_bytes.size());
    SRP_ALLOC_OK(out_bytes.resize(out.config().mtu_bytes - mark_bytes.size()));
    SRP_ALLOC_OK(
        out_bytes.insert(out_bytes.end(), mark_bytes.begin(), mark_bytes.end()));
    truncated = true;
    ++stats_.truncated_forwards;
    // A truncated forward is cut exactly to the output MTU with the mark as
    // its final segment — "not a legal Sirpent header segment".
    SIRPENT_ENSURES(out_bytes.size() == out.config().mtu_bytes);
  }

  const std::uint8_t next_port = peek_next_port(bytes, front.consumed);
  net::PacketPtr derived = arrival.packet->derive(std::move(out_bytes));
  derived->truncated = truncated;
  derived->last_in_port = arrival.in_port;
  // Feed-forward load info rides one hop: stamped by the upstream shaper,
  // read by this router's congested-port monitor (paper §2.2).
  derived->feedforward = arrival.packet->feedforward;

  const net::TxMeta meta = meta_for(front.segment.tos);

  ++stats_.forwarded;
  if (obs_hop_latency_ != nullptr) {
    obs_hop_latency_->record(
        static_cast<std::uint64_t>(timing.earliest - arrival.head));
  }
  if (obs_flow_ != nullptr) {
    record_flow(arrival, front, physical_port, bytes, timing.cut_through,
                decision->account, timing.earliest);
  }
  if (obs_recorder_ != nullptr && derived->trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = derived->trace_id;
    span.hop = arrival.packet->hops;
    span.kind = obs::SpanKind::kHop;
    span.token = was_blocked ? obs::TokenOutcome::kMissBlocking
                             : decision->outcome;
    span.cut_through = timing.cut_through;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.out_port = static_cast<std::uint16_t>(physical_port);
    span.start = arrival.head;
    span.decision = timing.decision;
    span.end = timing.earliest;
    span.set_component(name());
    obs_recorder_->record(span);
  }
  if (shaper_ &&
      shaper_(physical_port, next_port, derived, meta, timing.earliest)) {
    return;  // congestion layer took custody
  }
  out.enqueue(std::move(derived), meta, timing.earliest);
}

void ViperRouter::forward_into_tunnel(const net::Arrival& arrival,
                                       const ParsedFront& front,
                                       const TunnelTransmit& transmit,
                                       const wire::Bytes& bytes) {
  const auto decision =
      admit_token(front.segment, /*physical_port=*/0, bytes.size());
  if (!decision.has_value()) return;
  // Encapsulated image: the remainder plus this hop's return entry —
  // exactly what a physical forward would put on the wire, minus framing.
  wire::Writer w(bytes.size() + 32);
  w.bytes(std::span{bytes}.subspan(front.consumed));
  encode_segment(w, make_return_entry(arrival, front, decision->reversible));
  wire::Bytes encap = std::move(w).take();
  if (telemetry_enabled_ && arrival.packet->telemetry) {
    // Tunnel egress has no TxPort to sample and is store-and-forward by
    // construction; the record still pins the hop's identity and times.
    ForwardTiming timing;
    timing.decision = arrival.tail;
    timing.earliest = std::max(arrival.tail, sim_.now());
    stamp_telemetry(encap, arrival, front.segment.port, nullptr, timing,
                    decision->outcome);
  }
  ++stats_.forwarded;
  if (obs_hop_latency_ != nullptr) {
    obs_hop_latency_->record(
        static_cast<std::uint64_t>(arrival.tail - arrival.head));
  }
  if (obs_flow_ != nullptr) {
    // Tunnel hops are store-and-forward by construction.
    record_flow(arrival, front, front.segment.port, bytes,
                /*cut_through=*/false, decision->account,
                std::max(arrival.tail, sim_.now()));
  }
  if (obs_recorder_ != nullptr && arrival.packet->trace_id != 0) {
    // Tunnel hops are store-and-forward by construction; the span closes
    // when the encapsulated image is handed to the tunnel transmit hook.
    obs::SpanRecord span;
    span.trace_id = arrival.packet->trace_id;
    span.hop = arrival.packet->hops;
    span.kind = obs::SpanKind::kHop;
    span.token = decision->outcome;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.out_port = front.segment.port;
    span.start = arrival.head;
    span.decision = arrival.tail;
    span.end = std::max(arrival.tail, sim_.now());
    span.set_component(name());
    obs_recorder_->record(span);
  }
  transmit(front.segment.port_info, std::move(encap), front.segment.tos);
}

void ViperRouter::emit_to_port(int out_port, net::PacketPtr packet,
                               net::TxMeta meta, sim::Time earliest_start) {
  port(out_port).enqueue(std::move(packet), meta, earliest_start);
}

void ViperRouter::send_control(int port_index,
                               std::span<const std::uint8_t> payload,
                               std::uint8_t priority) {
  core::SourceRoute route;
  core::HeaderSegment seg;
  seg.port = core::kLocalPort;
  seg.tos.priority = priority;
  seg.port_info = encode_endpoint_id(kControlEndpoint);
  route.segments.push_back(std::move(seg));

  auto packet = std::make_shared<net::Packet>();
  packet->bytes = encode_packet(route, payload);
  packet->created = sim_.now();
  port(port_index).enqueue(std::move(packet), meta_for(route.segments[0].tos),
                           0);
}

}  // namespace srp::viper
