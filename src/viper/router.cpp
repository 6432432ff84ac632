#include "viper/router.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/analysis.hpp"
#include "check/contract.hpp"
#include "flow/plane.hpp"
#include "obs/telemetry.hpp"

namespace srp::viper {
namespace {

net::TxMeta meta_for(const core::TypeOfService& tos) {
  return net::TxMeta{core::priority_rank(tos.priority),
                     core::priority_preempts(tos.priority),
                     tos.drop_if_blocked};
}

/// Room a rewrite may need beyond the arrival image, its outgoing link
/// header and its return portInfo: the dropped front is at least as long
/// as the return entry's prefix and echoed token, leaving two length
/// escapes and one telemetry record.
constexpr std::size_t kRewriteSlack = 8 + 4 + obs::kHopTelemetryWire;

}  // namespace

/// Port field of the packet's next segment, or 0 when the remainder does
/// not start with a routable segment (e.g. it is the DataLen of a locally
/// terminating packet).  Used only as the congestion flow key; the same
/// parse as every hop's, so "parses here" agrees with "parses downstream".
SRP_HOT_PATH std::uint8_t peek_next_port(std::span<const std::uint8_t> bytes,
                                         std::size_t offset) {
  const std::optional<SegmentView> next = parse_segment(bytes, offset);
  return next && next->is_legal() ? next->port : 0;
}

void encode_endpoint_id(std::uint64_t id, wire::Bytes& out) {
  out.resize(8);
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(id >> (56 - 8 * i));
  }
}

wire::Bytes encode_endpoint_id(std::uint64_t id) {
  wire::Bytes out;
  encode_endpoint_id(id, out);
  return out;
}

std::optional<std::uint64_t> decode_endpoint_id(
    std::span<const std::uint8_t> info) {
  if (info.size() != 8) return std::nullopt;
  wire::Reader r(info);
  return r.u64();
}

void ViperNode::set_port_kind(int port_index, PortKind kind) {
  if (port_index <= 0) throw std::out_of_range("bad port index");
  if (static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    port_kinds_.resize(static_cast<std::size_t>(port_index) + 1,
                       PortKind::kPointToPoint);
  }
  port_kinds_[static_cast<std::size_t>(port_index)] = kind;
}

ViperRouter::ViperRouter(sim::Simulator& sim, std::string name,
                         RouterConfig config)
    : ViperNode(sim, std::move(name)), config_(config) {
  core::HeaderSegment& control = control_route_.segments.emplace_back();
  control.port = core::kLocalPort;
  control.port_info = encode_endpoint_id(kControlEndpoint);
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
                        // tunnel port instead (see parse_front)
  arrival.head = sim_.now();
  arrival.tail = sim_.now();
  arrival.rate_bps = 0.0;  // forces store-and-forward timing
  route(arrival, packet->bytes,
        Ingress{/*link_framed=*/false, /*given_return=*/true, tunnel_port_id,
                reverse_info});
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
      observer.registry->counter("viper." + instance + "." + kOutcomeMetric[i],
                                 token_outcomes_[i]);
    }
    token_cache_.set_occupancy_gauge(
        &observer.registry->gauge("tokens." + instance + ".cache_entries"));
  } else {
    obs_hop_latency_ = nullptr;
    token_cache_.set_occupancy_gauge(nullptr);
  }
  obs_recorder_ = observer.recorder;
  // Resolve this router's scoped flow observer once: the forward path then
  // pays a single untaken null branch when flow accounting is off.
  obs_flow_ =
      observer.flow != nullptr ? &observer.flow->scoped(name()) : nullptr;
  for (int p = 1; p <= port_count(); ++p) port(p).set_observer(observer);
}

SRP_SIM_VISIBLE void ViperRouter::on_arrival(const net::Arrival& arrival) {
  ++stats_.received;
  arrival.packet->last_in_port = arrival.in_port;
  route(arrival, arrival.packet->bytes, ingress_of(arrival));
}

SRP_HOT_PATH bool ViperRouter::parse_front(const net::Arrival& arrival,
                                           std::span<const std::uint8_t> bytes,
                                           const Ingress& ingress,
                                           LinkScratch& link,
                                           Front& front) const {
  std::size_t offset = 0;
  front.return_port = static_cast<std::uint8_t>(arrival.in_port);
  front.return_info = {};
  if (ingress.link_framed) {
    // "with an Ethernet header, the destination and source addresses are
    // swapped" so the stored header is a correct return hop.
    if (bytes.size() < link.size()) return false;
    net::EthernetHeader::reverse_wire(
        bytes.first<net::EthernetHeader::kWireSize>(), link);
    front.return_info = link;
    offset = link.size();
  }
  if (ingress.given_return) {
    // Tunnel ingress: the return hop re-enters the tunnel toward the far
    // gateway learned from the encapsulation header.  Tree branch copy:
    // the return hop is the one the branching segment's arrival earned.
    front.return_port = ingress.return_port;
    front.return_info = ingress.return_info;
  }
  const std::optional<SegmentView> segment = parse_segment(bytes, offset);
  if (!segment) return false;
  front.segment = *segment;
  front.consumed = offset + front.segment.wire_size;
  return true;
}

SRP_HOT_PATH void ViperRouter::route(const net::Arrival& arrival,
                                     std::span<const std::uint8_t> bytes,
                                     const Ingress& ingress) {
  LinkScratch link;
  Front front;
  if (!parse_front(arrival, bytes, ingress, link, front) ||
      !front.segment.is_legal()) {
    ++stats_.dropped_malformed;
    return;
  }
  // Everything downstream slices `bytes` at `consumed`; the parse offset
  // is by construction inside the packet.
  SIRPENT_INVARIANT(front.consumed <= bytes.size());
  const SegmentView& seg = front.segment;

  if (seg.port == core::kLocalPort) {
    deliver_control(arrival, front, bytes);
    return;
  }

  // Blazenet-style tree multicast: the continuation lives in the branches.
  // A branch that leads with another tree would multiply the copies of one
  // arrival by up to 255 per level: it is malformed, so one tree segment
  // costs at most 255 copies at a hop.
  if (core::is_tree_info(seg.port_info)) {
    if (ingress.tree_branch) {
      ++stats_.dropped_malformed;
      return;
    }
    branch_tree(arrival, front, bytes);
    return;
  }

  const auto tunnel = tunnel_ports_.find(seg.port);
  if (tunnel != tunnel_ports_.end()) {
    forward_into_tunnel(arrival, front, tunnel->second, bytes);
    return;
  }

  const auto logical = logical_ports_.find(seg.port);
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
        forward_to_port(arrival, front, lp.members[i], bytes, ingress);
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
    forward_to_port(arrival, front, best, bytes, ingress);
    return;
  }

  if (seg.port > port_count()) {
    ++stats_.dropped_no_port;
    return;
  }
  forward_to_port(arrival, front, seg.port, bytes, ingress);
}

void ViperRouter::branch_tree(const net::Arrival& arrival, const Front& front,
                              std::span<const std::uint8_t> bytes) {
  // The whole block is validated before the first copy: a malformed one
  // emits none.
  const std::optional<core::TreeView> tree =
      core::TreeView::parse(front.segment.port_info);
  if (!tree) {
    ++stats_.dropped_malformed;
    return;
  }
  const std::span<const std::uint8_t> rest = bytes.subspan(front.consumed);
  for (const std::span<const std::uint8_t> blob : *tree) {
    ++stats_.tree_copies;
    wire::Bytes copy;
    copy.reserve(blob.size() + rest.size());
    copy.insert(copy.end(), blob.begin(), blob.end());
    copy.insert(copy.end(), rest.begin(), rest.end());
    // A branch copy carries no link header; its return entry is the
    // front's (the reversed link header or tunnel info lives in the
    // caller's frame, which outlives this call).
    route(arrival, copy,
          Ingress{/*link_framed=*/false, /*given_return=*/true,
                  front.return_port, front.return_info,
                  /*tree_branch=*/true});
  }
}

SRP_HOT_PATH void ViperRouter::deliver_control(
    const net::Arrival& arrival, const Front& front,
    std::span<const std::uint8_t> bytes) {
  if (!control_handler_) {
    ++stats_.dropped_no_port;
    return;
  }
  const std::optional<BodyView> body =
      parse_body(bytes.subspan(front.consumed));
  if (!body) {
    ++stats_.dropped_malformed;
    return;
  }
  ++stats_.delivered_control;
  control_handler_(front.segment, body->data, arrival.in_port);
}

SRP_HOT_PATH void ViperRouter::append_rewrite(
    wire::Bytes& out, std::span<const std::uint8_t> bytes, const Front& front,
    bool token_reversible) {
  const std::span<const std::uint8_t> rest = bytes.subspan(front.consumed);
  SRP_ALLOC_OK(out.insert(out.end(), rest.begin(), rest.end()));
  const SegmentView& seg = front.segment;
  core::SegmentFlags flags;
  flags.dib = seg.tos.drop_if_blocked;
  flags.vnt = front.return_info.empty();
  append_segment_raw(out, front.return_port, seg.tos, flags,
                     token_reversible ? seg.token
                                      : std::span<const std::uint8_t>{},
                     front.return_info);
}

SRP_HOT_PATH std::optional<ViperRouter::TokenDecision>
ViperRouter::admit_token(const SegmentView& seg, std::size_t packet_bytes) {
  if (!config_.require_tokens || authority_ == nullptr) {
    // Enforcement disabled: echo any supplied token into the trailer so
    // the receiver can reuse it on the return route.
    return TokenDecision{0, !seg.token.empty()};
  }
  if (seg.token.empty()) {
    ++stats_.dropped_unauthorized;
    count_token_outcome(obs::TokenOutcome::kRejected);
    return std::nullopt;
  }

  const std::optional<tokens::TokenCache::Entry> entry =
      token_cache_.lookup(seg.token);
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
        entry->body.port == seg.port ||
        (seg.flags.rpf && entry->body.reverse_ok);
    if (!port_ok || core::priority_rank(seg.tos.priority) >
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
    if (token_cache_.charge(seg.token, packet_bytes, *ledger_) !=
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
  // The XTEA decrypt + MAC check runs when the completion event fires,
  // verify_delay after the miss.
  const std::uint64_t key = tokens::TokenCache::key_of(seg.token);
  if (!pending_verifies_.contains(key)) {
    // Verification slow path: one-time bookkeeping per distinct token
    // value, not per packet — the blessed allocations below amortize to
    // zero in steady state (pinned by tests/alloc_budget_test.cpp).
    SRP_ALLOC_OK(pending_verifies_.insert(key));
    SRP_ALLOC_OK(
        wire::Bytes token_copy(seg.token.begin(), seg.token.end()));
    const std::uint64_t first_packet_bytes = packet_bytes;
    // SRP_ALLOC_OK(verification completion event, once per token value)
    sim_.after(config_.verify_delay, [this, token_copy = std::move(token_copy),
                                      first_packet_bytes, key] {
      pending_verifies_.erase(key);
      const std::optional<tokens::TokenBody> body =
          authority_->open(config_.router_id, token_copy);
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

SRP_HOT_PATH void ViperRouter::forward_to_port(
    const net::Arrival& arrival, const Front& front, int physical_port,
    std::span<const std::uint8_t> bytes, const Ingress& ingress,
    bool was_blocked) {
  if (physical_port <= 0 || physical_port > port_count()) {
    ++stats_.dropped_no_port;
    return;
  }
  net::TxPort& out = port(physical_port);
  const SegmentView& seg = front.segment;

  const auto decision = admit_token(seg, bytes.size());
  if (!decision.has_value()) return;
  if (decision->extra_delay > 0 &&
      config_.uncached_policy == tokens::UncachedPolicy::kBlocking) {
    defer_blocked(arrival, physical_port, bytes, ingress,
                  decision->extra_delay);
    return;
  }
  const bool link_out = port_kind(physical_port) == PortKind::kLan;
  if (link_out && seg.port_info.size() < net::EthernetHeader::kWireSize) {
    ++stats_.dropped_malformed;
    return;
  }
  const obs::TokenOutcome outcome =
      was_blocked ? obs::TokenOutcome::kMissBlocking : decision->outcome;

  // The zero-copy rewrite into a recycled arena slab whose capacity is
  // warm: the next network's link header (the segment's portInfo) when the
  // egress is a LAN, the remainder, then this hop's return entry.
  net::PacketPtr derived = arena_.acquire();
  wire::Bytes& out_bytes = derived->bytes;
  // Sized once for the whole image, so filling never regrows the slab.
  SRP_ALLOC_OK(out_bytes.reserve(bytes.size() + seg.port_info.size() +
                                 front.return_info.size() + kRewriteSlack));
  if (link_out) {
    SRP_ALLOC_OK(out_bytes.insert(out_bytes.end(), seg.port_info.begin(),
                                  seg.port_info.end()));
  }
  append_rewrite(out_bytes, bytes, front, decision->reversible);

  // forward_timing is pure; computed here so the telemetry stamp can
  // carry the hop's departure time before the MTU cut decides its fate.
  const ForwardTiming timing =
      forward_timing(arrival, front.consumed, physical_port);
  if (telemetry_enabled_ && arrival.packet->telemetry) {
    stamp_telemetry(out_bytes, arrival, physical_port, &out, timing, outcome);
  }

  bool truncated = false;
  const std::size_t mtu = out.config().mtu_bytes;
  if (out_bytes.size() > mtu) {
    // Cut-through discovers oversize mid-transmission; the packet is cut
    // and a truncation mark (an illegal segment) is appended (§2).
    static constexpr std::size_t kMarkWire = 4;
    SIRPENT_INVARIANT(mtu >= kMarkWire);
    SRP_ALLOC_OK(out_bytes.resize(mtu - kMarkWire));  // shrinks
    const core::HeaderSegment mark = core::HeaderSegment::truncation_marker();
    append_segment_raw(out_bytes, mark.port, mark.tos, mark.flags, {}, {});
    truncated = true;
    ++stats_.truncated_forwards;
    // A truncated forward is cut exactly to the output MTU with the mark as
    // its final segment — "not a legal Sirpent header segment".
    SIRPENT_ENSURES(out_bytes.size() == mtu);
  }

  // Packet::derive()'s bookkeeping, applied to the slab.
  const net::Packet& src = *arrival.packet;
  derived->id = src.id;
  derived->created = src.created;
  derived->flow = src.flow;
  derived->hops = src.hops + 1;
  derived->trace_id = src.trace_id;
  derived->route_digest = src.route_digest;
  derived->telemetry = src.telemetry;
  derived->parent = arrival.packet;
  derived->settled = std::max(arrival.tail, src.settled);
  derived->truncated = truncated;
  derived->last_in_port = arrival.in_port;
  // Feed-forward load info rides one hop: stamped by the upstream shaper,
  // read by this router's congested-port monitor (paper §2.2).
  derived->feedforward = src.feedforward;

  record_forward(arrival, front, physical_port, bytes, timing, outcome,
                 decision->account);
  const net::TxMeta meta = meta_for(seg.tos);
  // The shaper lookahead is the only consumer of the next-hop peek, so
  // the second segment is never read when no congestion layer is attached.
  if (shaper_ && shaper_(physical_port, peek_next_port(bytes, front.consumed),
                         derived, meta, timing.earliest)) {
    return;  // congestion layer took custody
  }
  out.enqueue(std::move(derived), meta, timing.earliest);
}

void ViperRouter::defer_blocked(const net::Arrival& arrival,
                                int physical_port,
                                std::span<const std::uint8_t> bytes,
                                const Ingress& ingress, sim::Time delay) {
  // Retry once the verification has landed in the cache (the packet is
  // fully buffered by then).  Copying the image for the deferral is the
  // price of the kBlocking policy, not of the steady-state forward path;
  // the retry re-parses its front from the copy.
  wire::Bytes image(bytes.begin(), bytes.end());
  wire::Bytes return_info(ingress.return_info.begin(),
                          ingress.return_info.end());
  sim_.after(delay, [this, arrival, physical_port,
                     link_framed = ingress.link_framed,
                     given_return = ingress.given_return,
                     return_port = ingress.return_port,
                     image = std::move(image),
                     return_info = std::move(return_info)] {
    const Ingress again{link_framed, given_return, return_port, return_info};
    LinkScratch link;
    Front front;
    // These bytes parsed before the deferral; they parse again.
    if (!parse_front(arrival, image, again, link, front)) return;
    forward_to_port(arrival, front, physical_port, image, again,
            /*was_blocked=*/true);
  });
}

void ViperRouter::forward_into_tunnel(const net::Arrival& arrival,
                                      const Front& front,
                                      const TunnelTransmit& transmit,
                                      std::span<const std::uint8_t> bytes) {
  const SegmentView& seg = front.segment;
  const auto decision = admit_token(seg, bytes.size());
  if (!decision.has_value()) return;
  // Encapsulated image: exactly what a physical forward would put on the
  // wire, minus framing.
  wire::Bytes encap;
  encap.reserve(bytes.size() + front.return_info.size() + kRewriteSlack);
  append_rewrite(encap, bytes, front, decision->reversible);
  // Tunnel hops are store-and-forward by construction; the hop closes
  // when the encapsulated image is handed to the tunnel transmit hook.
  ForwardTiming timing;
  timing.decision = arrival.tail;
  timing.earliest = std::max(arrival.tail, sim_.now());
  if (telemetry_enabled_ && arrival.packet->telemetry) {
    // No TxPort to sample; the record still pins the hop's identity and
    // times.
    stamp_telemetry(encap, arrival, seg.port, nullptr, timing,
                    decision->outcome);
  }
  record_forward(arrival, front, seg.port, bytes, timing, decision->outcome,
                 decision->account);
  transmit(wire::Bytes(seg.port_info.begin(), seg.port_info.end()),
           std::move(encap), seg.tos);
}

SRP_HOT_PATH void ViperRouter::record_forward(
    const net::Arrival& arrival, const Front& front, int out_port,
    std::span<const std::uint8_t> bytes, const ForwardTiming& timing,
    obs::TokenOutcome outcome, std::uint32_t account) {
  ++stats_.forwarded;
  if (obs_hop_latency_ != nullptr) {
    obs_hop_latency_->record(
        static_cast<std::uint64_t>(timing.earliest - arrival.head));
  }
  const net::Packet& src = *arrival.packet;
  if (obs_flow_ != nullptr) {
    obs::FlowSample sample;
    sample.route_digest = src.route_digest;
    sample.packet_id = src.id;
    sample.trace_id = src.trace_id;
    sample.account = account;
    sample.tos_class = front.segment.tos.priority;
    sample.cut_through = timing.cut_through;
    sample.in_port = static_cast<std::uint16_t>(arrival.in_port);
    sample.out_port = static_cast<std::uint16_t>(out_port);
    // The admitted byte count — the same value admit_token charged, which
    // is what makes per-account roll-ups reconcile with the ledger.
    sample.bytes = static_cast<std::uint32_t>(bytes.size());
    sample.now = timing.earliest;
    // Link header + first segment, exactly as received: the excerpt
    // source for sampled-packet capture.
    sample.header = bytes.first(std::min(front.consumed, bytes.size()));
    obs_flow_->on_forward(sample);
  }
  if (obs_recorder_ != nullptr && src.trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = src.trace_id;
    span.hop = src.hops;
    span.kind = obs::SpanKind::kHop;
    span.token = outcome;
    span.cut_through = timing.cut_through;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.out_port = static_cast<std::uint16_t>(out_port);
    span.start = arrival.head;
    span.decision = timing.decision;
    span.end = timing.earliest;
    span.set_component(name());
    obs_recorder_->record(span);
  }
}

void ViperRouter::emit_to_port(int out_port, net::PacketPtr packet,
                               net::TxMeta meta, sim::Time earliest_start) {
  port(out_port).enqueue(std::move(packet), meta, earliest_start);
}

SRP_HOT_PATH void ViperRouter::send_control(
    int port_index, std::span<const std::uint8_t> payload,
    std::uint8_t priority) {
  // The one-segment control route is built once; its image is encoded
  // straight into a recycled arena slab.
  core::TypeOfService& tos = control_route_.segments.front().tos;
  tos.priority = priority;
  net::PacketPtr packet = arena_.acquire();
  SRP_ALLOC_OK(wire::Writer w(
      std::move(packet->bytes),
      packet_wire_size(control_route_, payload.size())));
  encode_packet(w, control_route_, payload);
  packet->bytes = std::move(w).take();
  packet->created = sim_.now();
  port(port_index).enqueue(std::move(packet), meta_for(tos), 0);
}

}  // namespace srp::viper
