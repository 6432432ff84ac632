#include "transport/vmtp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "check/analysis.hpp"
#include "check/contract.hpp"

// full_mask / missing_mask and both step functions now live in
// transport/txn_core.hpp so the model checker shares them (DESIGN.md §10).
namespace srp::vmtp {
namespace {

/// Inserts @p key, absent from @p map, into a node recycled from @p spare
/// when it holds one: the mapped value is then the spare's, for the caller
/// to reset, and keeps its buffers' capacity.
template <typename Map>
typename Map::iterator insert_recycled(Map& map,
                                       typename Map::node_type& spare,
                                       const typename Map::key_type& key) {
  if (spare.empty()) {
    const auto [it, inserted] = map.try_emplace(key);
    SIRPENT_INVARIANT(inserted);
    return it;
  }
  spare.key() = key;
  auto result = map.insert(std::move(spare));
  SIRPENT_INVARIANT(result.inserted);
  return result.position;
}

}  // namespace

VmtpEndpoint::VmtpEndpoint(sim::Simulator& sim, viper::ViperHost& host,
                           std::uint64_t entity_id, VmtpConfig config)
    : sim_(sim), host_(host), entity_(entity_id), config_(config),
      clock_(sim, config.clock_offset) {
  host_.bind(entity_,
             [this](const viper::Delivery& d) { on_delivery(d); });
}

VmtpEndpoint::~VmtpEndpoint() {
  host_.unbind(entity_);
  for (auto& [txn, state] : outstanding_) {
    if (state.rto_timer != 0) sim_.cancel(state.rto_timer);
    if (state.response.gap_timer != 0) sim_.cancel(state.response.gap_timer);
  }
  for (auto& [key, rx] : inbound_) {
    if (rx.gap_timer != 0) sim_.cancel(rx.gap_timer);
  }
}

void VmtpEndpoint::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    const std::string base = "vmtp." + stats::metric_component(host_.name());
    obs_rtt_ = &observer.registry->histogram(base + ".rtt_ps");
    observer.registry->counter(base + ".timeouts", stats_.timeouts);
    observer.registry->counter(base + ".failures", stats_.failures);
    observer.registry->counter(base + ".retransmits",
                               stats_.retransmitted_packets);
  }
  obs_recorder_ = observer.recorder;
}

VmtpEndpoint::GroupRx::GroupRx() = default;
VmtpEndpoint::TxState::TxState() = default;

void VmtpEndpoint::GroupRx::reset() {
  arrived.clear();
  parts.fill(Extent{});
  received_mask = 0;
  group_size = 0;
  gap_timer = 0;
}

void VmtpEndpoint::GroupRx::accept(std::uint8_t index,
                                   std::span<const std::uint8_t> payload) {
  SIRPENT_EXPECTS(index < parts.size());  // decode caps groups at 32
  parts[index] = Extent{static_cast<std::uint32_t>(arrived.size()),
                        static_cast<std::uint32_t>(payload.size())};
  arrived.insert(arrived.end(), payload.begin(), payload.end());
}

void VmtpEndpoint::GroupRx::assemble(wire::Bytes& out) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < group_size; ++i) total += parts[i].size;
  out.clear();
  out.reserve(total);
  for (std::size_t i = 0; i < group_size; ++i) {
    const auto first = arrived.begin() + parts[i].offset;
    out.insert(out.end(), first, first + parts[i].size);
  }
}

std::size_t VmtpEndpoint::part_count(std::size_t bytes) const {
  if (bytes == 0) return 1;
  return (bytes + config_.max_data_per_packet - 1) /
         config_.max_data_per_packet;
}

std::uint8_t VmtpEndpoint::group_size_for(std::size_t bytes) const {
  const std::size_t parts = part_count(bytes);
  if (parts > kMaxGroup) {
    throw std::invalid_argument(
        "VMTP: message exceeds one packet group (" + std::to_string(parts) +
        " > " + std::to_string(kMaxGroup) + " packets)");
  }
  return static_cast<std::uint8_t>(parts);
}

void VmtpEndpoint::invoke(const dir::IssuedRoute& route,
                          std::uint64_t server_entity,
                          std::span<const std::uint8_t> request,
                          ResponseCallback callback) {
  const std::uint32_t txn = next_transaction_++;
  const std::uint8_t group_size = group_size_for(request.size());
  // Assigned over a finished transaction's state, so the route and the
  // buffers keep their capacity.
  TxState& state = insert_recycled(outstanding_, spare_txn_, txn)->second;
  state.route = route;
  state.server = server_entity;
  state.request.assign(request.begin(), request.end());
  state.callback = std::move(callback);
  state.started = sim_.now();
  state.retries = 0;
  state.rto_timer = 0;
  state.response.reset();
  ++stats_.requests_sent;

  Header base;
  base.src_entity = entity_;
  base.dst_entity = server_entity;
  base.transaction = txn;
  base.type = PacketType::kRequest;
  base.group_size = group_size;
  base.timestamp = clock_.now_ms();
  send_group(base, state.request, full_mask(base.group_size), &state.route,
             nullptr);
  arm_rto(txn);
}

void VmtpEndpoint::send_group(const Header& base,
                              std::span<const std::uint8_t> message,
                              std::uint32_t mask,
                              const dir::IssuedRoute* route,
                              const viper::ReplyPath* reply_via) {
  sim::Time t = sim_.now();
  for (std::size_t i = 0; i < base.group_size; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    Header h = base;
    h.index = static_cast<std::uint8_t>(i);
    const std::size_t offset = i * config_.max_data_per_packet;
    const std::span<const std::uint8_t> part = message.subspan(
        offset, std::min(config_.max_data_per_packet, message.size() - offset));
    const std::size_t wire_size = Header::kWireSize + part.size();
    send_one(h, part, route, reply_via, t);
    ++stats_.data_packets_sent;
    if (config_.send_rate_bps > 0.0) {
      // "rate-based flow control is used between packets within a packet
      // group to avoid overruns" (§4.3).
      t += sim::from_seconds(static_cast<double>(wire_size) * 8.0 /
                             config_.send_rate_bps);
    }
  }
}

SRP_HOT_PATH void VmtpEndpoint::send_one(
    const Header& header, std::span<const std::uint8_t> payload,
    const dir::IssuedRoute* route, const viper::ReplyPath* reply_via,
    sim::Time when) {
  SIRPENT_INVARIANT(route != nullptr || reply_via != nullptr);
  viper::SendOptions options;
  options.tos.priority = config_.priority;
  if (route != nullptr) {
    options.flow = header.transaction;
    options.out_port = route->host_out_port;
    options.link = route->first_hop_link;
  }
  if (when > sim_.now()) {
    // A paced send waits for its time with copies of its own: the route or
    // reply path it was given may change before then.
    SRP_ALLOC_OK(wire::Bytes packet = encode_transport_packet(header, payload));
    if (route != nullptr) {
      SRP_ALLOC_OK(sim_.at(when, [this, source_route = route->route,
                                  packet = std::move(packet), options] {
        host_.send(source_route, packet, options);
      }));
    } else {
      SRP_ALLOC_OK(sim_.at(when, [this, via = *reply_via,
                                  packet = std::move(packet), options,
                                  peer = header.dst_entity] {
        host_.reply(via, packet, options.tos, peer);
      }));
    }
    return;
  }
  // Due now: encoded into the endpoint's buffer and sent on the borrowed
  // route, or replied along the reply path to the peer's transport entity.
  encode_transport_packet(header, payload, tx_packet_);
  if (route != nullptr) {
    host_.send(route->route, tx_packet_, options);
  } else {
    host_.reply(*reply_via, tx_packet_, options.tos, header.dst_entity);
  }
}

bool VmtpEndpoint::lifetime_ok(const Header& header) {
  if (header.timestamp == kInvalidTimestamp) return true;
  const std::int64_t age = clock_.age_ms(header.timestamp);
  if (age > config_.mpl_ms || age < -config_.future_skew_ms) {
    ++stats_.mpl_discards;
    return false;
  }
  return true;
}

SRP_HOT_PATH void VmtpEndpoint::on_delivery(
    const viper::Delivery& delivery) {
  const auto packet = decode_transport_packet(delivery.data);
  if (!packet.has_value()) {
    // Damaged (e.g. header corruption somewhere upstream, or truncation):
    // Sirpent carries no network checksum, so this is where it shows up.
    ++stats_.checksum_drops;
    return;
  }
  if (packet->header.dst_entity != entity_) {
    // Misdelivery: the 64-bit transport id is "unique independent of the
    // (inter)network layer addressing" and catches it (§4.1).
    ++stats_.misdeliveries;
    return;
  }
  if (!lifetime_ok(packet->header)) return;

  switch (packet->header.type) {
    case PacketType::kRequest:
      handle_request_packet(*packet, delivery);
      break;
    case PacketType::kResponse:
      handle_response_packet(*packet, delivery);
      break;
    case PacketType::kNack:
      handle_nack(*packet, delivery);
      break;
  }
}

void VmtpEndpoint::arm_gap_timer(GroupRx& rx, std::uint64_t peer,
                                 std::uint32_t transaction, PacketType kind) {
  if (rx.gap_timer != 0) return;
  rx.gap_timer = sim_.after(config_.gap_timeout, [this, peer, transaction,
                                                  kind] {
    GroupRx* rx_now = nullptr;
    if (kind == PacketType::kRequest) {
      const auto it = inbound_.find({peer, transaction});
      if (it != inbound_.end()) rx_now = &it->second;
    } else {
      const auto it = outstanding_.find(transaction);
      if (it != outstanding_.end()) rx_now = &it->second.response;
    }
    if (rx_now == nullptr) return;
    rx_now->gap_timer = 0;
    RxEvent event;
    event.type = RxEvent::Type::kGapFire;
    RxActions actions;
    hooks_.rx(RxState{rx_now->group_size, rx_now->received_mask}, event,
              &actions);
    if (!actions.send_nack) return;  // group completed in the meantime
    // Selective retransmission: tell the sender what we have (§4.3).
    Header nack;
    nack.src_entity = entity_;
    nack.dst_entity = peer;
    nack.transaction = transaction;
    nack.type = PacketType::kNack;
    nack.group_size = rx_now->group_size;
    nack.mask = actions.nack_mask;
    nack.timestamp = clock_.now_ms();
    ++stats_.nacks_sent;
    send_one(nack, {}, nullptr, &rx_now->reply_via, sim_.now());
    if (actions.arm_gap) arm_gap_timer(*rx_now, peer, transaction, kind);
  });
}

SRP_HOT_PATH void VmtpEndpoint::handle_request_packet(
    const TransportPacket& packet, const viper::Delivery& delivery) {
  const Header& h = packet.header;
  const PeerTxn key{h.src_entity, h.transaction};

  const auto done = served_.find(key);
  if (done != served_.end()) {
    // Duplicate of a completed transaction: re-send the response.
    ++stats_.duplicate_requests;
    Header base;
    base.src_entity = entity_;
    base.dst_entity = h.src_entity;
    base.transaction = h.transaction;
    base.type = PacketType::kResponse;
    base.group_size =
        static_cast<std::uint8_t>(part_count(done->second.size()));
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    send_group(base, done->second, full_mask(base.group_size), nullptr,
               &delivery);
    return;
  }

  auto it = inbound_.find(key);
  const bool fresh = it == inbound_.end();
  RxEvent event;
  event.type = RxEvent::Type::kPart;
  event.index = h.index;
  event.group_size = h.group_size;
  RxActions actions;
  const RxState core = hooks_.rx(
      fresh ? RxState{}
            : RxState{it->second.group_size, it->second.received_mask},
      event, &actions);
  if (!actions.part_ok) return;  // malformed or mixed group
  if (fresh) {
    it = insert_recycled(inbound_, spare_group_, key);
    it->second.reset();
  }
  GroupRx& rx = it->second;
  rx.group_size = core.group_size;
  rx.received_mask = core.mask;
  if (actions.accept) rx.accept(h.index, packet.payload);

  if (actions.complete) {
    if (rx.gap_timer != 0) sim_.cancel(rx.gap_timer);
    rx.assemble(request_);
    spare_group_ = inbound_.extract(it);
    complete_request(h.src_entity, h.transaction, delivery);
    return;
  }
  rx.reply_via = delivery;
  if (actions.arm_gap) {
    arm_gap_timer(rx, h.src_entity, h.transaction, PacketType::kRequest);
  }
}

void VmtpEndpoint::complete_request(std::uint64_t peer,
                                    std::uint32_t transaction,
                                    const viper::Delivery& via) {
  ++stats_.requests_served;
  wire::Bytes response = handler_ ? handler_(request_, via) : wire::Bytes{};
  const std::uint8_t group_size = group_size_for(response.size());

  Header base;
  base.src_entity = entity_;
  base.dst_entity = peer;
  base.transaction = transaction;
  base.type = PacketType::kResponse;
  base.group_size = group_size;
  base.timestamp = clock_.now_ms();
  const wire::Bytes& kept =
      remember_served({peer, transaction}, std::move(response));
  send_group(base, kept, full_mask(base.group_size), nullptr, &via);
}

const wire::Bytes& VmtpEndpoint::remember_served(const PeerTxn& key,
                                                 wire::Bytes response) {
  decltype(served_)::node_type evicted;
  if (served_order_.size() < kServedCap) {
    served_order_.push_back(key);
  } else {
    // Full: the oldest entry makes room, and its node holds the new one.
    PeerTxn& oldest = served_order_[served_oldest_];
    evicted = served_.extract(oldest);
    oldest = key;
    served_oldest_ = (served_oldest_ + 1) % kServedCap;
  }
  wire::Bytes& kept = insert_recycled(served_, evicted, key)->second;
  kept = std::move(response);
  return kept;
}

SRP_HOT_PATH void VmtpEndpoint::handle_response_packet(
    const TransportPacket& packet, const viper::Delivery& delivery) {
  const Header& h = packet.header;
  const auto it = outstanding_.find(h.transaction);
  if (it == outstanding_.end()) return;  // late duplicate
  TxState& st = it->second;
  if (h.src_entity != st.server) {
    ++stats_.misdeliveries;
    return;
  }
  GroupRx& rx = st.response;
  RxEvent event;
  event.type = RxEvent::Type::kPart;
  event.index = h.index;
  event.group_size = h.group_size;
  RxActions actions;
  const RxState core =
      hooks_.rx(RxState{rx.group_size, rx.received_mask}, event, &actions);
  if (!actions.part_ok) return;
  rx.group_size = core.group_size;
  rx.received_mask = core.mask;
  if (actions.accept) rx.accept(h.index, packet.payload);

  if (actions.complete) {
    TxnEvent done;
    done.type = TxnEvent::Type::kResponseComplete;
    TxnActions txn_actions;
    const TxnState txn =
        hooks_.txn(TxnConfig{config_.max_retries},
                   TxnState{TxnPhase::kAwaitingResponse, st.retries}, done,
                   &txn_actions);
    st.retries = txn.retries;
    if (!txn_actions.deliver) return;
    Result result;
    result.ok = true;
    // SRP_ALLOC_OK(the response handed to the caller is a buffer of its own)
    rx.assemble(result.response);
    result.rtt = sim_.now() - st.started;
    result.retransmissions = st.retries;
    observe_rtt(result.rtt);
    if (on_rtt_) on_rtt_(result.rtt);
    ++stats_.responses_received;
    finish(h.transaction, std::move(result));
    return;
  }
  rx.reply_via = delivery;
  if (actions.arm_gap) {
    arm_gap_timer(rx, st.server, h.transaction, PacketType::kResponse);
  }
}

void VmtpEndpoint::handle_nack(const TransportPacket& packet,
                               const viper::Delivery& delivery) {
  const Header& h = packet.header;
  ++stats_.nacks_received;

  // Client side: peer wants missing request packets.
  const auto out = outstanding_.find(h.transaction);
  if (out != outstanding_.end() && out->second.server == h.src_entity) {
    TxState& st = out->second;
    TxnEvent event;
    event.type = TxnEvent::Type::kNack;
    event.group_size = h.group_size;
    event.mask = h.mask;
    TxnActions actions;
    const TxnState txn =
        hooks_.txn(TxnConfig{config_.max_retries},
                   TxnState{TxnPhase::kAwaitingResponse, st.retries}, event,
                   &actions);
    st.retries = txn.retries;
    Header base;
    base.src_entity = entity_;
    base.dst_entity = st.server;
    base.transaction = h.transaction;
    base.type = PacketType::kRequest;
    base.group_size = static_cast<std::uint8_t>(part_count(st.request.size()));
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(actions.resend_mask));
    send_group(base, st.request, actions.resend_mask, &st.route, nullptr);
    return;
  }

  // Server side: peer wants missing response packets (stateless: the
  // served memory plus the shared missing-bitmask helper decide).
  const std::uint32_t missing = missing_mask(h.mask, h.group_size);
  const auto done = served_.find({h.src_entity, h.transaction});
  if (done != served_.end()) {
    Header base;
    base.src_entity = entity_;
    base.dst_entity = h.src_entity;
    base.transaction = h.transaction;
    base.type = PacketType::kResponse;
    base.group_size =
        static_cast<std::uint8_t>(part_count(done->second.size()));
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(missing));
    send_group(base, done->second, missing, nullptr, &delivery);
  }
}

void VmtpEndpoint::arm_rto(std::uint32_t transaction) {
  const auto it = outstanding_.find(transaction);
  if (it == outstanding_.end()) return;
  it->second.rto_timer =
      sim_.after(rto(), [this, transaction] { on_rto(transaction); });
}

void VmtpEndpoint::on_rto(std::uint32_t transaction) {
  const auto it = outstanding_.find(transaction);
  if (it == outstanding_.end()) return;
  TxState& st = it->second;
  st.rto_timer = 0;
  TxnEvent event;
  event.type = TxnEvent::Type::kRtoFire;
  event.group_size = static_cast<std::uint8_t>(part_count(st.request.size()));
  TxnActions actions;
  const TxnState txn =
      hooks_.txn(TxnConfig{config_.max_retries},
                 TxnState{TxnPhase::kAwaitingResponse, st.retries}, event,
                 &actions);
  st.retries = txn.retries;
  if (actions.count_timeout) {
    ++stats_.timeouts;
  }
  if (actions.fail) {
    ++stats_.failures;
    if (on_failure_) on_failure_();
    Result result;
    result.ok = false;
    result.retransmissions = st.retries - 1;
    result.error = "transaction timed out";
    finish(transaction, std::move(result));
    return;
  }
  if (actions.resend_mask != 0) {
    Header base;
    base.src_entity = entity_;
    base.dst_entity = st.server;
    base.transaction = transaction;
    base.type = PacketType::kRequest;
    base.group_size = static_cast<std::uint8_t>(part_count(st.request.size()));
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(actions.resend_mask));
    send_group(base, st.request, actions.resend_mask, &st.route, nullptr);
  }
  if (actions.arm_rto) arm_rto(transaction);
}

void VmtpEndpoint::finish(std::uint32_t transaction, Result result) {
  const auto it = outstanding_.find(transaction);
  if (it == outstanding_.end()) return;
  TxState& st = it->second;
  if (st.rto_timer != 0) sim_.cancel(st.rto_timer);
  if (st.response.gap_timer != 0) sim_.cancel(st.response.gap_timer);
  if (obs_recorder_ != nullptr) {
    obs::SpanRecord span;
    span.trace_id = transaction;
    span.hop = static_cast<std::uint32_t>(st.retries);
    span.kind = obs::SpanKind::kTxn;
    span.start = st.started;
    span.decision = st.started;
    span.end = sim_.now();
    span.set_component(host_.name());
    obs_recorder_->record(span);
  }
  // The callback leaves the state before its node is recycled: a callback
  // that invokes again re-fills that node.
  ResponseCallback callback = std::move(st.callback);
  st.callback = nullptr;
  spare_txn_ = outstanding_.extract(it);
  if (callback) callback(std::move(result));
}

void VmtpEndpoint::observe_rtt(sim::Time rtt) {
  srtt_ = srtt_ == 0 ? rtt : (7 * srtt_ + rtt) / 8;
  if (obs_rtt_ != nullptr) obs_rtt_->record(static_cast<std::uint64_t>(rtt));
}

sim::Time VmtpEndpoint::rto() const {
  return std::max(config_.min_rto, 3 * srtt_);
}

}  // namespace srp::vmtp
