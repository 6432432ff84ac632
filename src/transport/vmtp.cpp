#include "transport/vmtp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "check/contract.hpp"

// full_mask / missing_mask and both step functions now live in
// transport/txn_core.hpp so the model checker shares them (DESIGN.md §10).
namespace srp::vmtp {

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

std::vector<wire::Bytes> VmtpEndpoint::split(
    std::span<const std::uint8_t> data) const {
  std::vector<wire::Bytes> parts;
  if (data.empty()) {
    parts.emplace_back();
    return parts;
  }
  for (std::size_t off = 0; off < data.size();
       off += config_.max_data_per_packet) {
    const std::size_t len =
        std::min(config_.max_data_per_packet, data.size() - off);
    const auto piece = data.subspan(off, len);
    parts.emplace_back(piece.begin(), piece.end());
  }
  if (parts.size() > config_.max_group) {
    throw std::invalid_argument(
        "VMTP: message exceeds one packet group (" +
        std::to_string(parts.size()) + " > " +
        std::to_string(config_.max_group) + " packets)");
  }
  return parts;
}

void VmtpEndpoint::invoke(const dir::IssuedRoute& route,
                          std::uint64_t server_entity,
                          std::span<const std::uint8_t> request,
                          ResponseCallback callback) {
  const std::uint32_t txn = next_transaction_++;
  TxState state;
  state.route = route;
  state.server = server_entity;
  state.request_parts = split(request);
  state.callback = std::move(callback);
  state.started = sim_.now();
  auto [it, inserted] = outstanding_.emplace(txn, std::move(state));
  SIRPENT_INVARIANT(inserted);
  ++stats_.requests_sent;

  Header base;
  base.src_entity = entity_;
  base.dst_entity = server_entity;
  base.transaction = txn;
  base.type = PacketType::kRequest;
  base.group_size = static_cast<std::uint8_t>(it->second.request_parts.size());
  base.timestamp = clock_.now_ms();
  send_group(base, it->second.request_parts, full_mask(base.group_size),
             &it->second.route, nullptr);
  arm_rto(txn);
}

void VmtpEndpoint::send_group(const Header& base,
                              const std::vector<wire::Bytes>& parts,
                              std::uint32_t mask,
                              const dir::IssuedRoute* route,
                              const viper::Delivery* reply_via) {
  sim::Time t = sim_.now();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if ((mask & (1u << i)) == 0) continue;
    Header h = base;
    h.index = static_cast<std::uint8_t>(i);
    const std::size_t wire_size = Header::kWireSize + parts[i].size();
    send_one(h, parts[i], route, reply_via, t);
    ++stats_.data_packets_sent;
    if (config_.send_rate_bps > 0.0) {
      // "rate-based flow control is used between packets within a packet
      // group to avoid overruns" (§4.3).
      t += sim::from_seconds(static_cast<double>(wire_size) * 8.0 /
                             config_.send_rate_bps);
    }
  }
}

void VmtpEndpoint::send_one(const Header& header, const wire::Bytes& payload,
                            const dir::IssuedRoute* route,
                            const viper::Delivery* reply_via,
                            sim::Time when) {
  wire::Bytes packet = encode_transport_packet(header, payload);
  if (route != nullptr) {
    core::SourceRoute source_route = route->route;
    viper::SendOptions options;
    options.tos.priority = config_.priority;
    options.flow = header.transaction;
    options.out_port = route->host_out_port;
    options.link = route->first_hop_link;
    auto do_send = [this, source_route = std::move(source_route),
                    packet = std::move(packet), options] {
      host_.send(source_route, packet, options);
    };
    if (when <= sim_.now()) {
      do_send();
    } else {
      sim_.at(when, std::move(do_send));
    }
    return;
  }
  SIRPENT_INVARIANT(reply_via != nullptr);
  viper::Delivery via = *reply_via;
  // Address the reply to the peer's transport entity: Sirpent's local
  // port-0 segment doubles as intra-host addressing (§2.2), so the entity
  // id is the endpoint id at the peer host.
  if (!via.return_route.segments.empty()) {
    core::HeaderSegment& last = via.return_route.segments.back();
    last.port_info = viper::encode_endpoint_id(header.dst_entity);
    last.flags.vnt = false;
  }
  core::TypeOfService tos;
  tos.priority = config_.priority;
  auto do_send = [this, via = std::move(via), packet = std::move(packet),
                  tos] { host_.reply(via, packet, tos); };
  if (when <= sim_.now()) {
    do_send();
  } else {
    sim_.at(when, std::move(do_send));
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

void VmtpEndpoint::on_delivery(const viper::Delivery& delivery) {
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
    if (!rx_now->reply_via.has_value()) return;
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
    send_one(nack, {}, nullptr, &*rx_now->reply_via, sim_.now());
    if (actions.arm_gap) arm_gap_timer(*rx_now, peer, transaction, kind);
  });
}

void VmtpEndpoint::handle_request_packet(const TransportPacket& packet,
                                         const viper::Delivery& delivery) {
  const Header& h = packet.header;
  const auto key = std::make_pair(h.src_entity, h.transaction);

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
        static_cast<std::uint8_t>(done->second.response_parts.size());
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    send_group(base, done->second.response_parts, full_mask(base.group_size),
               nullptr, &delivery);
    return;
  }

  GroupRx& rx = inbound_[key];
  RxEvent event;
  event.type = RxEvent::Type::kPart;
  event.index = h.index;
  event.group_size = h.group_size;
  RxActions actions;
  const RxState core =
      hooks_.rx(RxState{rx.group_size, rx.received_mask}, event, &actions);
  if (!actions.part_ok) return;  // malformed or mixed group
  if (rx.parts.empty()) {
    rx.parts.resize(core.group_size);
    rx.first_at = sim_.now();
  }
  rx.group_size = core.group_size;
  rx.received_mask = core.mask;
  if (actions.accept) {
    rx.parts[h.index].assign(packet.payload.begin(), packet.payload.end());
  }
  rx.reply_via = delivery;

  if (actions.complete) {
    if (rx.gap_timer != 0) sim_.cancel(rx.gap_timer);
    complete_request(h.src_entity, h.transaction, rx);
    inbound_.erase(key);
    return;
  }
  if (actions.arm_gap) {
    arm_gap_timer(rx, h.src_entity, h.transaction, PacketType::kRequest);
  }
}

void VmtpEndpoint::complete_request(std::uint64_t peer,
                                    std::uint32_t transaction,
                                    const GroupRx& rx) {
  wire::Bytes request;
  for (const auto& part : rx.parts) {
    request.insert(request.end(), part.begin(), part.end());
  }
  ++stats_.requests_served;
  const viper::Delivery& via = *rx.reply_via;
  wire::Bytes response =
      handler_ ? handler_(request, via) : wire::Bytes{};
  std::vector<wire::Bytes> parts = split(response);

  Header base;
  base.src_entity = entity_;
  base.dst_entity = peer;
  base.transaction = transaction;
  base.type = PacketType::kResponse;
  base.group_size = static_cast<std::uint8_t>(parts.size());
  base.timestamp = clock_.now_ms();

  served_[{peer, transaction}] = Served{parts};
  served_order_.emplace_back(peer, transaction);
  constexpr std::size_t kServedCap = 4096;
  while (served_order_.size() > kServedCap) {
    served_.erase(served_order_.front());
    served_order_.pop_front();
  }

  send_group(base, parts, full_mask(base.group_size), nullptr, &via);
}

void VmtpEndpoint::handle_response_packet(const TransportPacket& packet,
                                          const viper::Delivery& delivery) {
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
  if (rx.parts.empty()) {
    rx.parts.resize(core.group_size);
    rx.first_at = sim_.now();
  }
  rx.group_size = core.group_size;
  rx.received_mask = core.mask;
  if (actions.accept) {
    rx.parts[h.index].assign(packet.payload.begin(), packet.payload.end());
  }
  rx.reply_via = delivery;

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
    for (const auto& part : rx.parts) {
      result.response.insert(result.response.end(), part.begin(),
                             part.end());
    }
    result.rtt = sim_.now() - st.started;
    result.retransmissions = st.retries;
    observe_rtt(result.rtt);
    if (on_rtt_) on_rtt_(result.rtt);
    ++stats_.responses_received;
    finish(h.transaction, std::move(result));
    return;
  }
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
    base.group_size = static_cast<std::uint8_t>(st.request_parts.size());
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(actions.resend_mask));
    send_group(base, st.request_parts, actions.resend_mask, &st.route,
               nullptr);
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
        static_cast<std::uint8_t>(done->second.response_parts.size());
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(missing));
    send_group(base, done->second.response_parts, missing, nullptr,
               &delivery);
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
  event.group_size = static_cast<std::uint8_t>(st.request_parts.size());
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
    base.group_size = static_cast<std::uint8_t>(st.request_parts.size());
    base.flags = kFlagRetransmission;
    base.timestamp = clock_.now_ms();
    stats_.retransmitted_packets +=
        static_cast<std::uint64_t>(std::popcount(actions.resend_mask));
    send_group(base, st.request_parts, actions.resend_mask, &st.route,
               nullptr);
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
  ResponseCallback callback = std::move(st.callback);
  outstanding_.erase(it);
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
