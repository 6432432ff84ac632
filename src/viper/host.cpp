#include "viper/host.hpp"

#include <algorithm>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::viper {
namespace {

/// Decodes one in-band telemetry record onto @p path, counting payloads
/// that do not decode.
void add_postcard(std::vector<obs::HopTelemetry>& path,
                  std::span<const std::uint8_t> payload,
                  std::size_t& decode_errors) {
  const auto hop = obs::decode_hop_telemetry(payload);
  if (hop.has_value()) {
    path.push_back(*hop);
  } else {
    ++decode_errors;
  }
}

}  // namespace

ViperHost::ViperHost(sim::Simulator& sim, std::string name,
                     net::PacketFactory& packets)
    : net::PortedNode(sim, std::move(name)), packets_(packets) {}

void ViperHost::set_port_kind(int port_index, PortKind kind) {
  if (port_index <= 0) throw std::out_of_range("bad port index");
  if (static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    port_kinds_.resize(static_cast<std::size_t>(port_index) + 1,
                       PortKind::kPointToPoint);
  }
  port_kinds_[static_cast<std::size_t>(port_index)] = kind;
}

PortKind ViperHost::port_kind(int port_index) const {
  if (port_index <= 0 ||
      static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    return PortKind::kPointToPoint;
  }
  return port_kinds_[static_cast<std::size_t>(port_index)];
}

void ViperHost::bind(std::uint64_t endpoint_id, Handler handler) {
  endpoints_[endpoint_id] = std::move(handler);
}

void ViperHost::unbind(std::uint64_t endpoint_id) {
  endpoints_.erase(endpoint_id);
}

void ViperHost::set_default_handler(Handler handler) {
  default_handler_ = std::move(handler);
}

void ViperHost::set_path_telemetry(obs::PathCollector* collector,
                                   std::uint64_t seed,
                                   std::uint32_t sample_period) {
  collector_ = collector;
  marker_.emplace(seed, name(), sample_period);
}

void ViperHost::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    obs_e2e_latency_ = &observer.registry->histogram(
        "host." + stats::metric_component(name()) + ".e2e_latency_ps");
  } else {
    obs_e2e_latency_ = nullptr;
  }
  obs_recorder_ = observer.recorder;
  stamp_route_digest_ = observer.flow != nullptr;
  for (int p = 1; p <= port_count(); ++p) port(p).set_observer(observer);
}

std::uint64_t ViperHost::send(const core::SourceRoute& route,
                              std::span<const std::uint8_t> data,
                              const SendOptions& options) {
  // One exactly sized buffer: the first hop's link header (on a LAN), the
  // route, DataLen and the data.
  const std::size_t link_size =
      options.link.has_value() ? net::EthernetHeader::kWireSize : 0;
  wire::Writer w(link_size + packet_wire_size(route, data.size()));
  if (options.link.has_value()) {
    options.link->encode(w);
  }
  encode_packet(w, route, data);

  net::PacketPtr packet =
      packets_.make(std::move(w).take(), sim_.now(), options.flow);
  const std::uint64_t id = packet->id;
  // Mint the trace context at the origin: the packet id is already unique
  // per simulation, so it doubles as the trace id.
  if (obs_recorder_ != nullptr) packet->trace_id = id;
  // Flow accounting on: stamp the whole-route identity at the origin (the
  // only place that still sees the full source route); it rides the
  // packet's measurement side-band, constant along the path.
  if (stamp_route_digest_) packet->route_digest = route_digest(route);
  // Telemetry mark: sampled by the marker when wired (always advanced, so
  // a forced mark never phase-shifts later samples), else forced-only.
  packet->telemetry = marker_.has_value() ? marker_->mark(options.telemetry)
                                          : options.telemetry;
  if (packet->telemetry) ++stats_.telemetry_marked;
  ++stats_.sent;
  core::TypeOfService tos = options.tos;
  port(options.out_port)
      .enqueue(std::move(packet),
               net::TxMeta{core::priority_rank(tos.priority),
                           core::priority_preempts(tos.priority),
                           tos.drop_if_blocked},
               0);
  return id;
}

std::uint64_t ViperHost::reply(const Delivery& delivery,
                               std::span<const std::uint8_t> data,
                               core::TypeOfService tos) {
  core::SourceRoute route = delivery.return_route;
  for (auto& seg : route.segments) {
    seg.tos.priority = tos.priority;
    seg.tos.drop_if_blocked = tos.drop_if_blocked;
    seg.flags.dib = tos.drop_if_blocked;
  }
  SendOptions options;
  options.tos = tos;
  options.flow = delivery.flow;
  options.out_port = delivery.in_port;
  options.link = delivery.reply_link;
  return send(route, data, options);
}

SRP_SIM_VISIBLE void ViperHost::on_arrival(const net::Arrival& arrival) {
  // A host needs the whole packet (data + trailer): act at last-bit time.
  sim_.at(arrival.tail, [this, arrival] { process(arrival); });
}

bool ViperHost::take_reversed_body(std::span<const std::uint8_t> body,
                                   Delivery& delivery, bool& truncation_mark,
                                   std::size_t& telemetry_errors) {
  if (body.size() < 2) return false;
  const std::size_t data_len = static_cast<std::size_t>(body[0]) << 8 |
                               static_cast<std::size_t>(body[1]);
  if (body.size() - 2 < data_len) return false;  // truncated in flight
  const std::span<const std::uint8_t> trailer = body.subspan(2 + data_len);
  trailer_scratch_.assign(trailer.begin(), trailer.end());
  std::size_t count = 0;
  if (!reverse_trailer_in_place(trailer_scratch_, &count)) return false;

  const std::span<const std::uint8_t> data = body.subspan(2, data_len);
  delivery.data.assign(data.begin(), data.end());
  // The entries come out in return order: the route is the trailer's
  // legal segments, then the local segment, RPF set on all.
  std::vector<core::HeaderSegment>& segments = delivery.return_route.segments;
  segments.reserve(count + 1);
  for (std::size_t offset = 0; offset < trailer_scratch_.size();) {
    const SegmentView entry = decode_segment_view(trailer_scratch_, offset);
    offset += entry.wire_size;
    if (entry.is_telemetry_record()) {
      // Hop order — not trailer position — orders the path (sorted by the
      // caller), so newest-first records reconstruct it the same.
      add_postcard(delivery.path, entry.port_info, telemetry_errors);
    } else if (entry.flags.trm) {
      truncation_mark = true;
    } else {
      segments.push_back(to_segment(entry));
    }
  }
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  segments.push_back(std::move(local));
  delivery.return_route.set_rpf();
  return true;
}

void ViperHost::process(const net::Arrival& arrival) {
  const net::Packet& packet = *arrival.packet;
  const std::span<const std::uint8_t> bytes = packet.bytes;
  std::optional<net::EthernetHeader> link;
  std::optional<std::uint64_t> endpoint;
  Delivery delivery;
  bool truncation_mark = false;
  std::size_t telemetry_decode_errors = 0;
  try {
    wire::Reader r(bytes);
    if (port_kind(arrival.in_port) == PortKind::kLan) {
      link = net::EthernetHeader::decode(r);
    }
    const SegmentView local_seg = decode_segment_view(bytes, r.position());
    if (local_seg.port != core::kLocalPort || !local_seg.is_legal()) {
      ++stats_.misrouted;
      return;
    }
    endpoint = decode_endpoint_id(local_seg.port_info);
    const std::span<const std::uint8_t> body =
        bytes.subspan(r.position() + local_seg.wire_size);
    if (!take_reversed_body(body, delivery, truncation_mark,
                            telemetry_decode_errors)) {
      // Cut short in flight, or a trailer that does not parse: the
      // copying decode recovers what arrived, and a surviving TRM mark.
      wire::Reader rest(body);
      DeliveredBody fallback = decode_delivered_body(rest);
      core::TrailerInfo trailer =
          core::classify_trailer(std::move(fallback.trailer));
      delivery.data = std::move(fallback.data);
      for (const core::HeaderSegment& rec : trailer.telemetry) {
        add_postcard(delivery.path, rec.port_info, telemetry_decode_errors);
      }
      delivery.return_route = core::build_return_route(trailer.entries);
      truncation_mark = trailer.truncated;
    }
  } catch (const wire::CodecError&) {
    ++stats_.dropped_malformed;
    // A marked packet too damaged to parse still carries its postcard:
    // the last telemetry record names where it was last intact.
    if (packet.telemetry && collector_ != nullptr) {
      collector_->on_malformed_arrival(packet.bytes);
    }
    return;
  }

  if (endpoint.has_value() && *endpoint == kControlEndpoint) {
    ++stats_.control_received;
    if (control_handler_) {
      control_handler_(std::move(delivery.data), arrival.in_port);
    }
    return;
  }

  std::sort(delivery.path.begin(), delivery.path.end(),
            [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
              return a.hop < b.hop;
            });
  // A reply along this route must terminate at the origin host's local
  // port, marked RPF so routers honour reverse-charged tokens.
  SIRPENT_ENSURES(!delivery.return_route.empty() &&
                  delivery.return_route.segments.back().port ==
                      core::kLocalPort);
  if (link.has_value()) delivery.reply_link = link->reversed();
  delivery.truncated = truncation_mark || packet.effectively_truncated();
  delivery.endpoint = endpoint.value_or(0);
  delivery.packet_id = packet.id;
  delivery.flow = packet.flow;
  delivery.hops = packet.hops;
  delivery.sent_at = packet.created;
  delivery.delivered_at = sim_.now();
  delivery.in_port = arrival.in_port;

  ++stats_.delivered;
  if (delivery.truncated) ++stats_.truncated_received;

  if (obs_e2e_latency_ != nullptr) {
    obs_e2e_latency_->record(
        static_cast<std::uint64_t>(delivery.delivered_at - delivery.sent_at));
  }
  if (obs_recorder_ != nullptr && packet.trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = packet.trace_id;
    span.hop = packet.hops;
    span.kind = obs::SpanKind::kDeliver;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.start = delivery.sent_at;
    span.decision = arrival.head;
    span.end = delivery.delivered_at;
    span.set_component(name());
    obs_recorder_->record(span);
  }
  if (packet.telemetry && collector_ != nullptr) {
    obs::DeliveredTelemetry meta;
    meta.trace_id = packet.trace_id;
    meta.packet_id = packet.id;
    meta.sent_at = delivery.sent_at;
    meta.delivered_at = delivery.delivered_at;
    meta.truncated = delivery.truncated;
    collector_->on_delivery(meta, delivery.path, telemetry_decode_errors);
  }

  if (endpoint.has_value()) {
    const auto it = endpoints_.find(*endpoint);
    if (it != endpoints_.end()) {
      it->second(delivery);
      return;
    }
    ++stats_.unknown_endpoint;
  }
  if (default_handler_) {
    default_handler_(delivery);
  }
}

}  // namespace srp::viper
