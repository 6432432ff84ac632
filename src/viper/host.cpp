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
    : ViperNode(sim, std::move(name), /*whole_packet=*/true),
      packets_(packets) {}

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
  telemetry_sampler_.emplace(seed, "int." + std::string(name()),
                             sample_period);
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
  // One image in a recycled slab of the network's arena, its buffer sized
  // once: the first hop's link header (on a LAN), the route, DataLen and
  // the data.  The id is stamped only once the encode has succeeded.
  const std::size_t link_size =
      options.link.has_value() ? net::EthernetHeader::kWireSize : 0;
  net::PacketPtr packet = packets_.blank();
  wire::Writer w(std::move(packet->bytes),
                 link_size + packet_wire_size(route, data.size()));
  if (options.link.has_value()) {
    options.link->encode(w);
  }
  encode_packet(w, route, data);
  packet->bytes = std::move(w).take();
  packets_.stamp(*packet, sim_.now(), options.flow);
  const std::uint64_t id = packet->id;
  // Mint the trace context at the origin: the packet id is already unique
  // per simulation, so it doubles as the trace id.
  if (obs_recorder_ != nullptr) packet->trace_id = id;
  // Flow accounting on: stamp the whole-route identity at the origin (the
  // only place that still sees the full source route); it rides the
  // packet's measurement side-band, constant along the path.
  if (stamp_route_digest_) {
    packet->route_digest = route_digest(route, digest_scratch_);
  }
  // Telemetry mark: the sampler, when wired, advances on every send — a
  // forced mark must not phase-shift later samples — so it is drawn
  // before the forced flag is ORed in.
  const bool sampled =
      telemetry_sampler_.has_value() && telemetry_sampler_->sample();
  packet->telemetry = sampled || options.telemetry;
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

SRP_HOT_PATH std::uint64_t ViperHost::reply(
    const ReplyPath& via, std::span<const std::uint8_t> data,
    core::TypeOfService tos, std::optional<std::uint64_t> endpoint) {
  // Assigned over the previous reply's route: the segments and their byte
  // fields keep their capacity, so a warm reply copies without allocating.
  core::SourceRoute& route = reply_route_;
  route = via.return_route;
  for (auto& seg : route.segments) {
    seg.tos.priority = tos.priority;
    seg.tos.drop_if_blocked = tos.drop_if_blocked;
    seg.flags.dib = tos.drop_if_blocked;
  }
  if (endpoint.has_value() && !route.segments.empty()) {
    // Sirpent's local port-0 segment doubles as intra-host addressing
    // (§2.2): the id is written over the local segment's portInfo.
    core::HeaderSegment& last = route.segments.back();
    encode_endpoint_id(*endpoint, last.port_info);
    last.flags.vnt = false;
  }
  SendOptions options;
  options.tos = tos;
  options.flow = via.flow;
  options.out_port = via.in_port;
  options.link = via.reply_link;
  return send(route, data, options);
}

SRP_SIM_VISIBLE void ViperHost::on_arrival(const net::Arrival& arrival) {
  // A host needs the whole packet (data + trailer).  Its ports deliver at
  // the tail; a direct call before the tail waits for it.
  if (sim_.now() < arrival.tail) {
    sim_.at(arrival.tail, [this, arrival] { process(arrival); });
    return;
  }
  process(arrival);
}

void ViperHost::process(const net::Arrival& arrival) {
  const net::Packet& packet = *arrival.packet;
  const std::span<const std::uint8_t> bytes = packet.bytes;
  const auto drop_malformed = [&] {
    ++stats_.dropped_malformed;
    // A marked packet too damaged to parse still carries its postcard:
    // the last telemetry record names where it was last intact.
    if (packet.telemetry && collector_ != nullptr) {
      collector_->on_malformed_arrival(packet.bytes);
    }
  };
  std::optional<net::EthernetHeader> link;
  std::size_t offset = 0;
  if (port_kind(arrival.in_port) == PortKind::kLan) {
    if (bytes.size() < net::EthernetHeader::kWireSize) {
      drop_malformed();
      return;
    }
    wire::Reader r(bytes.first(net::EthernetHeader::kWireSize));
    link = net::EthernetHeader::decode(r);
    offset = net::EthernetHeader::kWireSize;
  }
  const std::optional<SegmentView> local_seg = parse_segment(bytes, offset);
  if (!local_seg) {
    drop_malformed();
    return;
  }
  if (local_seg->port != core::kLocalPort || !local_seg->is_legal()) {
    ++stats_.misrouted;
    return;
  }
  const std::optional<std::uint64_t> endpoint =
      decode_endpoint_id(local_seg->port_info);
  const std::optional<BodyView> body =
      parse_body(bytes.subspan(offset + local_seg->wire_size));
  if (!body) {
    drop_malformed();
    return;
  }

  if (endpoint.has_value() && *endpoint == kControlEndpoint) {
    ++stats_.control_received;
    if (control_handler_) control_handler_(body->data, arrival.in_port);
    return;
  }

  // Every field of the kept Delivery is overwritten below; its vectors
  // keep their capacity from packet to packet.
  Delivery& delivery = delivery_;
  delivery.data.assign(body->data.begin(), body->data.end());
  delivery.path.clear();
  // The return route is the trailer's legal entries reversed, then the
  // local segment, RPF set on all; truncation marks and telemetry records
  // are filtered out as the trailer is walked.  Entries are assigned over
  // the previous delivery's, so their byte fields keep their capacity too.
  std::vector<core::HeaderSegment>& segments = delivery.return_route.segments;
  segments.reserve(body->trailer_segments + 1);
  std::size_t entries = 0;
  bool truncation_mark = false;
  std::size_t telemetry_decode_errors = 0;
  for (std::size_t at = 0; at < body->trailer.size();) {
    // parse_body has validated every trailer segment.
    const SegmentView entry = *parse_segment(body->trailer, at);
    at += entry.wire_size;
    if (entry.is_telemetry_record()) {
      add_postcard(delivery.path, entry.port_info, telemetry_decode_errors);
    } else if (entry.flags.trm) {
      truncation_mark = true;
    } else {
      if (entries == segments.size()) segments.emplace_back();
      assign_segment(segments[entries++], entry);
    }
  }
  const auto end = segments.begin() + static_cast<std::ptrdiff_t>(entries);
  std::reverse(segments.begin(), end);
  if (entries == segments.size()) segments.emplace_back();
  core::HeaderSegment& local = segments[entries];
  local.port = core::kLocalPort;
  local.tos = core::TypeOfService{};
  local.flags = core::SegmentFlags{};
  local.flags.vnt = true;
  local.token.clear();
  local.port_info.clear();
  segments.resize(entries + 1);  // drops what a longer route left
  delivery.return_route.set_rpf();

  // Hop number — not trailer position — orders the path; the records
  // enter the sort newest first.
  std::reverse(delivery.path.begin(), delivery.path.end());
  std::sort(delivery.path.begin(), delivery.path.end(),
            [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
              return a.hop < b.hop;
            });
  // A reply along this route must terminate at the origin host's local
  // port, marked RPF so routers honour reverse-charged tokens.
  SIRPENT_ENSURES(!delivery.return_route.empty() &&
                  delivery.return_route.segments.back().port ==
                      core::kLocalPort);
  delivery.reply_link.reset();
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
