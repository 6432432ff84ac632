#include "flow/export.hpp"

#include <cinttypes>
#include <iterator>

#include "stats/format.hpp"

namespace srp::flow {
namespace {

using stats::append_fmt;

void append_record(std::string& out, const FlowRecord& r) {
  append_fmt(out, "{\"route\":\"%016" PRIx64 "\"", r.key.route_digest);
  append_fmt(out, ",\"account\":%" PRIu32, r.key.account);
  append_fmt(out, ",\"tos\":%u", r.key.tos_class);
  append_fmt(out, ",\"packets\":%" PRIu64, r.packets);
  append_fmt(out, ",\"bytes\":%" PRIu64, r.bytes);
  append_fmt(out, ",\"error_packets\":%" PRIu64, r.error_packets);
  append_fmt(out, ",\"error_bytes\":%" PRIu64, r.error_bytes);
  append_fmt(out, ",\"first_seen_ps\":%" PRId64, r.first_seen);
  append_fmt(out, ",\"last_seen_ps\":%" PRId64, r.last_seen);
  append_fmt(out, ",\"cut_through\":%" PRIu64, r.cut_through);
  append_fmt(out, ",\"store_forward\":%" PRIu64, r.store_forward);
  append_fmt(out, ",\"in_port\":%u", r.last_in_port);
  append_fmt(out, ",\"out_port\":%u", r.last_out_port);
  out += "}";
}

void append_accounts(std::string& out,
                     const std::map<std::uint32_t, AccountCharge>& accounts) {
  out += "{";
  bool first = true;
  for (const auto& [account, charge] : accounts) {
    if (!first) out += ",";
    first = false;
    append_fmt(out, "\"%" PRIu32 "\":{\"packets\":%" PRIu64
                    ",\"bytes\":%" PRIu64 "}",
               account, charge.packets, charge.bytes);
  }
  out += "}";
}

}  // namespace

std::string to_json(const FlowPlane& plane, std::size_t top_k) {
  std::string out;
  out += "{\"components\":{";
  bool first = true;
  for (const auto* observer : plane.observers()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    stats::append_json_escaped(out, observer->name());
    out += "\":{";
    const auto stats = observer->table().stats();
    append_fmt(out,
               "\"stats\":{\"recorded\":%" PRIu64 ",\"evictions\":%" PRIu64
               ",\"total_bytes\":%" PRIu64 ",\"monitored\":%zu"
               ",\"capacity\":%zu,\"sampled\":%" PRIu64 "}",
               stats.recorded, stats.evictions, stats.total_bytes,
               observer->table().size(), observer->table().capacity(),
               observer->sampled());
    out += ",\"flows\":[";
    bool first_flow = true;
    for (const auto& record : observer->table().top(top_k)) {
      if (!first_flow) out += ",";
      first_flow = false;
      append_record(out, record);
    }
    out += "],\"accounts\":";
    append_accounts(out, observer->charges());
    out += "}";
  }
  out += "},\"accounts\":";
  append_accounts(out, plane.account_rollup());
  out += "}";
  return out;
}

wire::Bytes to_ipfix(const std::vector<FlowRecord>& records,
                     std::uint32_t observation_domain,
                     std::uint32_t export_time_sec, std::uint32_t sequence) {
  // Field ids (enterprise-specific, kEnterpriseNumber) and octet widths,
  // in record order.
  static constexpr struct {
    std::uint16_t id;
    std::uint16_t len;
  } kFields[] = {
      {1, 8},   // routeDigest
      {2, 4},   // accountId
      {3, 1},   // typeOfService
      {4, 2},   // ingressPort
      {5, 2},   // egressPort
      {6, 8},   // packetTotalCount
      {7, 8},   // octetTotalCount
      {8, 8},   // packetCountError (space-saving bound)
      {9, 8},   // octetCountError (space-saving bound)
      {10, 8},  // flowStartPicoseconds (sim time)
      {11, 8},  // flowEndPicoseconds (sim time)
      {12, 8},  // cutThroughPacketCount
      {13, 8},  // storeForwardPacketCount
  };
  constexpr std::size_t kFieldCount = std::size(kFields);

  wire::Writer w(64 + records.size() * 81);
  // Message header (RFC 7011 §3.1); total length back-patched at the end.
  w.u16(10);  // version
  const std::size_t length_at = w.size();
  w.u16(0);
  w.u32(export_time_sec);
  w.u32(sequence);
  w.u32(observation_domain);

  // Template set (set id 2): one template describing the record layout.
  w.u16(2);
  const std::size_t template_len_at = w.size();
  w.u16(0);
  w.u16(kTemplateId);
  w.u16(static_cast<std::uint16_t>(kFieldCount));
  for (const auto& field : kFields) {
    w.u16(static_cast<std::uint16_t>(0x8000U | field.id));  // enterprise bit
    w.u16(field.len);
    w.u32(kEnterpriseNumber);
  }
  w.patch_u16(template_len_at,
              static_cast<std::uint16_t>(w.size() - (template_len_at - 2)));

  // Data set (set id = template id).
  w.u16(kTemplateId);
  const std::size_t data_len_at = w.size();
  w.u16(0);
  for (const auto& r : records) {
    w.u64(r.key.route_digest);
    w.u32(r.key.account);
    w.u8(r.key.tos_class);
    w.u16(r.last_in_port);
    w.u16(r.last_out_port);
    w.u64(r.packets);
    w.u64(r.bytes);
    w.u64(r.error_packets);
    w.u64(r.error_bytes);
    w.u64(static_cast<std::uint64_t>(r.first_seen));
    w.u64(static_cast<std::uint64_t>(r.last_seen));
    w.u64(r.cut_through);
    w.u64(r.store_forward);
  }
  w.patch_u16(data_len_at,
              static_cast<std::uint16_t>(w.size() - (data_len_at - 2)));
  w.patch_u16(length_at, static_cast<std::uint16_t>(w.size()));
  return std::move(w).take();
}

}  // namespace srp::flow
