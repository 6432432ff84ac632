#include "directory/introspect.hpp"

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "flow/export.hpp"
#include "stats/format.hpp"

namespace srp::obs {
namespace {

using stats::append_fmt;

void append_flow_record(std::string& out, const flow::FlowRecord& r) {
  append_fmt(out,
             "{\"route\":\"%016" PRIx64 "\",\"account\":%" PRIu32
             ",\"tos\":%u,\"packets\":%" PRIu64 ",\"bytes\":%" PRIu64
             ",\"error_bytes\":%" PRIu64 ",\"cut_through\":%" PRIu64
             ",\"store_forward\":%" PRIu64 ",\"in_port\":%u,\"out_port\":%u}",
             r.key.route_digest, r.key.account, r.key.tos_class, r.packets,
             r.bytes, r.error_bytes, r.cut_through, r.store_forward,
             r.last_in_port, r.last_out_port);
}

template <typename T>
std::vector<T*> by_name(const std::vector<T*>& nodes) {
  std::vector<T*> sorted = nodes;
  std::sort(sorted.begin(), sorted.end(),
            [](const T* a, const T* b) { return a->name() < b->name(); });
  return sorted;
}

}  // namespace

std::string Introspector::snapshot_json(sim::Time now) {
  std::string out;
  append_fmt(out, "{\"time_ps\":%" PRId64, now);

  out += ",\"routers\":{";
  bool first = true;
  for (viper::ViperRouter* router : by_name(fabric_.routers())) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    stats::append_json_escaped(out, router->name());
    out += "\":{";

    const auto& s = router->stats();
    append_fmt(out,
               "\"stats\":{\"received\":%" PRIu64 ",\"forwarded\":%" PRIu64
               ",\"dropped_no_port\":%" PRIu64
               ",\"dropped_unauthorized\":%" PRIu64
               ",\"truncated\":%" PRIu64 "}",
               s.received, s.forwarded, s.dropped_no_port,
               s.dropped_unauthorized, s.truncated_forwards);
    append_fmt(out, ",\"token_cache_entries\":%zu",
               router->token_cache().size());

    out += ",\"ports\":{";
    for (int p = 1; p <= router->port_count(); ++p) {
      const net::TxPort& port = router->port(p);
      if (p > 1) out += ",";
      append_fmt(out,
                 "\"%d\":{\"queue_packets\":%zu,\"queue_bytes\":%zu"
                 ",\"up\":%s,\"busy\":%s}",
                 p, port.queue_packets(), port.queue_bytes(),
                 port.is_up() ? "true" : "false",
                 port.busy() ? "true" : "false");
    }
    out += "}";

    if (cc::CongestionController* cc = fabric_.controller_of(*router)) {
      out += ",\"congestion\":[";
      bool first_flow = true;
      for (const auto& f : cc->flow_snapshots()) {
        if (!first_flow) out += ",";
        first_flow = false;
        append_fmt(out,
                   "{\"toward_router\":%" PRIu32 ",\"toward_port\":%u"
                   ",\"rate_bps\":%.1f,\"held_packets\":%zu"
                   ",\"held_bytes\":%zu,\"expires_ps\":%" PRId64 "}",
                   f.key.router_id, f.key.port, f.rate_bps, f.held_packets,
                   f.held_bytes, f.expires);
      }
      out += "]";
    }

    if (plane_ != nullptr) {
      if (const flow::FlowObserver* obs = plane_->observer(router->name())) {
        append_fmt(out, ",\"sampled\":%" PRIu64, obs->sampled());
        out += ",\"flows\":[";
        bool first_flow = true;
        for (const auto& record : obs->table().top(top_k_)) {
          if (!first_flow) out += ",";
          first_flow = false;
          append_flow_record(out, record);
        }
        out += "]";
      }
    }
    out += "}";
  }
  out += "}";

  out += ",\"hosts\":{";
  first = true;
  for (viper::ViperHost* host : by_name(fabric_.hosts())) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    stats::append_json_escaped(out, host->name());
    append_fmt(out,
               "\":{\"sent\":%" PRIu64 ",\"delivered\":%" PRIu64
               ",\"truncated\":%" PRIu64 "}",
               host->stats().sent, host->stats().delivered,
               host->stats().truncated_received);
  }
  out += "}";

  // Per-account reconciliation view: the flow plane's charge mirror next
  // to the authoritative ledger — equal by construction when every charging
  // router publishes into the plane.
  out += ",\"accounts\":{";
  const auto ledger = fabric_.ledger().all();
  const auto mirrored = plane_ != nullptr
                            ? plane_->account_rollup()
                            : std::map<std::uint32_t, flow::AccountCharge>{};
  first = true;
  for (const auto& [account, usage] : ledger) {
    if (!first) out += ",";
    first = false;
    const auto it = mirrored.find(account);
    const flow::AccountCharge charge =
        it != mirrored.end() ? it->second : flow::AccountCharge{};
    append_fmt(out,
               "\"%" PRIu32 "\":{\"ledger_packets\":%" PRIu64
               ",\"ledger_bytes\":%" PRIu64 ",\"flow_packets\":%" PRIu64
               ",\"flow_bytes\":%" PRIu64 "}",
               account, usage.packets, usage.bytes, charge.packets,
               charge.bytes);
  }
  out += "}}";
  return out;
}

}  // namespace srp::obs
