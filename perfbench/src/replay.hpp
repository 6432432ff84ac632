// Prices the costs nested inside a shim-timed call by replaying inputs
// captured in the traced run through public functions in isolation.
#pragma once

#include "stats.hpp"
#include "tracer.hpp"
#include "world.hpp"

namespace perfbench {

/// Per-call wall costs, in ns.  A price is 0 when the run captured no input
/// for it (e.g. no tokens on a workload without token enforcement): only
/// inputs the traced run saw are priced.
struct Prices {
  double clock_ns = 0;            ///< one wall_ns() read (timer overhead)
  double schedule_pop_ns = 0;     ///< EventQueue::schedule + pop at the
                                  ///  captured pending-event depth
  double decode_view_ns = 0;      ///< decode_segment_view, router images
  double decode_copy_ns = 0;      ///< decode_segment, router images
  double trailer_reverse_ns = 0;  ///< reverse_trailer_in_place, host images
  double delivered_body_ns = 0;   ///< decode_delivered_body, host images
  double token_lookup_ns = 0;     ///< TokenCache::lookup, captured tokens
  double token_open_ns = 0;       ///< TokenAuthority::open, captured tokens
  double enqueue_ns = 0;          ///< TxPort::enqueue onto an idle port
  double port_events_router_ns = 0;  ///< the port's own events after an
                                     ///  enqueue with a cut-through bound
  double port_events_host_ns = 0;    ///< same, no bound (host egress)
  LogHistogram host_process;  ///< ViperHost receive: its deferred process
                              ///  event, per captured host image
};

[[nodiscard]] Prices price(const Tracer& tracer, World& world);

}  // namespace perfbench
