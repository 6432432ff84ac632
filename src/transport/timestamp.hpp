// Transport-layer creation timestamps (paper §4.2).
//
// Sirpent has no TTL: "we require that the transport layer include a
// creation timestamp in every transport protocol packet and require that
// the sender and receiver have roughly synchronized clocks."  VMTP's
// format: "a 32-bit timestamp ... the time in milliseconds since January
// 1, 1970, modulo 2^32", wrapping in roughly a month; "a timestamp value
// of 0 is reserved to mean that the timestamp is invalid".
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace srp::vmtp {

/// Reserved invalid timestamp ("for use by query operations when a machine
/// is booting before it knows the current time accurately").
inline constexpr std::uint32_t kInvalidTimestamp = 0;

/// Signed difference a - b on the 2^32 ring, in milliseconds.  Handles
/// wraparound: values within half the ring of each other compare sanely.
constexpr std::int64_t timestamp_diff_ms(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b);
}

/// A host's view of wall-clock time: simulated time plus a per-host offset
/// modelling imperfect clock synchronization (the paper's WWV-style
/// synchronization is "coarse", multiple seconds of skew are tolerated).
class HostClock {
 public:
  HostClock(sim::Simulator& sim, sim::Time offset = 0)
      : sim_(sim), offset_(offset) {}

  [[nodiscard]] sim::Time offset() const { return offset_; }

  /// Current 32-bit millisecond timestamp; never returns the reserved 0.
  [[nodiscard]] std::uint32_t now_ms() const {
    const auto ms = static_cast<std::uint64_t>(
        (sim_.now() + offset_) / sim::kMillisecond);
    const auto wrapped = static_cast<std::uint32_t>(ms);
    return wrapped == kInvalidTimestamp ? 1 : wrapped;
  }

  /// Age of @p stamp as seen by this clock (negative = from the future,
  /// i.e. the sender's clock runs ahead of ours).
  [[nodiscard]] std::int64_t age_ms(std::uint32_t stamp) const {
    return timestamp_diff_ms(now_ms(), stamp);
  }

 private:
  sim::Simulator& sim_;
  sim::Time offset_;
};

}  // namespace srp::vmtp
