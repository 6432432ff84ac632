// Trailer reversal primitive (paper §2): viper::reverse_trailer_in_place
// walks a VIPER trailer's segment sizes and hands them to
// reverse_records_in_place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace srp::core {

/// Reverses the *order* of variable-length records inside @p buf without
/// changing any record's bytes, in O(1) extra space: record i (of size
/// sizes[i], records packed back to back) ends up at the position record
/// n-1-i occupied.  This is the paper's "entirely network-independent"
/// trailer reversal done on the wire image itself — segment reversal is
/// length-preserving, so the buffer size never changes and no copy of the
/// trailer is needed.  @p sizes must sum exactly to buf.size().
void reverse_records_in_place(std::span<std::uint8_t> buf,
                              std::span<const std::size_t> sizes);

}  // namespace srp::core
