#include "core/trailer.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace srp::core {

void reverse_records_in_place(std::span<std::uint8_t> buf,
                              std::span<const std::size_t> sizes) {
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  SIRPENT_EXPECTS(total == buf.size());
  // Classic rotate-by-reversal: flip the whole buffer (record order is now
  // reversed but each record's bytes are backwards), then flip each record
  // back in place.  After the outer reversal, record n-1-i starts where the
  // suffix of length sizes[n-1] + ... + sizes[i+1] ends.
  std::reverse(buf.begin(), buf.end());
  std::size_t offset = 0;
  for (std::size_t i = sizes.size(); i-- > 0;) {
    std::reverse(buf.begin() + static_cast<std::ptrdiff_t>(offset),
                 buf.begin() + static_cast<std::ptrdiff_t>(offset + sizes[i]));
    offset += sizes[i];
  }
  SIRPENT_ENSURES(offset == buf.size());
}

}  // namespace srp::core
