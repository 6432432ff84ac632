// Heap-allocation counters fed by the benchmark binary's replacement
// global operator new (alloc_count.cpp).  Every allocation the simulator
// library makes goes through it, so a phase's cost is the difference of two
// readings.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocReading {
  std::uint64_t count = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

[[nodiscard]] AllocReading alloc_reading();

}  // namespace perfbench
