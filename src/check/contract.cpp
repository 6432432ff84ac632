#include "check/contract.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace srp::check {
namespace {

[[noreturn]] void default_handler(const Violation& v) {
  std::fprintf(stderr, "sirpent contract violation: %s(%s) at %s:%d in %s\n",
               v.kind, v.condition, v.file, v.line, v.function);
  std::abort();
}

// The simulator is single-threaded, so the slot need not be atomic; it
// stays until the counter-substrate item of ROADMAP.md makes the atomics
// plain.
std::atomic<ViolationHandler> g_handler{nullptr};

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void violation(const Violation& v) {
  ViolationHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) handler(v);
  default_handler(v);
}

}  // namespace srp::check
