#include "check/contract.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace srp::check {
namespace {

[[noreturn]] void default_handler(const Violation& v) {
  std::fprintf(stderr, "sirpent contract violation: %s(%s) at %s:%d in %s\n",
               v.kind, v.condition, v.file, v.line, v.function);
  std::abort();
}

ViolationHandler g_handler = nullptr;

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return std::exchange(g_handler, handler);
}

void violation(const Violation& v) {
  if (g_handler != nullptr) g_handler(v);
  default_handler(v);
}

}  // namespace srp::check
