// Contract checking for the Sirpent data path.
//
// Sirpent deliberately carries no internetwork checksum or hop count; the
// implementation's defense against corrupted headers, bad trailer reversal
// and token misuse is the code itself being provably well-behaved.  These
// macros state the invariants the paper relies on, machine-checked in Debug
// and sanitizer builds and compiled to nothing in Release:
//
//   SIRPENT_EXPECTS(cond)    precondition at function entry
//   SIRPENT_ENSURES(cond)    postcondition before returning
//   SIRPENT_INVARIANT(cond)  internal consistency mid-function
//
// Checking is controlled by SIRPENT_CONTRACTS_ENABLED, which the build
// system defines to 1 for Debug and sanitizer builds and 0 otherwise (see
// the SIRPENT_CONTRACTS CMake option).  When disabled the condition is not
// evaluated — contract expressions must therefore be side-effect free.
//
// A violated contract calls the installed violation handler (default:
// print and abort).  Tests install a throwing handler to assert that
// contracts actually fire; see tests/contract_test.cpp.
#pragma once

#ifndef SIRPENT_CONTRACTS_ENABLED
#ifdef NDEBUG
#define SIRPENT_CONTRACTS_ENABLED 0
#else
#define SIRPENT_CONTRACTS_ENABLED 1
#endif
#endif

namespace srp::check {

/// What a violated contract reports to the handler.
struct Violation {
  const char* kind;       ///< "EXPECTS", "ENSURES" or "INVARIANT"
  const char* condition;  ///< stringized condition text
  const char* file;
  int line;
  const char* function;
};

/// Handler invoked on contract violation.  Must not return normally: it
/// either terminates the process (the default) or throws (test harnesses).
using ViolationHandler = void (*)(const Violation&);

/// Installs @p handler, returning the previous one.  Passing nullptr
/// restores the default abort handler.
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Reports a violation to the current handler and terminates the process
/// if the handler improperly returns.
[[noreturn]] void violation(const Violation& v);

namespace detail {

[[noreturn]] inline void fail(const char* kind, const char* condition,
                              const char* file, int line,
                              const char* function) {
  violation(Violation{kind, condition, file, line, function});
}

}  // namespace detail
}  // namespace srp::check

#if SIRPENT_CONTRACTS_ENABLED

#define SIRPENT_CONTRACT_CHECK_(kind, cond)                                  \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::srp::check::detail::fail(kind, #cond, __FILE__, __LINE__, __func__); \
    }                                                                        \
  } while (false)

#define SIRPENT_EXPECTS(cond) SIRPENT_CONTRACT_CHECK_("EXPECTS", cond)
#define SIRPENT_ENSURES(cond) SIRPENT_CONTRACT_CHECK_("ENSURES", cond)
#define SIRPENT_INVARIANT(cond) SIRPENT_CONTRACT_CHECK_("INVARIANT", cond)

#else

#define SIRPENT_EXPECTS(cond) static_cast<void>(0)
#define SIRPENT_ENSURES(cond) static_cast<void>(0)
#define SIRPENT_INVARIANT(cond) static_cast<void>(0)

#endif
