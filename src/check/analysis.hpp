// Annotation vocabulary for srp-lint (scripts/srp_lint.py).
//
// The linter enforces the three contracts no off-the-shelf tool checks —
// sim determinism, hot-path allocation freedom, and the lock/metric
// discipline — by reading these markers out of the source.  The macros
// deliberately compile to (almost) nothing: under Clang the function
// markers lower to [[clang::annotate]] so an AST frontend can see them
// too; under GCC they vanish.  The wrapper markers are plain expression
// passthroughs.  Either way the *lexical* form is the contract: srp-lint
// matches the macro names, so they must be spelled out, never hidden
// behind further macros.
//
//   SRP_SIM_VISIBLE   function outside the default sim-visible directory
//                     set whose behavior nevertheless feeds simulation
//                     state (scheduling decisions, packet contents,
//                     exported snapshots).  The determinism pass applies.
//
//   SRP_HOT_PATH      function on the per-packet forward path.  The
//                     allocation pass forbids operator new / malloc /
//                     allocating std container calls in its body unless
//                     the site is wrapped in SRP_ALLOC_OK(...).  Every
//                     blessed site is a known, counted allocation, pinned
//                     at runtime by tests/alloc_budget_test.cpp.
//
//   SRP_ALLOC_OK(...) expression/declaration passthrough blessing the
//                     allocation(s) inside it within an SRP_HOT_PATH
//                     body.  Use it to make a deliberate slow-path or
//                     per-packet allocation explicit and reviewable.
//
//   SRP_ORDER_OK(...) expression passthrough blessing iteration over an
//                     unordered container (or another order-dependent
//                     read) in sim-visible code: the author asserts the
//                     result does not leak iteration order into sim
//                     state or exported data (e.g. the values are
//                     accumulated commutatively or sorted afterwards).
//
// DESIGN.md §9 documents the passes, their guarantees, and when
// suppression is acceptable.
#pragma once

#if defined(__clang__)
#define SRP_ANALYSIS_ANNOTATE_(text) __attribute__((annotate(text)))
#else
#define SRP_ANALYSIS_ANNOTATE_(text)  // GCC: lexical marker only
#endif

#define SRP_SIM_VISIBLE SRP_ANALYSIS_ANNOTATE_("srp::sim_visible")
#define SRP_HOT_PATH SRP_ANALYSIS_ANNOTATE_("srp::hot_path")

#define SRP_ALLOC_OK(...) __VA_ARGS__
#define SRP_ORDER_OK(...) __VA_ARGS__
