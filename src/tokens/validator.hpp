// Deterministic parallel token validation (paper §2.2).
//
// Full token verification — XTEA-CBC decrypt plus SipHash MAC check — is
// the one per-packet cost the paper concedes is "difficult to fully
// decrypt and check in real time".  Routers hide it behind the cache and
// the optimistic policy, but the verifications themselves are pure
// functions of (router_id, token bytes) against an immutable
// TokenAuthority, which makes them the ideal work to fan across the
// exec::WorkerPool: any schedule computes the same results, so the sim's
// event loop stays deterministic as long as results are *consumed* at the
// event times the serial code used — which is exactly what submit/await
// gives us.  ViperRouter submits at cache-miss time and awaits inside the
// verify-completion event it already scheduled; by then the worker has
// usually finished and await() costs a lock acquisition.
//
// The engine is itself a capability-annotated monitor; Clang
// -Wthread-safety proves the slot bookkeeping, TSan stresses it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "check/sync.hpp"
#include "exec/worker_pool.hpp"
#include "tokens/token.hpp"
#include "wire/buffer.hpp"

namespace srp::tokens {

class ValidationEngine {
 public:
  /// Handle for one submitted verification.
  using Ticket = std::uint64_t;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;   ///< awaited by the consumer
    std::uint64_t batches = 0;     ///< validate_batch() calls
  };

  /// @p pool may be nullptr: verifications then run inline at submit
  /// time, which is the serial reference behaviour the determinism tests
  /// compare against.  @p authority must outlive the engine and is only
  /// used through its const (pure) open() — safe from many threads.
  explicit ValidationEngine(const TokenAuthority& authority,
                            exec::WorkerPool* pool = nullptr);

  ValidationEngine(const ValidationEngine&) = delete;
  ValidationEngine& operator=(const ValidationEngine&) = delete;

  /// Destructor requires every submitted ticket to have been awaited (or
  /// the pool drained); ViperRouter guarantees this by awaiting in the
  /// verify event it schedules for every submit.
  ~ValidationEngine();

  /// Starts verifying @p token for @p router_id on the pool (or inline
  /// without one).  Returns the ticket to pass to await().
  Ticket submit(std::uint32_t router_id, wire::Bytes token)
      SRP_EXCLUDES(mutex_);

  /// Blocks until the ticket's verification finishes and returns its
  /// result, releasing the ticket.  Each ticket is awaited exactly once.
  std::optional<TokenBody> await(Ticket ticket) SRP_EXCLUDES(mutex_);

  /// Convenience for batch workloads (bench, tests): verifies every token
  /// and returns results in input order — byte-identical to a serial loop
  /// over TokenAuthority::open regardless of worker count.
  std::vector<std::optional<TokenBody>> validate_batch(
      std::uint32_t router_id, const std::vector<wire::Bytes>& batch)
      SRP_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const SRP_EXCLUDES(mutex_);
  [[nodiscard]] bool parallel() const { return pool_ != nullptr; }

 private:
  struct Slot {
    bool done = false;
    std::optional<TokenBody> result;
  };

  void finish(Ticket ticket, std::optional<TokenBody> result)
      SRP_EXCLUDES(mutex_);

  const TokenAuthority& authority_;
  exec::WorkerPool* pool_;

  mutable srp::Mutex mutex_;
  CondVar done_cv_;
  Ticket next_ticket_ SRP_GUARDED_BY(mutex_) = 1;
  std::unordered_map<Ticket, Slot> slots_ SRP_GUARDED_BY(mutex_);
  Stats stats_ SRP_GUARDED_BY(mutex_);
};

}  // namespace srp::tokens
