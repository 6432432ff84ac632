// Router-side token cache and accounting (paper §2.1–2.2).
//
// "Because the token is an encrypted capability that may be difficult to
// fully decrypt and check in real time before the packet is forwarded, the
// router retains a cached version of the token such that it can check and
// authorize packet forwarding in real time from the cached version."
// Cache entries are keyed by a hash of the encrypted value, hold the
// decoded authorization, are flagged on invalid tokens ("subsequent packets
// using this token are then blocked"), and accumulate the per-account
// packet/byte counts the paper charges through them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>

#include "crypto/siphash.hpp"
#include "stats/registry.hpp"
#include "tokens/token.hpp"
#include "tokens/token_core.hpp"

namespace srp::tokens {

/// Uncached-token handling policies (paper §2.1): optimistic forwards the
/// first packet while verification completes; blocking holds the packet for
/// the verification time; drop discards it.
enum class UncachedPolicy { kOptimistic, kBlocking, kDrop };

/// Per-account usage totals.
struct AccountUsage {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  bool operator==(const AccountUsage&) const = default;
};

/// Accounting ledger: account id -> usage.  Shared by the routers of one
/// administrative domain.
class Ledger {
 public:
  void charge(std::uint32_t account, std::uint64_t bytes) {
    auto& u = usage_[account];
    ++u.packets;
    u.bytes += bytes;
  }

  [[nodiscard]] AccountUsage usage(std::uint32_t account) const {
    const auto it = usage_.find(account);
    return it == usage_.end() ? AccountUsage{} : it->second;
  }

  [[nodiscard]] std::map<std::uint32_t, AccountUsage> all() const {
    return usage_;
  }

 private:
  std::map<std::uint32_t, AccountUsage> usage_;
};

/// One router's token cache.
class TokenCache {
 public:
  struct Entry {
    bool valid = false;      ///< token verified good
    bool flagged = false;    ///< token verified *bad*: block its users
    TokenBody body;          ///< meaningful only when valid
    std::uint64_t bytes_charged = 0;  ///< against body.byte_limit
    std::uint64_t hits = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flagged_rejects = 0;
    std::uint64_t limit_rejects = 0;
  };

  /// Outcome of charge().  The enum itself lives in token_core.hpp (the
  /// pure transition core shared with the model checker); this alias
  /// keeps the historical `TokenCache::ChargeResult` spelling valid.
  using ChargeResult = tokens::ChargeResult;

  /// Cache key: hash of the encrypted token bytes (paper: "using the
  /// encrypted value as the key").
  static std::uint64_t key_of(std::span<const std::uint8_t> token) {
    return crypto::siphash24({0x53697270656e7421ULL, 0x5669706572546f6bULL},
                             token);
  }

  /// Looks up a token; counts hit/miss.  Returns a snapshot of the entry.
  std::optional<Entry> lookup(std::span<const std::uint8_t> token);

  /// Records the outcome of a (slow) verification.  nullopt body = invalid
  /// token: the entry is flagged so subsequent users are blocked.  Returns
  /// a snapshot of the stored entry.
  Entry store(std::span<const std::uint8_t> token,
              std::optional<TokenBody> body);

  struct SettleOutcome {
    Entry entry;           ///< snapshot after the store
    bool settled = false;  ///< the optimistic admit was charged
  };

  /// store() plus settlement of an optimistic admit in one step: when
  /// @p optimistic_bytes > 0 and the token verified good, the
  /// optimistically forwarded first packet is charged — exactly once —
  /// against the entry and @p ledger, or written off if the byte limit is
  /// already exhausted (counted as a limit reject).  The router's
  /// verification-completion path uses this.
  SettleOutcome store_and_settle(std::span<const std::uint8_t> token,
                                 std::optional<TokenBody> body,
                                 std::uint64_t optimistic_bytes,
                                 Ledger* ledger);

  /// Charges @p bytes against the token's entry, then (on success) its
  /// account in @p ledger.  kCharged means the packet may be forwarded;
  /// every other result rejects it.
  ChargeResult charge(std::span<const std::uint8_t> token,
                      std::uint64_t bytes, Ledger& ledger);

  /// Fault injection (src/fault): perturbs the cache entry selected by
  /// @p selector (an arbitrary 64-bit draw; the entry at selector mod size
  /// is hit).  With @p flag false the entry is forgotten — the next user of
  /// that token takes a miss and re-verifies; with @p flag true the entry
  /// is marked bad, blocking subsequent users until end-to-end recovery
  /// reroutes around this router.  Returns the number of entries affected
  /// (0 when the cache is empty).
  std::size_t poison(std::uint64_t selector, bool flag);

  [[nodiscard]] Stats stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Mirrors the entry count into @p gauge on every mutation (observability
  /// layer; typically `tokens.<router>.cache_entries`).  nullptr detaches.
  void set_occupancy_gauge(stats::Gauge* gauge) {
    occupancy_gauge_ = gauge;
    update_gauge();
  }

  /// Model-checker regression hook (tests/mc_regress): replaces the
  /// transition core with a deliberately broken variant from mc::mutants
  /// so counterexamples found by the explorer replay in the real sim.
  void set_step_for_test(TokenStepFn step) { step_ = step; }

 private:
  /// The core-state view of @p entry (entries in the map have completed
  /// verification: exactly one of valid / flagged).
  static TokenCoreState core_of(const Entry& entry) {
    TokenCoreState core;
    core.phase = entry.flagged ? EntryPhase::kFlagged : EntryPhase::kValid;
    core.bytes_charged = entry.bytes_charged;
    core.byte_limit = entry.body.byte_limit;
    return core;
  }

  /// Writes the core-state slice back into @p entry.
  static void apply_core(Entry& entry, const TokenCoreState& core) {
    entry.valid = core.phase == EntryPhase::kValid;
    entry.flagged = core.phase == EntryPhase::kFlagged;
    entry.bytes_charged = core.bytes_charged;
  }

  void update_gauge() {
    if (occupancy_gauge_ != nullptr) {
      occupancy_gauge_->set(static_cast<std::int64_t>(entries_.size()));
    }
  }

  std::unordered_map<std::uint64_t, Entry> entries_;
  Stats stats_;
  stats::Gauge* occupancy_gauge_ = nullptr;
  TokenStepFn step_ = &token_step;
};

}  // namespace srp::tokens
