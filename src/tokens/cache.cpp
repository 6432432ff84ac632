#include "tokens/cache.hpp"

#include <algorithm>
#include <vector>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::tokens {

SRP_HOT_PATH std::optional<TokenCache::Entry> TokenCache::lookup(
    std::span<const std::uint8_t> token) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(key_of(token));
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++it->second.hits;
  // A cached entry is always a completed verification: exactly one of
  // valid / flagged ("subsequent packets using this token are blocked").
  SIRPENT_ENSURES(it->second.valid != it->second.flagged);
  return it->second;
}

TokenCache::Entry TokenCache::store(std::span<const std::uint8_t> token,
                                    std::optional<TokenBody> body) {
  return store_and_settle(token, std::move(body), 0, nullptr).entry;
}

TokenCache::SettleOutcome TokenCache::store_and_settle(
    std::span<const std::uint8_t> token, std::optional<TokenBody> body,
    std::uint64_t optimistic_bytes, Ledger* ledger) {
  SIRPENT_EXPECTS(optimistic_bytes == 0 || ledger != nullptr);
  SettleOutcome outcome;
  std::uint32_t account = 0;
  bool ledger_charge = false;
  {
    MutexLock lock(mutex_);
    Entry& e = entries_[key_of(token)];
    TokenEvent event;
    event.type = body.has_value() ? TokenEvent::Type::kVerifyOk
                                  : TokenEvent::Type::kVerifyBad;
    event.byte_limit = body.has_value() ? body->byte_limit : 0;
    event.settle_bytes = optimistic_bytes;
    TokenActions actions;
    // An entry fresh from operator[] is neither valid nor flagged; the
    // store transition overwrites the phase either way, so mapping it
    // through kValid-or-kFlagged via core_of would be wrong only for the
    // untouched default — hand the core the absent phase explicitly.
    TokenCoreState core =
        (e.valid || e.flagged) ? core_of(e) : TokenCoreState{};
    core = step_(core, event, &actions);
    apply_core(e, core);
    if (body.has_value()) e.body = *body;
    SIRPENT_ENSURES(e.valid != e.flagged);
    if (actions.settle_charged > 0) {
      account = e.body.account;
      ledger_charge = actions.ledger_charge;
      outcome.settled = true;
    } else if (actions.settle_dropped && e.valid) {
      // The optimistic admit hit the byte limit: written off, counted
      // exactly as the packet-path reject would have been.
      ++stats_.limit_rejects;
    }
    update_gauge();
    outcome.entry = e;
  }
  // The ledger has its own monitor; charging outside our lock keeps the
  // critical section minimal and the lock order acyclic.
  if (ledger_charge) ledger->charge(account, optimistic_bytes);
  return outcome;
}

SRP_HOT_PATH TokenCache::ChargeResult TokenCache::charge(
    std::span<const std::uint8_t> token, std::uint64_t bytes,
    Ledger& ledger) {
  std::uint32_t account = 0;
  bool ledger_charge = false;
  ChargeResult result = ChargeResult::kUnknown;
  {
    MutexLock lock(mutex_);
    const auto it = entries_.find(key_of(token));
    if (it == entries_.end()) return ChargeResult::kUnknown;
    Entry& entry = it->second;
    SIRPENT_EXPECTS(entry.valid != entry.flagged);
    TokenEvent event;
    event.type = TokenEvent::Type::kCharge;
    event.bytes = bytes;
    TokenActions actions;
    const TokenCoreState core = step_(core_of(entry), event, &actions);
    apply_core(entry, core);
    result = actions.charge_result;
    switch (result) {
      case ChargeResult::kFlagged:
        ++stats_.flagged_rejects;
        break;
      case ChargeResult::kLimitExhausted:
        ++stats_.limit_rejects;
        break;
      case ChargeResult::kCharged:
        account = entry.body.account;
        ledger_charge = actions.ledger_charge;
        break;
      case ChargeResult::kUnknown:
        break;
    }
  }
  // The ledger has its own monitor; charging outside our lock keeps the
  // critical section minimal and the lock order acyclic.
  if (ledger_charge) ledger.charge(account, bytes);
  return result;
}

std::size_t TokenCache::poison(std::uint64_t selector, bool flag) {
  MutexLock lock(mutex_);
  if (entries_.empty()) return 0;
  // Select the victim by sorted key, not by unordered_map iteration
  // order: the bucket walk varies across standard libraries and hash
  // seeds, which would make fault scenarios replay differently on
  // different toolchains (srp-lint determinism pass).
  std::vector<std::uint64_t> keys;
  keys.reserve(entries_.size());
  // SRP_ORDER_OK(keys are sorted below before any order-dependent use)
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  const auto it = entries_.find(keys[selector % keys.size()]);
  TokenEvent event;
  event.type = flag ? TokenEvent::Type::kPoisonFlag
                    : TokenEvent::Type::kPoisonForget;
  TokenActions actions;
  const TokenCoreState core = step_(core_of(it->second), event, &actions);
  if (actions.erase) {
    entries_.erase(it);
  } else {
    apply_core(it->second, core);
    SIRPENT_ENSURES(it->second.valid != it->second.flagged);
  }
  update_gauge();
  return 1;
}

TokenCache::Stats TokenCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t TokenCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void TokenCache::set_occupancy_gauge(stats::Gauge* gauge) {
  MutexLock lock(mutex_);
  occupancy_gauge_ = gauge;
  update_gauge();
}

void TokenCache::set_step_for_test(TokenStepFn step) {
  MutexLock lock(mutex_);
  step_ = step;
}

}  // namespace srp::tokens
