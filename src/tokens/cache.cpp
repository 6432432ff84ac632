#include "tokens/cache.hpp"

#include <algorithm>
#include <vector>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::tokens {

SRP_HOT_PATH std::optional<TokenCache::Entry> TokenCache::lookup(
    std::span<const std::uint8_t> token) {
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
    if (actions.ledger_charge) ledger->charge(e.body.account, optimistic_bytes);
    outcome.settled = true;
  } else if (actions.settle_dropped && e.valid) {
    // The optimistic admit hit the byte limit: written off, counted
    // exactly as the packet-path reject would have been.
    ++stats_.limit_rejects;
  }
  update_gauge();
  outcome.entry = e;
  return outcome;
}

SRP_HOT_PATH TokenCache::ChargeResult TokenCache::charge(
    std::span<const std::uint8_t> token, std::uint64_t bytes,
    Ledger& ledger) {
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
  switch (actions.charge_result) {
    case ChargeResult::kFlagged:
      ++stats_.flagged_rejects;
      break;
    case ChargeResult::kLimitExhausted:
      ++stats_.limit_rejects;
      break;
    case ChargeResult::kCharged:
      if (actions.ledger_charge) ledger.charge(entry.body.account, bytes);
      break;
    case ChargeResult::kUnknown:
      break;
  }
  return actions.charge_result;
}

std::size_t TokenCache::poison(std::uint64_t selector, bool flag) {
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

}  // namespace srp::tokens
