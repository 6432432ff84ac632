#include "mc/mutants.hpp"

#include "check/contract.hpp"

namespace srp::mc {
namespace {

using cc::ThrottleActions;
using cc::ThrottleConfig;
using cc::ThrottleEvent;
using cc::ThrottlePhase;
using cc::ThrottleState;
using tokens::ChargeResult;
using tokens::EntryPhase;
using tokens::TokenActions;
using tokens::TokenCoreState;
using tokens::TokenEvent;
using vmtp::RxActions;
using vmtp::RxEvent;
using vmtp::RxState;
using vmtp::TxnActions;
using vmtp::TxnConfig;
using vmtp::TxnEvent;
using vmtp::TxnState;

// --- vmtp mutants ---

/// Loses the mask update: parts are "accepted" but never recorded, so
/// groups can never complete.
RxState rx_mask_stuck(RxState state, const RxEvent& event,
                      RxActions* actions) {
  const RxState post = vmtp::rx_step(state, event, actions);
  if (event.type == RxEvent::Type::kPart && actions->accept) {
    RxState stuck = post;
    stuck.mask = state.mask;
    return stuck;
  }
  return post;
}

/// Ignores the selective mask and retransmits the whole group on NACK.
TxnState nack_resend_all(const TxnConfig& config, TxnState state,
                         const TxnEvent& event, TxnActions* actions) {
  const TxnState post = vmtp::txn_step(config, state, event, actions);
  if (event.type == TxnEvent::Type::kNack) {
    actions->resend_mask = vmtp::full_mask(event.group_size);
  }
  return post;
}

/// Treats damaged parts as clean — the checksum-less fast path the paper
/// explicitly bets against.
RxState accept_corrupted(RxState state, const RxEvent& event,
                         RxActions* actions) {
  RxEvent laundered = event;
  laundered.corrupted = false;
  return vmtp::rx_step(state, laundered, actions);
}

/// Completes the response group but forgets to hand it to the caller.
TxnState deliver_lost(const TxnConfig& config, TxnState state,
                      const TxnEvent& event, TxnActions* actions) {
  const TxnState post = vmtp::txn_step(config, state, event, actions);
  if (event.type == TxnEvent::Type::kResponseComplete) {
    actions->deliver = false;
  }
  return post;
}

// --- token mutants ---

/// Charges packets against a token that verified bad.
TokenCoreState flagged_charge(TokenCoreState state, const TokenEvent& event,
                              TokenActions* actions) {
  const TokenCoreState post = tokens::token_step(state, event, actions);
  if (event.type == TokenEvent::Type::kCharge &&
      state.phase == EntryPhase::kFlagged) {
    actions->charge_result = ChargeResult::kCharged;
    actions->ledger_charge = true;
  }
  return post;
}

/// Keeps charging past the token's byte limit.
TokenCoreState limit_ignore(TokenCoreState state, const TokenEvent& event,
                            TokenActions* actions) {
  TokenCoreState post = tokens::token_step(state, event, actions);
  if (event.type == TokenEvent::Type::kCharge &&
      actions->charge_result == ChargeResult::kLimitExhausted) {
    post.bytes_charged = state.bytes_charged + event.bytes;
    actions->charge_result = ChargeResult::kCharged;
    actions->ledger_charge = true;
  }
  return post;
}

/// Drops the settle obligation: the optimistic first packet is neither
/// charged nor written off.
TokenCoreState forget_settle(TokenCoreState state, const TokenEvent& event,
                             TokenActions* actions) {
  if (event.type == TokenEvent::Type::kVerifyOk && event.settle_bytes > 0) {
    TokenEvent amnesiac = event;
    amnesiac.settle_bytes = 0;
    return tokens::token_step(state, amnesiac, actions);
  }
  return tokens::token_step(state, event, actions);
}

/// Settles the optimistic admit twice.
TokenCoreState double_settle(TokenCoreState state, const TokenEvent& event,
                             TokenActions* actions) {
  TokenCoreState post = tokens::token_step(state, event, actions);
  if (actions->settle_charged > 0) {
    post.bytes_charged += actions->settle_charged;
    actions->settle_charged *= 2;
  }
  return post;
}

// --- throttle mutants ---

/// The sweep never expires or ramps anything: flows are policed forever.
ThrottleState no_decay(const ThrottleConfig& config, ThrottleState state,
                       const ThrottleEvent& event, sim::Time now,
                       ThrottleActions* actions) {
  if (event.type == ThrottleEvent::Type::kTick) {
    *actions = ThrottleActions{};
    return state;
  }
  return cc::throttle_step(config, state, event, now, actions);
}

/// Ramps the rate without the ceiling release: the entry stays active at
/// ever-growing rates instead of being dropped.
ThrottleState eternal_ramp(const ThrottleConfig& config,
                           ThrottleState state, const ThrottleEvent& event,
                           sim::Time now, ThrottleActions* actions) {
  ThrottleState post = cc::throttle_step(config, state, event, now, actions);
  if (event.type == ThrottleEvent::Type::kTick &&
      state.phase == ThrottlePhase::kActive && now < state.expires &&
      actions->erase) {
    // The real core released at the ceiling; keep policing instead.
    *actions = ThrottleActions{};
    post = state;
    post.rate_bps = state.rate_bps * config.ramp_factor;
  }
  return post;
}

std::vector<Mutant> build_registry() {
  std::vector<Mutant> mutants;
  auto add = [&](Mutant m) { mutants.push_back(std::move(m)); };
  add({.id = "vmtp-rx-mask-stuck",
       .machine = "vmtp",
       .expect_invariant = "part-recorded",
       .rx = &rx_mask_stuck});
  add({.id = "vmtp-nack-resend-all",
       .machine = "vmtp",
       .expect_invariant = "retransmit-only-missing",
       .txn = &nack_resend_all});
  add({.id = "vmtp-accept-corrupted",
       .machine = "vmtp",
       .expect_invariant = "no-corrupted-accept",
       .rx = &accept_corrupted});
  add({.id = "vmtp-deliver-lost",
       .machine = "vmtp",
       .expect_invariant = "response-delivered",
       .txn = &deliver_lost});
  add({.id = "token-flagged-charge",
       .machine = "token",
       .expect_invariant = "flagged-never-charged",
       .token = &flagged_charge});
  add({.id = "token-limit-ignore",
       .machine = "token",
       .expect_invariant = "charge-within-limit",
       .token = &limit_ignore});
  add({.id = "token-forget-settle",
       .machine = "token",
       .expect_invariant = "optimistic-settled",
       .token = &forget_settle});
  add({.id = "token-double-settle",
       .machine = "token",
       .expect_invariant = "no-double-charge",
       .token = &double_settle});
  add({.id = "throttle-no-decay",
       .machine = "throttle",
       .expect_invariant = "throttle-expires",
       .throttle = &no_decay});
  add({.id = "throttle-eternal-ramp",
       .machine = "throttle",
       .expect_invariant = "rate-below-ceiling",
       .throttle = &eternal_ramp});
  return mutants;
}

}  // namespace

const std::vector<Mutant>& all_mutants() {
  static const std::vector<Mutant>* registry =
      new std::vector<Mutant>(build_registry());
  return *registry;
}

const Mutant& mutant(const std::string& id) {
  for (const Mutant& m : all_mutants()) {
    if (m.id == id) return m;
  }
  SIRPENT_INVARIANT(false && "unknown mutant id");
  return all_mutants().front();
}

}  // namespace srp::mc
