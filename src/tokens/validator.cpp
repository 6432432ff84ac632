#include "tokens/validator.hpp"

#include <utility>

#include "check/contract.hpp"
#include "stats/registry.hpp"

namespace srp::tokens {

ValidationEngine::ValidationEngine(const TokenAuthority& authority,
                                   exec::WorkerPool* pool)
    : authority_(authority), pool_(pool) {}

ValidationEngine::~ValidationEngine() {
  // Workers capture `this`; a live task past destruction would be a
  // use-after-free.  Every router/bench flow awaits each ticket, so the
  // slot table is empty here; the pool drain covers the pathological
  // case of a submit with no await.
  if (pool_ != nullptr) pool_->wait_idle();
}

ValidationEngine::Ticket ValidationEngine::submit(std::uint32_t router_id,
                                                  wire::Bytes token) {
  Ticket ticket = 0;
  {
    MutexLock lock(mutex_);
    ticket = next_ticket_++;
    slots_.emplace(ticket, Slot{});
    ++stats_.submitted;
  }
  if (pool_ == nullptr) {
    finish(ticket, authority_.open(router_id, token));
    return ticket;
  }
  pool_->submit([this, router_id, token = std::move(token), ticket] {
    // Pure function of immutable inputs: same result on any thread at
    // any time, which is what keeps the sim deterministic.
    finish(ticket, authority_.open(router_id, token));
  });
  return ticket;
}

std::optional<TokenBody> ValidationEngine::await(Ticket ticket) {
  MutexLock lock(mutex_);
  auto it = slots_.find(ticket);
  SIRPENT_EXPECTS(it != slots_.end());  // unknown or double-awaited ticket
  while (!it->second.done) {
    done_cv_.wait(mutex_);
    it = slots_.find(ticket);
    SIRPENT_INVARIANT(it != slots_.end());
  }
  std::optional<TokenBody> result = std::move(it->second.result);
  slots_.erase(it);
  ++stats_.completed;
  return result;
}

std::vector<std::optional<TokenBody>> ValidationEngine::validate_batch(
    std::uint32_t router_id, const std::vector<wire::Bytes>& batch) {
  {
    MutexLock lock(mutex_);
    ++stats_.batches;
  }
  std::vector<Ticket> tickets;
  tickets.reserve(batch.size());
  for (const auto& token : batch) {
    tickets.push_back(submit(router_id, token));
  }
  std::vector<std::optional<TokenBody>> results;
  results.reserve(batch.size());
  // Await in submission order: results land in input order no matter how
  // the pool interleaved the work.
  for (const Ticket t : tickets) results.push_back(await(t));
  stats::Registry::global()
      .counter(pool_ == nullptr ? "tokens.engine.validated_serial"
                                : "tokens.engine.validated_parallel")
      .add(batch.size());
  return results;
}

ValidationEngine::Stats ValidationEngine::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void ValidationEngine::finish(Ticket ticket,
                              std::optional<TokenBody> result) {
  {
    MutexLock lock(mutex_);
    auto it = slots_.find(ticket);
    SIRPENT_INVARIANT(it != slots_.end());
    it->second.done = true;
    it->second.result = std::move(result);
  }
  done_cv_.notify_all();
}

}  // namespace srp::tokens
