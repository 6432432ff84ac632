// Bounded model checker tests (src/mc, DESIGN.md §10): exhaustive
// verification of the three shipped transition cores, the mutation
// self-test (every deliberately broken core variant must be caught with
// the expected invariant), counterexample JSON round-trips, livelock
// detection on a synthetic lasso, and replay of the frozen counterexamples
// under tests/mc_regress/ through the *real* simulator via the
// counterexample → FaultPlan converter.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "congestion/controller.hpp"
#include "congestion/throttle.hpp"
#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "mc/counterexample.hpp"
#include "mc/explorer.hpp"
#include "mc/model.hpp"
#include "mc/mutants.hpp"
#include "mc/replay.hpp"
#include "mc/throttle_model.hpp"
#include "mc/token_model.hpp"
#include "mc/vmtp_model.hpp"
#include "stats/registry.hpp"
#include "tokens/cache.hpp"
#include "transport/vmtp.hpp"

namespace srp::mc {
namespace {

/// The models one machine presents (token has one per uncached policy),
/// with @p m's broken core plugged in (nullptr = all real cores).
std::vector<std::unique_ptr<Model>> models_for(const std::string& machine,
                                               const Mutant* m = nullptr) {
  std::vector<std::unique_ptr<Model>> models;
  if (machine == "vmtp") {
    models.push_back(std::make_unique<VmtpModel>(
        VmtpScenario{},
        (m != nullptr && m->txn != nullptr) ? m->txn : &vmtp::txn_step,
        (m != nullptr && m->rx != nullptr) ? m->rx : &vmtp::rx_step));
  } else if (machine == "token") {
    for (const auto policy :
         {tokens::UncachedPolicy::kOptimistic, tokens::UncachedPolicy::kBlocking,
          tokens::UncachedPolicy::kDrop}) {
      TokenScenario scenario;
      scenario.policy = policy;
      models.push_back(std::make_unique<TokenModel>(
          scenario,
          (m != nullptr && m->token != nullptr) ? m->token
                                                : &tokens::token_step));
    }
  } else if (machine == "throttle") {
    models.push_back(std::make_unique<ThrottleModel>(
        ThrottleScenario{}, (m != nullptr && m->throttle != nullptr)
                                ? m->throttle
                                : &cc::throttle_step));
  }
  return models;
}

ExploreResult explore_at(const Model& model, int depth) {
  ExplorerConfig config;
  config.max_depth = depth;
  return explore(model, config);
}

// --- Exhaustive verification of the real cores -------------------------
//
// These are the PR's headline claims: at depth 8 every interleaving of
// loss / duplication / corruption / timer fires within the scenario
// budgets upholds every invariant.  Visited-state counts go to the test
// log (and the XML via RecordProperty) so CI shows the search was real.

TEST(Exhaustive, VmtpRealCoreHoldsAllInvariantsAtDepth8) {
  const auto models = models_for("vmtp");
  ASSERT_EQ(models.size(), 1u);
  const ExploreResult result = explore_at(*models[0], 8);
  ASSERT_TRUE(result.ok()) << result.violation->invariant;
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.depth_reached, 8);
  // The interleaving space is genuinely large: tens of thousands of
  // distinct protocol states, not a handful of happy paths.
  EXPECT_GT(result.states_visited, 10'000u);
  ::testing::Test::RecordProperty("vmtp_states",
                                  static_cast<int>(result.states_visited));
  std::printf("[ mc ] vmtp depth=8: %zu states, %zu transitions\n",
              result.states_visited, result.transitions);
}

TEST(Exhaustive, TokenRealCoreHoldsAllInvariantsEveryPolicy) {
  for (const auto& model : models_for("token")) {
    const ExploreResult result = explore_at(*model, 10);
    ASSERT_TRUE(result.ok()) << result.violation->invariant;
    EXPECT_GT(result.states_visited, 10u);
    std::printf("[ mc ] token depth=10: %zu states, %zu transitions\n",
                result.states_visited, result.transitions);
  }
}

TEST(Exhaustive, ThrottleRealCoreHoldsAllInvariantsAtDepth10) {
  const auto models = models_for("throttle");
  const ExploreResult result = explore_at(*models[0], 10);
  ASSERT_TRUE(result.ok()) << result.violation->invariant;
  EXPECT_GT(result.states_visited, 50u);
  std::printf("[ mc ] throttle depth=10: %zu states, %zu transitions\n",
              result.states_visited, result.transitions);
}

// --- Mutation self-test ------------------------------------------------

TEST(Mutation, EveryMutantCaughtWithExpectedInvariant) {
  for (const Mutant& m : all_mutants()) {
    std::optional<Violation> found;
    const Model* found_in = nullptr;
    const auto models = models_for(m.machine, &m);
    ExploreResult result;
    for (const auto& model : models) {
      result = explore_at(*model, 8);
      if (!result.ok()) {
        found = result.violation;
        found_in = model.get();
        break;
      }
    }
    ASSERT_TRUE(found.has_value()) << m.id << " not caught at depth 8";
    EXPECT_EQ(found->invariant, m.expect_invariant) << m.id;

    // The minimized trace must still be legal and still violate.
    const Violation minimized = minimize(*found_in, *found);
    EXPECT_LE(minimized.trace.size(), found->trace.size()) << m.id;
    const auto end = replay(*found_in, minimized.trace);
    ASSERT_TRUE(end.has_value()) << m.id;
    EXPECT_EQ(found_in->check(*end), m.expect_invariant) << m.id;

    // And the frozen form round-trips byte-exactly through JSON.
    const CounterExample cx =
        make_counterexample(found_in->name(), m.id, minimized, result);
    const auto back = from_json(to_json(cx));
    ASSERT_TRUE(back.has_value()) << m.id;
    EXPECT_EQ(*back, cx) << m.id;
  }
}

TEST(Mutation, ExpectedInvariantsAreDeclaredByTheirModels) {
  for (const Mutant& m : all_mutants()) {
    const auto models = models_for(m.machine);
    bool declared = false;
    for (const auto& model : models) {
      for (const std::string& name : model->invariants()) {
        declared = declared || name == m.expect_invariant;
      }
    }
    EXPECT_TRUE(declared) << m.id << " expects undeclared invariant "
                          << m.expect_invariant;
  }
}

// --- Livelock detection ------------------------------------------------

/// A lasso: 0 → 1 ⇄ 2, with an optional exit 2 → 3 that raises progress.
/// Without the exit the 1 ⇄ 2 cycle cannot escape — a livelock.
class LassoModel final : public Model {
 public:
  explicit LassoModel(bool escape) : escape_(escape) {}

  [[nodiscard]] std::string name() const override { return "lasso"; }
  [[nodiscard]] StateBytes initial() const override { return state(0); }

  void enabled(const StateBytes& s,
               std::vector<Event>* events) const override {
    switch (at(s)) {
      case 0:
        events->push_back(Event{1, 0, 0, 0, "enter"});
        break;
      case 1:
        events->push_back(Event{2, 0, 0, 0, "spin-fwd"});
        break;
      case 2:
        events->push_back(Event{3, 0, 0, 0, "spin-back"});
        if (escape_) events->push_back(Event{4, 0, 0, 0, "exit"});
        break;
      case 3:
        break;
    }
  }

  [[nodiscard]] StateBytes apply(const StateBytes& s,
                                 const Event& event) const override {
    switch (event.code) {
      case 1:
        return state(1);
      case 2:
        return state(2);
      case 3:
        return state(1);
      case 4:
        return state(3);
    }
    return s;
  }

  [[nodiscard]] std::string check(const StateBytes&) const override {
    return "";
  }
  [[nodiscard]] bool terminal(const StateBytes& s) const override {
    return at(s) == 3;
  }
  [[nodiscard]] std::uint64_t progress(const StateBytes& s) const override {
    return at(s) == 3 ? 2 : (at(s) == 0 ? 0 : 1);
  }
  [[nodiscard]] std::vector<std::string> invariants() const override {
    return {"livelock"};
  }

 private:
  static StateBytes state(std::uint8_t v) {
    CanonicalWriter w;
    w.u8(v);
    return w.take();
  }
  static std::uint8_t at(const StateBytes& s) {
    return CanonicalReader(s).u8();
  }

  bool escape_;
};

TEST(Livelock, InescapableCycleReported) {
  const LassoModel stuck(/*escape=*/false);
  const ExploreResult result = explore_at(stuck, 8);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->invariant, "livelock");
  // The trace walks into the cycle and around it once.
  EXPECT_GE(result.violation->trace.size(), 2u);
}

TEST(Livelock, EscapableCycleIsNotALivelock) {
  const LassoModel fine(/*escape=*/true);
  const ExploreResult result = explore_at(fine, 8);
  EXPECT_TRUE(result.ok()) << result.violation->invariant;
}

TEST(Livelock, DetectionCanBeDisabled) {
  const LassoModel stuck(/*escape=*/false);
  ExplorerConfig config;
  config.max_depth = 8;
  config.detect_livelock = false;
  EXPECT_TRUE(explore(stuck, config).ok());
}

// --- Explorer mechanics ------------------------------------------------

TEST(Explorer, MaxStatesTruncatesInsteadOfRunningAway) {
  const auto models = models_for("vmtp");
  ExplorerConfig config;
  config.max_depth = 8;
  config.max_states = 100;
  const ExploreResult result = explore(*models[0], config);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.states_visited, 100u);
}

TEST(Explorer, ReplayRejectsIllegalTraces) {
  const auto models = models_for("vmtp");
  std::vector<Event> junk;
  junk.push_back(Event{255, 9, 9, 9, "no-such-event"});
  EXPECT_FALSE(replay(*models[0], junk).has_value());
}

// --- Counterexample JSON -----------------------------------------------

TEST(CounterExampleJson, MalformedDocumentsRejected) {
  EXPECT_FALSE(from_json("").has_value());
  EXPECT_FALSE(from_json("{").has_value());
  EXPECT_FALSE(from_json("[]").has_value());
  EXPECT_FALSE(from_json("{\"model\": 3}").has_value());
  EXPECT_FALSE(from_json("{\"model\": \"x\"").has_value());
}

TEST(CounterExampleJson, LabelsWithEscapesRoundTrip) {
  CounterExample cx;
  cx.model = "vmtp";
  cx.invariant = "part-recorded";
  cx.events.push_back(Event{1, 2, 3, 4, "quote \" slash \\ newline \n"});
  const auto back = from_json(to_json(cx));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, cx);
  EXPECT_EQ(back->events[0].label, cx.events[0].label);
}

TEST(CounterExampleJson, ControlCharactersEscapedAndRoundTrip) {
  CounterExample cx;
  cx.model = "vmtp";
  cx.invariant = "tab\there";
  cx.events.push_back(Event{1, 2, 3, 4, std::string("bell\x01 cr\r")});
  const std::string json = to_json(cx);
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos);
  EXPECT_NE(json.find("bell\\u0001 cr\\u000d"), std::string::npos);
  for (const char ch : json) {
    EXPECT_TRUE(ch == '\n' || static_cast<unsigned char>(ch) >= 0x20)
        << "raw control character " << static_cast<int>(ch);
  }
  const auto back = from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, cx);
  const auto upper = from_json("{\"model\": \"\\u0041\"}");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->model, "A");
  EXPECT_FALSE(from_json("{\"model\": \"\\u01ff\"}").has_value());
  EXPECT_FALSE(from_json("{\"model\": \"\\u00g1\"}").has_value());
}

// --- Counterexample → FaultPlan conversion -----------------------------

TEST(ReplayPlan, VmtpFaultEventsBecomeScriptedLanes) {
  CounterExample cx;
  cx.model = "vmtp";
  cx.events.push_back(Event{VmtpModel::kDeliver, 0, 0, 0, "deliver"});
  cx.events.push_back(Event{VmtpModel::kDrop, 0, 0, 3, "drop"});
  cx.events.push_back(Event{VmtpModel::kCorrupt, 0, 1, 1, "corrupt"});
  cx.events.push_back(Event{VmtpModel::kDup, 0, 0, 5, "dup"});
  ReplayBinding binding;
  binding.client_to_server_port = "c2s";
  binding.server_to_client_port = "s2c";
  const fault::FaultPlan plan = to_fault_plan(cx, binding);

  const auto& c2s = plan.per_port.at("c2s").script;
  ASSERT_EQ(c2s.size(), 2u);  // the delivery scripts nothing
  EXPECT_EQ(c2s[0].packet_index, 3u);
  EXPECT_EQ(c2s[0].action, fault::ScriptedFault::Action::kDrop);
  EXPECT_EQ(c2s[1].packet_index, 5u);
  EXPECT_EQ(c2s[1].action, fault::ScriptedFault::Action::kDuplicate);
  const auto& s2c = plan.per_port.at("s2c").script;
  ASSERT_EQ(s2c.size(), 1u);
  EXPECT_EQ(s2c[0].packet_index, 1u);
  EXPECT_EQ(s2c[0].action, fault::ScriptedFault::Action::kCorrupt);
}

TEST(ReplayPlan, TokenPoisonsBecomeScriptedPoisons) {
  CounterExample cx;
  cx.model = "token";
  cx.events.push_back(Event{TokenModel::kPacket, 0, 0, 0, "packet"});
  cx.events.push_back(Event{TokenModel::kPoisonFlag, 0, 0, 0, "flag"});
  cx.events.push_back(Event{TokenModel::kPoisonForget, 0, 0, 0, "forget"});
  ReplayBinding binding;
  const fault::FaultPlan plan = to_fault_plan(cx, binding);
  ASSERT_EQ(plan.scripted_poisons.size(), 2u);
  EXPECT_EQ(plan.scripted_poisons[0].at, binding.poison_at);
  EXPECT_TRUE(plan.scripted_poisons[0].flag);
  EXPECT_EQ(plan.scripted_poisons[1].at,
            binding.poison_at + binding.poison_spacing);
  EXPECT_FALSE(plan.scripted_poisons[1].flag);
}

// --- Frozen regression corpus (tests/mc_regress) -----------------------
//
// Each JSON under tests/mc_regress/ was frozen from the explorer
// (`mc_explore --mutant ID`).  The tests below prove the full loop: the
// trace is still a legal run of the mutated model ending in the expected
// violation, and — converted to a FaultPlan — it reproduces the defect in
// the real simulator on the mutated core while the real core sails
// through the identical faults.

CounterExample load_regress(const std::string& name) {
  const std::string path = std::string(MC_REGRESS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto cx = from_json(buffer.str());
  EXPECT_TRUE(cx.has_value()) << path;
  return cx.value_or(CounterExample{});
}

/// Frozen trace must replay legally on the mutated model and end in the
/// recorded violation (so the corpus cannot rot silently).
void expect_legal_on_mutant(const CounterExample& cx) {
  const Mutant& m = mutant(cx.mutant);
  for (const auto& model : models_for(m.machine, &m)) {
    if (model->name() != cx.model) continue;
    const auto end = replay(*model, cx.events);
    if (!end.has_value()) continue;  // other policy variant of same name
    if (model->check(*end) == cx.invariant) return;
  }
  FAIL() << cx.mutant << ": frozen trace no longer reaches "
         << cx.invariant;
}

/// One client/router/server VMTP world; returns the client result and
/// retransmission count after running under @p plan with @p hooks
/// (nullptr = real cores on both endpoints, otherwise installed on the
/// endpoint the mutant's machine half lives in — rx on the server,
/// txn on the client).
struct VmtpRun {
  std::optional<vmtp::Result> result;
  std::uint64_t retransmitted = 0;
};

VmtpRun run_vmtp_regress(const CounterExample& cx, bool use_mutant) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.mc");
  auto& r1 = fabric.add_router("r1");
  auto& server_host = fabric.add_host("server.mc");
  fabric.connect(client_host, r1);
  fabric.connect(r1, server_host);

  vmtp::VmtpConfig config;
  config.max_data_per_packet = 100;  // 160-byte request = 2-part group
  config.max_retries = 2;
  auto client =
      std::make_unique<vmtp::VmtpEndpoint>(sim, client_host, 0xC1, config);
  auto server =
      std::make_unique<vmtp::VmtpEndpoint>(sim, server_host, 0x5E, config);
  if (use_mutant) {
    const Mutant& m = mutant(cx.mutant);
    vmtp::VmtpEndpoint::CoreHooks hooks;
    if (m.txn != nullptr) hooks.txn = m.txn;
    if (m.rx != nullptr) hooks.rx = m.rx;
    client->set_core_hooks_for_test(hooks);
    server->set_core_hooks_for_test(hooks);
  }
  server->serve([](std::span<const std::uint8_t> request,
                   const viper::Delivery&) {
    return wire::Bytes(request.begin(), request.end());
  });

  ReplayBinding binding;
  binding.client_to_server_port = std::string(client_host.port(1).name());
  binding.server_to_client_port = std::string(server_host.port(1).name());
  const fault::FaultPlan plan = to_fault_plan(cx, binding);
  stats::Registry registry;
  fault::FaultEngine engine(sim, plan, registry);
  engine.attach(client_host.port(1));
  engine.attach(server_host.port(1));

  dir::QueryOptions options;
  options.dest_endpoint = 0x5E;
  const auto routes =
      fabric.directory().query(fabric.id_of(client_host), "server.mc",
                               options);
  VmtpRun run;
  if (routes.empty()) return run;
  const wire::Bytes request(160, 0x7A);
  client->invoke(routes.front(), 0x5E, request,
                 [&](vmtp::Result r) { run.result = std::move(r); });
  // Bounded horizon: a mutated server can NACK a stuck group forever.
  sim.run_until(sim::kSecond);
  run.retransmitted = client->stats().retransmitted_packets;
  return run;
}

TEST(Regress, VmtpRxMaskStuckFailsTransactionOnlyOnMutant) {
  const CounterExample cx = load_regress("vmtp-rx-mask-stuck.json");
  ASSERT_EQ(cx.mutant, "vmtp-rx-mask-stuck");
  ASSERT_EQ(cx.invariant, "part-recorded");
  expect_legal_on_mutant(cx);

  const VmtpRun broken = run_vmtp_regress(cx, /*use_mutant=*/true);
  ASSERT_TRUE(broken.result.has_value());
  EXPECT_FALSE(broken.result->ok);  // group never completes: timeout
  EXPECT_EQ(broken.result->error, "transaction timed out");

  const VmtpRun real = run_vmtp_regress(cx, /*use_mutant=*/false);
  ASSERT_TRUE(real.result.has_value());
  EXPECT_TRUE(real.result->ok);
  EXPECT_EQ(real.result->response.size(), 160u);
}

TEST(Regress, VmtpNackResendAllOverRetransmitsOnlyOnMutant) {
  const CounterExample cx = load_regress("vmtp-nack-resend-all.json");
  ASSERT_EQ(cx.mutant, "vmtp-nack-resend-all");
  ASSERT_EQ(cx.invariant, "retransmit-only-missing");
  expect_legal_on_mutant(cx);

  // Same scripted drops for both runs (taken from the trace's fault
  // events); both transactions succeed, but the mutant answers every
  // selective NACK with the full group.
  const VmtpRun real = run_vmtp_regress(cx, /*use_mutant=*/false);
  ASSERT_TRUE(real.result.has_value());
  EXPECT_TRUE(real.result->ok);
  const VmtpRun broken = run_vmtp_regress(cx, /*use_mutant=*/true);
  ASSERT_TRUE(broken.result.has_value());
  EXPECT_TRUE(broken.result->ok);
  EXPECT_GT(broken.retransmitted, real.retransmitted);
}

TEST(Regress, TokenFlaggedChargeLeaksOnlyOnMutant) {
  const CounterExample cx = load_regress("token-flagged-charge.json");
  ASSERT_EQ(cx.mutant, "token-flagged-charge");
  ASSERT_EQ(cx.invariant, "flagged-never-charged");
  expect_legal_on_mutant(cx);

  for (const bool use_mutant : {false, true}) {
    sim::Simulator sim;
    tokens::TokenCache cache;
    tokens::Ledger ledger;
    if (use_mutant) cache.set_step_for_test(mutant(cx.mutant).token);

    const fault::FaultPlan plan = to_fault_plan(cx, ReplayBinding{});
    ASSERT_EQ(plan.scripted_poisons.size(), 1u);
    EXPECT_TRUE(plan.scripted_poisons[0].flag);
    stats::Registry registry;
    fault::FaultEngine engine(sim, plan, registry);
    engine.attach_token_cache("r1", cache);

    // packet-arrives + verify-ok: optimistic admit settles its charge.
    tokens::TokenBody body;
    body.account = 7;
    body.byte_limit = 1000;
    const wire::Bytes token(40, 0x42);
    const auto settled = cache.store_and_settle(token, body, 125, &ledger);
    EXPECT_TRUE(settled.settled);
    EXPECT_EQ(ledger.usage(7).bytes, 125u);

    // poison-flag fires at the scripted instant.
    sim.run_until(2 * sim::kMillisecond);
    EXPECT_EQ(engine.count("r1", "token_poison"), 1u);

    // packet-arrives: the flagged entry must block the charge.
    const auto result = cache.charge(token, 125, ledger);
    if (use_mutant) {
      EXPECT_EQ(result, tokens::ChargeResult::kCharged);
      EXPECT_EQ(ledger.usage(7).bytes, 250u);  // the leak, reproduced
    } else {
      EXPECT_EQ(result, tokens::ChargeResult::kFlagged);
      EXPECT_EQ(ledger.usage(7).bytes, 125u);
    }
  }
}

TEST(Regress, ThrottleNoDecayNeverExpiresOnlyOnMutant) {
  const CounterExample cx = load_regress("throttle-no-decay.json");
  ASSERT_EQ(cx.mutant, "throttle-no-decay");
  ASSERT_EQ(cx.invariant, "throttle-expires");
  expect_legal_on_mutant(cx);
  // A throttle counterexample contains no wire faults to script.
  const fault::FaultPlan plan = to_fault_plan(cx, ReplayBinding{});
  EXPECT_TRUE(plan.scripted_poisons.empty());

  for (const bool use_mutant : {false, true}) {
    sim::Simulator sim;
    dir::Fabric fabric(sim);
    auto& host = fabric.add_host("h.mc");
    cc::ThrottleConfig config;
    config.ramp_interval = sim::kMillisecond;   // the model's tick
    config.flow_ttl = 2 * sim::kMillisecond;    // ThrottleScenario's TTL
    config.ramp_factor = 2.0;
    config.rate_ceiling_bps = 1500.0;
    cc::SourceThrottle throttle(sim, host, config);
    if (use_mutant) {
      throttle.set_step_for_test(mutant(cx.mutant).throttle);
    }

    cc::RateReport report;
    report.router_id = 1;
    report.port = 2;
    report.rate_bps = 1000.0;  // ThrottleScenario::report_rate_bps
    throttle.apply_report(report);
    EXPECT_EQ(throttle.active_flows(), 1u);

    // The same trace against a router's rate limit: a neighbour router
    // grants it once, then only the controller's ticks run.  The model's
    // 1 ms tick is the controller's ramp interval, two report intervals.
    auto& feeder = fabric.add_router("r.feeder");
    auto& granter = fabric.add_router("r.granter");
    fabric.connect(feeder, granter);
    cc::ControllerConfig router_config;
    router_config.interval = sim::kMillisecond / 2;
    router_config.flow_ttl = config.flow_ttl;
    router_config.ramp_factor = config.ramp_factor;
    cc::CongestionController controller(sim, feeder, router_config);
    if (use_mutant) {
      controller.set_step_for_test(mutant(cx.mutant).throttle);
    }
    granter.send_control(1, cc::encode_rate_report(report));

    sim.run_until(10 * sim::kMillisecond);  // trace drives 6 ticks; ample
    EXPECT_EQ(controller.stats().flows_created, 1u);
    if (use_mutant) {
      EXPECT_EQ(throttle.active_flows(), 1u);  // soft state never expires
      EXPECT_EQ(controller.flow_snapshots().size(), 1u);
      EXPECT_EQ(controller.stats().flows_expired, 0u);
    } else {
      EXPECT_EQ(throttle.active_flows(), 0u);
      EXPECT_TRUE(controller.flow_snapshots().empty());
      EXPECT_EQ(controller.stats().flows_expired, 1u);
    }
  }
}

}  // namespace
}  // namespace srp::mc
