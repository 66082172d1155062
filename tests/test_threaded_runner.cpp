#include "rt/threaded_runner.hpp"

#include <gtest/gtest.h>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "obs/metrics.hpp"
#include "rt/mailbox.hpp"

namespace da {
namespace {

TEST(Mailbox, DepositDrainRoundTrip) {
  rt::Mailbox box(2);
  const sim::Message m1{.from = 2, .to = 0, .round = 0, .value = Value::of(1)};
  const sim::Message m2{.from = 1, .to = 0, .round = 0, .value = Value::of(2)};
  box.deposit(0, m1);
  box.deposit(0, m2);
  const auto drained = box.drain(0);
  ASSERT_EQ(drained.size(), 2u);
  // Canonical order: by sender id.
  EXPECT_EQ(drained[0].from, 1);
  EXPECT_EQ(drained[1].from, 2);
  EXPECT_TRUE(box.drain(0).empty());
  EXPECT_EQ(box.total_deposited(), 2u);
}

TEST(Mailbox, RoundsAreSeparate) {
  rt::Mailbox box(3);
  box.deposit(1, sim::Message{.from = 0, .to = 1, .round = 1});
  EXPECT_TRUE(box.drain(0).empty());
  EXPECT_EQ(box.drain(1).size(), 1u);
  EXPECT_THROW(box.deposit(3, sim::Message{}), std::logic_error);
}

TEST(ThreadedRunner, MatchesSimulatorWithoutFaults) {
  const Config config{.n = 6, .m = 1, .u = 3};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(33);
  const Outcome sim_out = protocol.run(spec, nullptr);
  const Outcome thr_out = protocol.run_threaded(spec, nullptr);
  EXPECT_EQ(sim_out.decisions, thr_out.decisions);
  EXPECT_EQ(sim_out.messages_sent, thr_out.messages_sent);
  EXPECT_EQ(sim_out.messages_delivered, thr_out.messages_delivered);
}

TEST(ThreadedRunner, MatchesSimulatorUnderAdversaries) {
  const Config config{.n = 7, .m = 1, .u = 4};
  const DegradableAgreement protocol(config);
  const auto family = faults::standard_family(77);
  for (const auto& factory : family) {
    ScenarioSpec spec;
    spec.config = config;
    spec.sender = 1;
    spec.sender_value = Value::of(12);
    spec.faulty = {0, 3, 5};
    auto a1 = factory.make(spec);
    auto a2 = factory.make(spec);
    const Outcome sim_out = protocol.run(spec, a1.get());
    const Outcome thr_out = protocol.run_threaded(spec, a2.get());
    EXPECT_EQ(sim_out.decisions, thr_out.decisions) << factory.name;
  }
}

TEST(ThreadedRunner, ManyNodes) {
  // Thread-per-node with a wide population: exercises the barrier under
  // real contention.
  const Config config{.n = 24, .m = 1, .u = 21};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(3);
  spec.faulty = {5, 6, 7};
  auto adversary = faults::random_noise(5, 0, 9, 0.2);
  const Outcome outcome = protocol.run_threaded(spec, adversary.get());
  EXPECT_EQ(outcome.decisions.size(), 24u);
  const ConditionReport report = check_conditions(spec, outcome.decisions);
  EXPECT_TRUE(report.satisfied) << report.detail;
}

TEST(ThreadedRunner, RepeatedRunsAreDeterministic) {
  const Config config{.n = 8, .m = 2, .u = 3};
  const DegradableAgreement protocol(config);
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 2;
  spec.sender_value = Value::of(5);
  spec.faulty = {0, 1, 4};
  std::map<NodeId, Value> first;
  for (int run = 0; run < 3; ++run) {
    auto adversary = faults::random_noise(9, 0, 20, 0.3);
    const Outcome outcome = protocol.run_threaded(spec, adversary.get());
    if (run == 0) {
      first = outcome.decisions;
    } else {
      EXPECT_EQ(outcome.decisions, first) << "run " << run;
    }
  }
}

TEST(ThreadedRunner, FabricationToUnknownNodeIsDroppedAndCounted) {
  // Regression: a fabrication aimed at node n+3 used to trip the mailbox
  // index lookup's contract check and abort the run; it must instead be
  // dropped (and counted) with honest traffic untouched.
  class ForeignTargetFabricator final : public sim::Adversary {
   public:
    explicit ForeignTargetFabricator(NodeId target) : target_(target) {}
    std::optional<sim::Message> corrupt(
        const sim::Message& original) override {
      return original;
    }
    std::vector<sim::Message> fabricate(NodeId node, int round) override {
      return {sim::Message{
          .from = node, .to = target_, .round = round, .value = Value::of(99)}};
    }

   private:
    NodeId target_;
  };

  const Config config{.n = 5, .m = 1, .u = 2};
  ForeignTargetFabricator adversary(/*target=*/config.n + 3);
  sim::RunOptions options;
  options.faulty = {2};
  options.adversary = &adversary;
#ifndef DA_METRICS_DISABLED
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter_value("rt.fabrications_dropped");
#endif
  rt::ThreadedRunner runner(core::make_byz_processes(config, 0, Value::of(7)),
                            std::move(options));
  const sim::RunResult result = runner.run();
  // corrupt() is the identity, so the run matches a fault-free one except
  // for the fabricated sends (one per round) that are never delivered.
  EXPECT_EQ(result.messages_sent, result.messages_delivered + 2);
  for (NodeId i = 0; i < config.n; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(7)) << "node " << i;
  }
#ifndef DA_METRICS_DISABLED
  EXPECT_EQ(registry.counter_value("rt.fabrications_dropped"), before + 2);
#endif
}

TEST(ThreadedRunner, PropagatesProcessExceptions) {
  class Bomb final : public sim::Process {
   public:
    explicit Bomb(NodeId id) : id_(id) {}
    NodeId id() const override { return id_; }
    int total_rounds() const override { return 1; }
    std::vector<sim::Message> start() override {
      if (id_ == 1) throw std::runtime_error("boom");
      return {};
    }
    void on_round(int, const std::vector<sim::Message>&,
                  std::vector<sim::Message>&) override {}
    Value decide() const override { return Value::def(); }

   private:
    NodeId id_;
  };
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (NodeId i = 0; i < 3; ++i) procs.push_back(std::make_unique<Bomb>(i));
  rt::ThreadedRunner runner(std::move(procs), sim::RunOptions{});
  EXPECT_THROW((void)runner.run(), std::runtime_error);
}

}  // namespace
}  // namespace da
