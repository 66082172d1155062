// Analytic message-count formulas vs the instrumented runtimes: for each
// protocol the closed form (protocols::eig_message_count at the protocol's
// depth) must equal both the runner's own messages_sent counter and the
// delta observed on the obs registry's sim.messages_sent counter during a
// fault-free run. This pins the formulas, the instrumentation, and the
// protocols' message patterns to each other.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/agreement.hpp"
#include "core/byz.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/ic/interactive_consistency.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/round_engine.hpp"
#include "sim/runner.hpp"

namespace da {
namespace {

std::uint64_t sim_messages_sent() {
  return obs::MetricsRegistry::global().counter_value("sim.messages_sent");
}

// Under the -DDA_METRICS=OFF kill switch registry reads return 0; keep the
// runner-side leg of each cross-check and drop the registry-delta leg.
#ifndef DA_METRICS_DISABLED
constexpr bool kRegistryChecks = true;
#else
constexpr bool kRegistryChecks = false;
#endif

ScenarioSpec fault_free_spec(const Config& config) {
  ScenarioSpec spec;
  spec.config = config;
  spec.sender = 0;
  spec.sender_value = Value::of(17);
  return spec;
}

// ----------------------------------------------------------- formulas --

TEST(MessageCounts, EigFormulaMatchesExplicitSum) {
  // eig_message_count(n, d) = sum_{r=1..d} (n-1)(n-2)...(n-r).
  for (int n = 2; n <= 9; ++n) {
    for (int depth = 1; depth <= 4; ++depth) {
      std::uint64_t expected = 0;
      std::uint64_t level = 1;
      for (int r = 1; r <= depth && r < n; ++r) {
        level *= static_cast<std::uint64_t>(n - r);
        expected += level;
      }
      EXPECT_EQ(protocols::eig_message_count(n, depth), expected)
          << "n=" << n << " depth=" << depth;
    }
  }
}

TEST(MessageCounts, ProtocolFormulasReduceToEig) {
  EXPECT_EQ(core::byz_message_count(7, 1),
            protocols::eig_message_count(7, core::byz_depth(1)));
  EXPECT_EQ(core::byz_message_count(7, /*t=*/2, /*m=*/1),
            protocols::eig_message_count(7, 3));
  EXPECT_EQ(protocols::lamport::om_message_count(7, 2),
            protocols::eig_message_count(7, protocols::lamport::om_rounds(2)));
  EXPECT_EQ(protocols::crusader::crusader_message_count(7),
            protocols::eig_message_count(7, 2));
  EXPECT_EQ(protocols::ic::ic_message_count(7, 1),
            7 * protocols::lamport::om_message_count(7, 1));
  // The classic small cases: OM(1) at n=4 sends 3 + 3*2 = 9 messages;
  // crusader at any n sends (n-1) + (n-1)(n-2) = (n-1)^2.
  EXPECT_EQ(protocols::lamport::om_message_count(4, 1), 9u);
  EXPECT_EQ(protocols::crusader::crusader_message_count(5), 16u);
}

// ----------------------------------------------- measured == analytic --

TEST(MessageCounts, ByzMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {5, 0}, {7, 1}, {7, 2}}) {
    const Config config{.n = n, .m = m, .u = n - 2 * m - 1};
    const DegradableAgreement protocol(config);
    const std::uint64_t before = sim_messages_sent();
    const auto outcome = protocol.run(fault_free_spec(config), nullptr);
    const std::uint64_t analytic = core::byz_message_count(n, m);
    EXPECT_EQ(outcome.messages_sent, analytic) << "n=" << n << " m=" << m;
    if (kRegistryChecks) {
      EXPECT_EQ(sim_messages_sent() - before, analytic)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(MessageCounts, LamportOmMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {7, 2}}) {
    const LamportAgreement protocol(n, m);
    const Config config{.n = n, .m = m, .u = m};
    const std::uint64_t before = sim_messages_sent();
    const auto outcome = protocol.run(fault_free_spec(config), nullptr);
    const std::uint64_t analytic = protocols::lamport::om_message_count(n, m);
    EXPECT_EQ(outcome.messages_sent, analytic) << "n=" << n << " m=" << m;
    if (kRegistryChecks) {
      EXPECT_EQ(sim_messages_sent() - before, analytic)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(MessageCounts, CrusaderMeasuredMatchesAnalytic) {
  for (const int n : {4, 5, 7}) {
    const std::uint64_t before = sim_messages_sent();
    sim::SyncRunner runner(
        protocols::crusader::make_crusader_processes(n, 1, 0, Value::of(17)),
        sim::RunOptions{});
    const auto result = runner.run();
    const std::uint64_t analytic =
        protocols::crusader::crusader_message_count(n);
    EXPECT_EQ(result.messages_sent, analytic) << "n=" << n;
    if (kRegistryChecks) {
      EXPECT_EQ(sim_messages_sent() - before, analytic) << "n=" << n;
    }
  }
}

TEST(MessageCounts, InteractiveConsistencyMeasuredMatchesAnalytic) {
  for (const auto& [n, m] : {std::pair{4, 1}, {5, 1}}) {
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(Value::of(i + 1));
    const std::uint64_t before = sim_messages_sent();
    const auto result =
        protocols::ic::run_interactive_consistency(n, m, inputs, {}, nullptr);
    const std::uint64_t analytic = protocols::ic::ic_message_count(n, m);
    EXPECT_EQ(result.messages_sent, analytic) << "n=" << n << " m=" << m;
    if (kRegistryChecks) {
      EXPECT_EQ(sim_messages_sent() - before, analytic)
          << "n=" << n << " m=" << m;
    }
  }
}

// Both runtimes execute the same protocol, so their counts must agree
// with each other and with the closed form.
TEST(MessageCounts, ThreadedRuntimeAgreesWithSimulator) {
  const Config config{.n = 4, .m = 1, .u = 1};
  const DegradableAgreement protocol(config);
  const auto spec = fault_free_spec(config);
  const auto sim_outcome = protocol.run(spec, nullptr);
  const auto threaded_outcome = protocol.run_threaded(spec, nullptr);
  EXPECT_EQ(sim_outcome.messages_sent, threaded_outcome.messages_sent);
  EXPECT_EQ(threaded_outcome.messages_sent, core::byz_message_count(4, 1));
}

// sim.rounds counts every RoundEngine::process_round, while sim.round_ms
// times one round in sim::kRoundTimerEvery per thread, the thread's first
// included: on a fresh thread, R rounds record exactly ceil(R / k) samples.
TEST(RoundTimer, SketchCountMatchesRoundsCounter) {
  if (!kRegistryChecks) GTEST_SKIP() << "registry reads return 0";
  auto& registry = obs::MetricsRegistry::global();
  const Config config{.n = 7, .m = 2, .u = 2};
  const auto rounds_per_run =
      static_cast<std::uint64_t>(core::byz_depth(config.m));
  const auto timed = [&registry] {
    return registry.snapshot().quantiles["sim.round_ms"].count();
  };
  const auto ceil_div = [](std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
  };
  // Enough runs to cross several sampling periods without landing on a
  // multiple of k.
  const std::uint64_t runs = 3 * sim::kRoundTimerEvery / rounds_per_run + 1;
  ASSERT_NE(runs * rounds_per_run % sim::kRoundTimerEvery, 0u);

  const std::uint64_t rounds_before = registry.counter_value("sim.rounds");
  const std::uint64_t timed_before = timed();
  std::uint64_t timed_after_first = 0;
  std::thread fresh([&] {
    const DegradableAgreement protocol(config);
    // Each run() flushes this thread's sinks when it returns.
    EXPECT_EQ(protocol.run(fault_free_spec(config), nullptr).rounds,
              static_cast<int>(rounds_per_run));
    timed_after_first = timed();
    for (std::uint64_t i = 1; i < runs; ++i) {
      (void)protocol.run(fault_free_spec(config), nullptr);
    }
  });
  fresh.join();
  const std::uint64_t rounds =
      registry.counter_value("sim.rounds") - rounds_before;
  EXPECT_EQ(rounds, runs * rounds_per_run);
  // The first round on the thread is timed, the next k-1 are not.
  EXPECT_EQ(timed_after_first - timed_before, 1u);
  EXPECT_EQ(timed() - timed_before, ceil_div(rounds, sim::kRoundTimerEvery));
}

}  // namespace
}  // namespace da
