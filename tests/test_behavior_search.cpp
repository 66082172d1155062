#include "faults/behavior_search.hpp"

#include <gtest/gtest.h>

namespace da::faults {
namespace {

TEST(BehaviorSearch, SpaceAccounting) {
  // n=4, 1/1: f=1 subsets: sender (3 slots) + 3 receivers (2 slots each).
  const Config config{.n = 4, .m = 1, .u = 1};
  EXPECT_EQ(behavior_search_space(config),
            static_cast<std::uint64_t>(4 * 4 * 4 + 3 * (4 * 4)));
}

TEST(BehaviorSearch, LamportMinimalIsBulletproof) {
  // 1/1-degradable (= plain Byzantine agreement) with 4 nodes: *no*
  // behaviour of any single traitor breaks D.1/D.2.
  const Config config{.n = 4, .m = 1, .u = 1};
  const auto violation = exhaustive_behavior_search(config);
  EXPECT_FALSE(violation.has_value())
      << violation->adversary << " broke " << violation->spec.to_string();
}

TEST(BehaviorSearch, PaperMinimalFiveNodeIsBulletproof) {
  // 1/2-degradable with the tight budget of 5 nodes (Theorem 1 at the
  // Theorem 2 boundary): adversary-complete sweep over all behaviours of
  // up to u = 2 colluding traitors finds nothing.
  const Config config{.n = 5, .m = 1, .u = 2};
  const auto violation = exhaustive_behavior_search(config);
  EXPECT_FALSE(violation.has_value())
      << violation->adversary << " broke " << violation->spec.to_string();
}

TEST(BehaviorSearch, ZeroMEchoIsBulletproof) {
  const Config config{.n = 4, .m = 0, .u = 3};
  const auto violation = exhaustive_behavior_search(config);
  EXPECT_FALSE(violation.has_value());
}

TEST(BehaviorSearch, OneNodeShortBreaks) {
  // The Figure 2 configuration: 1/2-degradable on 4 nodes. The sweep must
  // find a violating behaviour (it rediscovers the proof's scenario (c)
  // or an equivalent one).
  const Config config{.n = 4, .m = 1, .u = 2};
  const auto violation = exhaustive_behavior_search(config);
  ASSERT_TRUE(violation.has_value());
  EXPECT_GT(violation->spec.f(), config.m);  // breakage is in degraded range
  EXPECT_LE(violation->spec.f(), config.u);
}

TEST(BehaviorSearch, ThreeNodeByzantineImpossible) {
  // 1/1 with 3 nodes: the classical 3-node impossibility, rediscovered.
  const Config config{.n = 3, .m = 1, .u = 1};
  const auto violation = exhaustive_behavior_search(config);
  ASSERT_TRUE(violation.has_value());
}

TEST(BehaviorSearch, RespectsMaxF) {
  const Config config{.n = 4, .m = 1, .u = 2};
  // Restricted to f <= 1 the 4-node system is fine (that is OM(1)).
  EXPECT_FALSE(exhaustive_behavior_search(config, {.max_f = 1}).has_value());
  // At f = 2 it breaks.
  EXPECT_TRUE(exhaustive_behavior_search(config, {.max_f = 2}).has_value());
}

TEST(BehaviorSearch, DepthThreeRejected) {
  const Config config{.n = 7, .m = 2, .u = 2};
  EXPECT_THROW((void)exhaustive_behavior_search(config), std::logic_error);
}

}  // namespace
}  // namespace da::faults
