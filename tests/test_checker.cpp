#include "core/checker.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace da {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.config = Config{.n = 5, .m = 1, .u = 2};
  spec.sender = 0;
  spec.sender_value = Value::of(10);
  return spec;
}

std::map<NodeId, Value> decisions(std::initializer_list<Value> values) {
  std::map<NodeId, Value> out;
  NodeId id = 0;
  for (const Value& v : values) out[id++] = v;
  return out;
}

TEST(Checker, D1Satisfied) {
  auto spec = base_spec();
  spec.faulty = {3};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::of(10),
                       Value::of(99), Value::of(10)}));
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class.size(), 3u);  // nodes 1,2,4
  EXPECT_TRUE(report.violators.empty());
}

TEST(Checker, D1ViolatedByDefaultDecision) {
  auto spec = base_spec();
  spec.faulty = {3};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(99), Value::of(10)}));
  EXPECT_EQ(report.applied, Condition::kD1);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators, std::vector<NodeId>{2});
}

TEST(Checker, D2SatisfiedOnAnyCommonValue) {
  auto spec = base_spec();
  spec.faulty = {0};  // sender faulty, f=1 <= m
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(77), Value::of(77),
                       Value::of(77), Value::of(77)}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_TRUE(report.satisfied);
}

TEST(Checker, D2SatisfiedOnCommonDefault) {
  auto spec = base_spec();
  spec.faulty = {0};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::def(), Value::def(), Value::def(),
                       Value::def()}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.default_class.size(), 4u);
}

TEST(Checker, D2ViolatedBySplit) {
  auto spec = base_spec();
  spec.faulty = {0};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(7), Value::of(7), Value::of(8),
                       Value::of(7)}));
  EXPECT_EQ(report.applied, Condition::kD2);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators.size(), 4u);
}

TEST(Checker, D3AllowsSenderValueAndDefaultOnly) {
  auto spec = base_spec();
  spec.faulty = {3, 4};  // f=2: m < f <= u
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(1), Value::of(2)}));
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class, std::vector<NodeId>{1});
  EXPECT_EQ(report.default_class, std::vector<NodeId>{2});
}

TEST(Checker, D3ViolatedByThirdValue) {
  auto spec = base_spec();
  spec.faulty = {3, 4};
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::of(11),
                       Value::of(1), Value::of(2)}));
  EXPECT_EQ(report.applied, Condition::kD3);
  EXPECT_FALSE(report.satisfied);
  EXPECT_EQ(report.violators, std::vector<NodeId>{2});
}

TEST(Checker, D4AllowsOneValuePlusDefault) {
  auto spec = base_spec();
  spec.faulty = {0, 3};  // sender faulty, f=2 in (m,u]
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(55), Value::def(),
                       Value::of(9), Value::of(55)}));
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.value_class.size(), 2u);
  EXPECT_EQ(report.default_class.size(), 1u);
}

TEST(Checker, D4ViolatedByTwoNonDefaultValues) {
  auto spec = base_spec();
  spec.faulty = {0, 3};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(55), Value::of(56),
                       Value::of(9), Value::of(55)}));
  EXPECT_EQ(report.applied, Condition::kD4);
  EXPECT_FALSE(report.satisfied);
  EXPECT_FALSE(report.violators.empty());
}

TEST(Checker, BeyondUPromisesNothing) {
  auto spec = base_spec();
  spec.faulty = {2, 3, 4};  // f=3 > u=2
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(4), Value::of(5), Value::of(6),
                       Value::of(7)}));
  EXPECT_EQ(report.applied, Condition::kNone);
  EXPECT_TRUE(report.satisfied);
}

TEST(Checker, CorollaryCountsSenderWithItsValue) {
  auto spec = base_spec();
  spec.faulty = {3, 4};
  // Only node 1 decides the sender's value; with the fault-free sender that
  // class has 2 members >= m+1 = 2.
  const auto report = check_conditions(
      spec, decisions({Value::of(10), Value::of(10), Value::def(),
                       Value::of(1), Value::of(1)}));
  EXPECT_TRUE(report.corollary_m_plus_1);
  EXPECT_EQ(report.largest_agreeing_class, 2);
}

TEST(Checker, CorollaryFailsWhenEveryoneScatters) {
  auto spec = base_spec();
  spec.config.m = 2;  // require classes of 3
  spec.config.u = 2;
  spec.faulty = {0, 4};
  const auto report = check_conditions(
      spec, decisions({Value::of(1), Value::of(2), Value::of(2), Value::def(),
                       Value::of(9)}));
  // f=2 <= m, D.2 violated; corollary also fails (largest class = 2 < 3).
  EXPECT_FALSE(report.satisfied);
  EXPECT_FALSE(report.corollary_m_plus_1);
  EXPECT_EQ(report.largest_agreeing_class, 2);
}

TEST(Checker, DefaultSenderValueRejected) {
  auto spec = base_spec();
  spec.sender_value = Value::def();
  EXPECT_THROW((void)check_conditions(spec, decisions({Value::def(),
                                                       Value::def(),
                                                       Value::def(),
                                                       Value::def(),
                                                       Value::def()})),
               std::logic_error);
}

TEST(Checker, MissingDecisionRejected) {
  auto spec = base_spec();
  std::map<NodeId, Value> partial{{1, Value::of(10)}};
  EXPECT_THROW((void)check_conditions(spec, partial), std::logic_error);
}

sim::Decisions flat(std::initializer_list<Value> values) {
  sim::Decisions out;
  NodeId id = 0;
  for (const Value& v : values) out[id++] = v;
  return out;
}

void expect_same_report(const ConditionReport& got,
                        const ConditionReport& want) {
  EXPECT_EQ(got.applied, want.applied);
  EXPECT_EQ(got.satisfied, want.satisfied);
  EXPECT_EQ(got.value_class, want.value_class);
  EXPECT_EQ(got.default_class, want.default_class);
  EXPECT_EQ(got.violators, want.violators);
  EXPECT_EQ(got.corollary_m_plus_1, want.corollary_m_plus_1);
  EXPECT_EQ(got.largest_agreeing_class, want.largest_agreeing_class);
  EXPECT_EQ(got.detail, want.detail);
}

// The in-place overload overwrites every field: a report left behind by
// any check — violating D.2/D.4 ones included, with their violators and
// detail text — and reused for the next equals a fresh report of it.
TEST(Checker, ReusedReportEqualsFreshReport) {
  const auto spec_with = [](std::vector<NodeId> faulty) {
    ScenarioSpec spec = base_spec();  // n=5, m=1, u=2, sender 0 says 10
    spec.faulty = std::move(faulty);
    return spec;
  };
  const std::vector<std::pair<ScenarioSpec, sim::Decisions>> cases = {
      // D.2 violated: two distinct values.
      {spec_with({0}), flat({Value::of(1), Value::of(2), Value::of(2),
                             Value::of(3), Value::def()})},
      // D.4 violated: two distinct non-default values.
      {spec_with({0, 4}), flat({Value::of(1), Value::of(2), Value::of(3),
                                Value::def(), Value::of(9)})},
      // D.1 satisfied.
      {spec_with({3}), flat({Value::of(10), Value::of(10), Value::of(10),
                             Value::of(99), Value::of(10)})},
      // D.3 satisfied with both classes.
      {spec_with({2, 3}), flat({Value::of(10), Value::of(10), Value::of(5),
                                Value::of(6), Value::def()})},
      // D.2 satisfied on a common default.
      {spec_with({0}), flat({Value::of(1), Value::def(), Value::def(),
                             Value::def(), Value::def()})},
      // f > u: nothing promised.
      {spec_with({1, 2, 3}), flat({Value::of(10), Value::of(1), Value::of(2),
                                   Value::of(3), Value::of(4)})},
  };
  ASSERT_FALSE(check_conditions(cases[0].first, cases[0].second).satisfied);
  ASSERT_FALSE(check_conditions(cases[1].first, cases[1].second).satisfied);
  for (const auto& [first_spec, first_decisions] : cases) {
    for (const auto& [spec, decisions] : cases) {
      ConditionReport reused;
      check_conditions(first_spec, first_decisions, reused);
      check_conditions(spec, decisions, reused);
      SCOPED_TRACE(first_spec.to_string() + " then " + spec.to_string());
      expect_same_report(reused, check_conditions(spec, decisions));
    }
  }
}

TEST(Checker, ConditionNames) {
  EXPECT_STREQ(to_string(Condition::kD1), "D.1");
  EXPECT_STREQ(to_string(Condition::kD4), "D.4");
  EXPECT_STREQ(to_string(Condition::kNone), "none");
}

}  // namespace
}  // namespace da
