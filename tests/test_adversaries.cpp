#include "faults/adversaries.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "faults/scripted.hpp"
#include "protocols/authenticated/signatures.hpp"
#include "protocols/authenticated/sm.hpp"

namespace da::faults {
namespace {

sim::Message msg(NodeId from, NodeId to, int round, Value v,
                 Path path = {}) {
  return sim::Message{
      .from = from, .to = to, .round = round, .path = path, .value = v};
}

TEST(Adversaries, HonestPassesThrough) {
  auto adv = honest();
  const auto m = msg(1, 2, 0, Value::of(5));
  const auto out = adv->corrupt(m);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Adversaries, SilentDropsEverything) {
  auto adv = silent();
  EXPECT_FALSE(adv->corrupt(msg(1, 2, 0, Value::of(5))).has_value());
  EXPECT_FALSE(adv->corrupt(msg(3, 0, 2, Value::def())).has_value());
}

TEST(Adversaries, ConstantLiarRewritesValueOnly) {
  auto adv = constant_liar(Value::of(9));
  const auto out = adv->corrupt(msg(1, 2, 0, Value::of(5)));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, Value::of(9));
  EXPECT_EQ(out->from, 1);
  EXPECT_EQ(out->to, 2);
}

TEST(Adversaries, DefaultSpammerSendsVd) {
  auto adv = default_spammer();
  EXPECT_TRUE(adv->corrupt(msg(1, 2, 0, Value::of(5)))->value.is_default());
}

TEST(Adversaries, EquivocatorSplitsByParity) {
  auto adv = equivocator(Value::of(1), Value::of(2));
  EXPECT_EQ(adv->corrupt(msg(0, 2, 0, Value::of(5)))->value, Value::of(1));
  EXPECT_EQ(adv->corrupt(msg(0, 3, 0, Value::of(5)))->value, Value::of(2));
}

TEST(Adversaries, PivotEquivocatorSplitsAtPivot) {
  auto adv = pivot_equivocator(Value::of(1), Value::of(2), 3);
  EXPECT_EQ(adv->corrupt(msg(0, 2, 0, Value::of(5)))->value, Value::of(1));
  EXPECT_EQ(adv->corrupt(msg(0, 3, 0, Value::of(5)))->value, Value::of(2));
  EXPECT_EQ(adv->corrupt(msg(0, 4, 0, Value::of(5)))->value, Value::of(2));
}

TEST(Adversaries, CrashAfterRound) {
  auto adv = crash_after(1);
  EXPECT_TRUE(adv->corrupt(msg(0, 1, 0, Value::of(5))).has_value());
  EXPECT_TRUE(adv->corrupt(msg(0, 1, 1, Value::of(5))).has_value());
  EXPECT_FALSE(adv->corrupt(msg(0, 1, 2, Value::of(5))).has_value());
}

TEST(Adversaries, RandomNoiseIsMessageDeterministic) {
  auto a = random_noise(7, 0, 100, 0.3);
  auto b = random_noise(7, 0, 100, 0.3);
  for (int to = 0; to < 50; ++to) {
    const auto m = msg(0, to, 1, Value::of(5), Path{0, 3});
    const auto ra = a->corrupt(m);
    // Call b in a *different* order: results must still match.
    const auto rb = b->corrupt(m);
    EXPECT_EQ(ra.has_value(), rb.has_value());
    if (ra) {
      EXPECT_EQ(ra->value, rb->value);
    }
  }
}

TEST(Adversaries, RandomNoiseValuesInRange) {
  auto adv = random_noise(7, 10, 12, 0.0);
  for (int to = 0; to < 30; ++to) {
    const auto out = adv->corrupt(msg(0, to, 1, Value::of(5)));
    ASSERT_TRUE(out.has_value());
    EXPECT_GE(out->value.raw(), 10);
    EXPECT_LE(out->value.raw(), 12);
  }
}

TEST(Adversaries, TargetedSplitTellsTruthToTargets) {
  auto adv = targeted_split({1, 3}, Value::of(42));
  EXPECT_EQ(adv->corrupt(msg(0, 1, 0, Value::of(5)))->value, Value::of(5));
  EXPECT_EQ(adv->corrupt(msg(0, 2, 0, Value::of(5)))->value, Value::of(42));
  EXPECT_EQ(adv->corrupt(msg(0, 3, 0, Value::of(5)))->value, Value::of(5));
}

TEST(Scripted, FirstMatchWins) {
  auto adv = scripted({
      Rule{.to = 1, .action = Rule::Action::kReplace, .value = Value::of(7)},
      Rule{.to = 1, .action = Rule::Action::kOmit},
      Rule{.action = Rule::Action::kReplace, .value = Value::of(8)},
  });
  EXPECT_EQ(adv->corrupt(msg(0, 1, 0, Value::of(5)))->value, Value::of(7));
  EXPECT_EQ(adv->corrupt(msg(0, 2, 0, Value::of(5)))->value, Value::of(8));
}

TEST(Scripted, UnmatchedPassesThrough) {
  auto adv = scripted({
      Rule{.from = 3, .action = Rule::Action::kOmit},
  });
  const auto out = adv->corrupt(msg(0, 1, 0, Value::of(5)));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, Value::of(5));
}

TEST(Scripted, RoundAndFromFilters) {
  auto adv = scripted({
      Rule{.from = 2, .round = 1, .action = Rule::Action::kOmit},
  });
  EXPECT_TRUE(adv->corrupt(msg(2, 1, 0, Value::of(5))).has_value());
  EXPECT_FALSE(adv->corrupt(msg(2, 1, 1, Value::of(5))).has_value());
  EXPECT_TRUE(adv->corrupt(msg(3, 1, 1, Value::of(5))).has_value());
}

TEST(Scripted, PathPrefixFilter) {
  auto adv = scripted({
      Rule{.path_prefix = Path{0, 2},
           .action = Rule::Action::kReplace,
           .value = Value::of(9)},
  });
  EXPECT_EQ(adv->corrupt(msg(2, 1, 1, Value::of(5), Path{0, 2}))->value,
            Value::of(9));
  EXPECT_EQ(adv->corrupt(msg(3, 1, 1, Value::of(5), Path{0, 3}))->value,
            Value::of(5));
  // Longer paths with the prefix also match.
  EXPECT_EQ(adv->corrupt(msg(4, 1, 2, Value::of(5), Path{0, 2, 4}))->value,
            Value::of(9));
  // Shorter than the prefix: no match.
  EXPECT_EQ(adv->corrupt(msg(0, 1, 0, Value::of(5), Path{0}))->value,
            Value::of(5));
}

// The runtimes call the in-place `rewrite`; `corrupt` is its copying
// form. Over a corpus of messages — every (from, to) pair of a 6-node
// instance in rounds 0-2, relayed and default values — each library
// adversary's `rewrite` must make exactly the decision `corrupt` reports
// (omission included) and leave the metadata the runtimes restore alone.
TEST(Adversaries, RewriteMatchesCorruptOverCorpus) {
  std::vector<sim::Message> corpus;
  for (NodeId from = 0; from < 6; ++from) {
    for (NodeId to = 0; to < 6; ++to) {
      for (int round = 0; round < 3; ++round) {
        Path path{0};
        if (round >= 1) path = Path{0, from == 0 ? 1 : from};
        if (round >= 2) path = Path{0, 3, from == 0 ? 1 : from};
        for (const Value v : {Value::of(5), Value::def()}) {
          corpus.push_back(msg(from, to, round, v, path));
        }
      }
    }
  }
  const protocols::authenticated::SignatureAuthority authority(11, 6);
  struct Case {
    std::string name;
    std::unique_ptr<sim::Adversary> adversary;
    std::size_t omitted;  // messages of the corpus it omits
  };
  const std::size_t per_round = corpus.size() / 3;
  std::vector<Case> cases;
  cases.push_back({"honest", honest(), 0});
  cases.push_back({"silent", silent(), corpus.size()});
  cases.push_back({"constant_liar", constant_liar(Value::of(9)), 0});
  cases.push_back({"default_spammer", default_spammer(), 0});
  cases.push_back({"equivocator", equivocator(Value::of(1), Value::of(2)), 0});
  cases.push_back({"pivot_equivocator",
                   pivot_equivocator(Value::of(1), Value::of(2), 3), 0});
  // Honest through round 1, silent from round 2: the cutoff omits exactly
  // the round-2 third of the corpus.
  cases.push_back({"crash_after", crash_after(1), per_round});
  cases.push_back({"targeted_split", targeted_split({1, 3}, Value::of(42)), 0});
  cases.push_back({"scripted",
                   scripted({
                       Rule{.to = 1,
                            .action = Rule::Action::kReplace,
                            .value = Value::of(7)},
                       Rule{.round = 2, .action = Rule::Action::kOmit},
                       Rule{.from = 4, .action = Rule::Action::kPass},
                       Rule{.action = Rule::Action::kReplace,
                            .value = Value::of(8)},
                   }),
                   // Round 2 minus its to = 1 messages (the first rule).
                   per_round - per_round / 6});
  cases.push_back({"blind_tamperer",
                   protocols::authenticated::blind_tamperer(Value::of(3)),
                   0});
  cases.push_back({"signing_equivocator",
                   protocols::authenticated::signing_equivocator(
                       authority, {0, 3}, Value::of(1), Value::of(2)),
                   0});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::size_t omitted = 0;
    for (const sim::Message& original : corpus) {
      const std::optional<sim::Message> copied = c.adversary->corrupt(original);
      sim::Message in_place = original;
      const bool kept = c.adversary->rewrite(in_place);
      ASSERT_EQ(kept, copied.has_value()) << original.to_string();
      if (!kept) {
        ++omitted;
        continue;
      }
      EXPECT_EQ(in_place, *copied) << original.to_string();
      EXPECT_EQ(in_place.from, original.from);
      EXPECT_EQ(in_place.to, original.to);
      EXPECT_EQ(in_place.round, original.round);
      EXPECT_EQ(in_place.path, original.path);
    }
    EXPECT_EQ(omitted, c.omitted);
  }

  // random_noise omits by a per-message roll: some of the corpus, not all,
  // and the same messages through either hook.
  auto noise = random_noise(7, 0, 100, 0.3);
  std::size_t omitted = 0;
  for (const sim::Message& original : corpus) {
    const std::optional<sim::Message> copied = noise->corrupt(original);
    sim::Message in_place = original;
    const bool kept = noise->rewrite(in_place);
    ASSERT_EQ(kept, copied.has_value()) << original.to_string();
    if (kept) {
      EXPECT_EQ(in_place, *copied) << original.to_string();
    } else {
      ++omitted;
    }
  }
  EXPECT_GT(omitted, 0u);
  EXPECT_LT(omitted, corpus.size());
}

}  // namespace
}  // namespace da::faults
