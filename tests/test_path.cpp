#include "util/path.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "sim/message.hpp"

namespace da {
namespace {

TEST(Path, EmptyByDefault) {
  const Path p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(Path, InitializerList) {
  const Path p{3, 1, 4};
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 3);
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 4);
  EXPECT_EQ(p.front(), 3);
  EXPECT_EQ(p.back(), 4);
}

TEST(Path, PushPop) {
  Path p;
  p.push_back(5);
  p.push_back(6);
  EXPECT_EQ(p.back(), 6);
  p.pop_back();
  EXPECT_EQ(p.back(), 5);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Path, Contains) {
  const Path p{0, 2, 7};
  EXPECT_TRUE(p.contains(0));
  EXPECT_TRUE(p.contains(7));
  EXPECT_FALSE(p.contains(1));
}

TEST(Path, Distinct) {
  EXPECT_TRUE((Path{0, 1, 2}).distinct());
  EXPECT_FALSE((Path{0, 1, 0}).distinct());
  EXPECT_TRUE(Path{}.distinct());
}

TEST(Path, ExtendedLeavesOriginalUntouched) {
  const Path p{1, 2};
  const Path q = p.extended(3);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.back(), 3);
}

TEST(Path, EqualityAndOrdering) {
  EXPECT_EQ((Path{1, 2}), (Path{1, 2}));
  EXPECT_FALSE((Path{1, 2}) == (Path{1, 3}));
  EXPECT_FALSE((Path{1, 2}) == (Path{1, 2, 3}));
  EXPECT_LT((Path{1, 2}), (Path{1, 3}));
  EXPECT_LT((Path{1, 2}), (Path{1, 2, 0}));
}

TEST(Path, HashConsistentWithEquality) {
  const Path a{4, 5, 6};
  const Path b{4, 5, 6};
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Path> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
}

TEST(Path, HashDistinguishesLengthPrefixes) {
  // [1] vs [1,0] vs [1,0,0] must hash apart with overwhelming likelihood.
  const Path a{1};
  const Path b{1, 0};
  const Path c{1, 0, 0};
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(b.hash(), c.hash());
}

// One cache line per message: the engine's inboxes and outboxes are
// vectors of these, walked once per delivered message.
static_assert(sizeof(sim::Message) == 64);

TEST(Path, HashMatchesNodeIdHops) {
  // Hashes of the same paths when hops were stored as 32-bit NodeIds.
  // Fault-injection and noise models derive decisions from Path::hash(),
  // so digests and corpora depend on these exact values. -1, 42 and 99
  // are hops the fuzz adversaries and admission tests send.
  static_assert(sizeof(std::size_t) == 8);
  const struct {
    Path path;
    std::uint64_t hash;
  } pins[] = {
      {Path{}, 0x9e3779b97f4a7c15ULL},
      {Path{0}, 0xcd94bf3ecef65c4eULL},
      {Path{0, 1, 2}, 0x4867edcb972afee5ULL},
      {Path{0, -1}, 0xfb58c6023e697aaaULL},
      {Path{-1}, 0xcd94bf3ecef65c4dULL},
      {Path{42, 3}, 0xfb58c6023e696befULL},
      {Path{0, 3, 99}, 0x4867edcb972afe86ULL},
      {Path{0, 42, 99, -1}, 0x822b05d9b8ed6adeULL},
      {Path{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0xeab0e1825907885cULL},
      {Path{32767, -32768}, 0xfb58c6023e481a66ULL},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.path.hash(), pin.hash) << pin.path.to_string();
  }
}

TEST(Path, HopOutsideInt16RangeThrows) {
  Path p;
  EXPECT_THROW(p.push_back(std::numeric_limits<std::int16_t>::max() + 1),
               std::logic_error);
  EXPECT_THROW(p.push_back(std::numeric_limits<std::int16_t>::min() - 1),
               std::logic_error);
  EXPECT_THROW((Path{0, 70000}), std::logic_error);
  EXPECT_TRUE(p.empty());  // a rejected hop is not stored
  p.push_back(std::numeric_limits<std::int16_t>::min());
  p.push_back(std::numeric_limits<std::int16_t>::max());
  EXPECT_EQ(p[0], -32768);
  EXPECT_EQ(p[1], 32767);
}

TEST(Path, ToString) {
  EXPECT_EQ((Path{0, 3, 1}).to_string(), "[0,3,1]");
  EXPECT_EQ(Path{}.to_string(), "[]");
}

TEST(Path, OverflowThrows) {
  Path p;
  for (std::size_t i = 0; i < Path::kMaxLen; ++i) {
    p.push_back(static_cast<NodeId>(i));
  }
  EXPECT_THROW(p.push_back(99), std::logic_error);
}

TEST(Path, PopEmptyThrows) {
  Path p;
  EXPECT_THROW(p.pop_back(), std::logic_error);
}

TEST(Path, RangeFor) {
  const Path p{2, 4, 6};
  int sum = 0;
  for (NodeId id : p) sum += id;
  EXPECT_EQ(sum, 12);
}

}  // namespace
}  // namespace da
