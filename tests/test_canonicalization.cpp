// Symmetry reductions of the behaviour search (faults/canon.hpp):
// property tests of the receiver-relabeling canonical form against brute
// force on exhaustively enumerable segments, subset-conjugacy classes
// checked against full subset enumeration, orbit and conjugacy invariance
// of real protocol executions for all six protocols, boundary tests of
// the checked orbit arithmetic, and a corpus-first three-way differential
// suite pinning the receiver-canonical and subset-quotient walks to the
// full enumeration — identical verdicts, identical first-hit ordinals,
// and orbit-weighted execution counts that reconcile exactly against the
// unreduced 4^k space. Corpus lines in tests/corpus/canonicalization.txt
// are replayed first; append any config a randomized or field failure
// flags.

#include "faults/canon.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "faults/behavior_search.hpp"
#include "protocols/authenticated/signatures.hpp"
#include "protocols/authenticated/sm.hpp"
#include "protocols/crusader/crusader.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/runner.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace da {
namespace {

using faults::SlotSymmetry;
using protocols::authenticated::SignatureAuthority;

// ------------------------------------------------------------- fixtures
//
// Mirrors the behaviour search's slot construction (behavior_search.cpp's
// controlled_slots): a faulty sender broadcasts to everyone else; a faulty
// non-sender relays to everyone but itself and the sender. Rows ascend
// with the faulty id, destinations ascend within each row — the layout
// make_slot_symmetry documents.

std::vector<std::pair<NodeId, NodeId>> slots_for(const ScenarioSpec& spec) {
  std::vector<std::pair<NodeId, NodeId>> slots;
  for (NodeId from : spec.faulty) {
    for (NodeId to = 0; to < spec.config.n; ++to) {
      if (to == from) continue;
      if (from != spec.sender && to == spec.sender) continue;
      slots.emplace_back(from, to);
    }
  }
  return slots;
}

ScenarioSpec spec_of(int n, std::vector<NodeId> faulty) {
  ScenarioSpec spec;
  spec.config = Config{.n = n, .m = 1, .u = static_cast<int>(faulty.size())};
  spec.sender = 0;
  spec.sender_value = Value::of(7);
  spec.faulty = std::move(faulty);
  return spec;
}

std::uint64_t pow4(std::size_t k) { return std::uint64_t{1} << (2 * k); }

/// Brute-force orbit of `counter`: every free-column permutation applied
/// via the header's own permute helper, deduplicated.
std::vector<std::uint64_t> orbit_of(const SlotSymmetry& sym,
                                    std::uint64_t counter) {
  std::vector<std::size_t> perm(sym.free_count);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::uint64_t> orbit;
  do {
    orbit.push_back(faults::permute_free_receivers(sym, counter, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::sort(orbit.begin(), orbit.end());
  orbit.erase(std::unique(orbit.begin(), orbit.end()), orbit.end());
  return orbit;
}

// ------------------------------------------------ brute-force properties

TEST(CanonProperties, ExhaustiveSegmentsMatchBruteForce) {
  // Every enumerable segment shape the depth-2 search produces: honest
  // sender with one or two relay rows, faulty sender alone, and mixed
  // rows with fixed faulty-to-faulty slots.
  const std::vector<ScenarioSpec> specs = {
      spec_of(4, {1}),     // 1 row, free {2,3}
      spec_of(5, {1}),     // 1 row, free {2,3,4}
      spec_of(4, {0}),     // faulty sender, free {1,2,3}
      spec_of(4, {0, 1}),  // 2 rows, fixed slot (0,1), free {2,3}
      spec_of(5, {1, 2}),  // 2 rows, fixed (1,2) and (2,1), free {3,4}
  };
  for (const ScenarioSpec& spec : specs) {
    SCOPED_TRACE(spec.to_string());
    const auto slots = slots_for(spec);
    const SlotSymmetry sym = faults::make_slot_symmetry(spec, slots);
    ASSERT_FALSE(sym.trivial());
    const std::uint64_t space = pow4(slots.size());

    std::vector<char> canonical(space, 0);
    std::uint64_t representatives = 0;
    std::uint64_t weighted = 0;
    for (std::uint64_t c = 0; c < space; ++c) {
      const std::vector<std::uint64_t> orbit = orbit_of(sym, c);
      const std::uint64_t form = faults::canonical_form(sym, c);
      EXPECT_EQ(form, orbit.front()) << "canonical_form is not the orbit min";
      EXPECT_EQ(faults::canonical_form(sym, form), form) << "not idempotent";
      EXPECT_EQ(faults::is_canonical(sym, c), form == c);
      EXPECT_EQ(faults::orbit_size(sym, c), orbit.size());
      canonical[c] = static_cast<char>(form == c);
      if (form == c) {
        ++representatives;
        weighted += orbit.size();
      }
    }
    EXPECT_EQ(representatives, faults::canonical_count(sym));
    EXPECT_EQ(weighted, space) << "orbit sizes must tile the segment";

    // next_canonical == the linear-scan successor, from every start.
    std::uint64_t next = space;  // scan high-to-low: nearest canonical >= c
    for (std::uint64_t c = space; c-- > 0;) {
      if (canonical[c] != 0) next = c;
      ASSERT_LT(next, space) << "all-3s counter must be canonical";
      EXPECT_EQ(faults::next_canonical(sym, c), next) << "at counter " << c;
    }
  }
}

TEST(CanonProperties, TrivialSymmetryIsIdentity) {
  // Fewer than two free receivers: every behaviour is its own orbit.
  const ScenarioSpec spec = spec_of(3, {1});
  const auto slots = slots_for(spec);
  const SlotSymmetry sym = faults::make_slot_symmetry(spec, slots);
  EXPECT_TRUE(sym.trivial());
  const std::uint64_t space = pow4(slots.size());
  EXPECT_EQ(faults::canonical_count(sym), space);
  for (std::uint64_t c = 0; c < space; ++c) {
    EXPECT_TRUE(faults::is_canonical(sym, c));
    EXPECT_EQ(faults::canonical_form(sym, c), c);
    EXPECT_EQ(faults::orbit_size(sym, c), 1u);
    EXPECT_EQ(faults::next_canonical(sym, c), c);
  }
}

TEST(CanonProperties, RandomPermutationsPreserveOrbitData) {
  // Larger segment (7 slots, free_count 3) sampled randomly: the
  // canonical form and orbit size are invariants of the orbit.
  const ScenarioSpec spec = spec_of(5, {0, 1});
  const auto slots = slots_for(spec);
  const SlotSymmetry sym = faults::make_slot_symmetry(spec, slots);
  ASSERT_EQ(sym.free_count, 3u);
  ASSERT_EQ(slots.size(), 7u);
  Rng rng(0xCA11ull);
  std::vector<std::size_t> perm(sym.free_count);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t c = rng.below(pow4(slots.size()));
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    const std::uint64_t p = faults::permute_free_receivers(sym, c, perm);
    EXPECT_EQ(faults::canonical_form(sym, p), faults::canonical_form(sym, c))
        << "counter " << c << " trial " << trial;
    EXPECT_EQ(faults::orbit_size(sym, p), faults::orbit_size(sym, c));
  }
}

// -------------------------------------------- checked orbit arithmetic

TEST(CanonChecked, FactorialBoundary) {
  EXPECT_EQ(faults::checked_factorial(0), 1u);
  EXPECT_EQ(faults::checked_factorial(1), 1u);
  // 20! is the largest factorial representable in uint64; 21! trips the
  // DA_EXPECTS contract instead of silently wrapping.
  EXPECT_EQ(faults::checked_factorial(20), 2432902008176640000ull);
  EXPECT_THROW((void)faults::checked_factorial(21), std::logic_error);
}

TEST(CanonChecked, MulBinomialMultichooseBoundaries) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(faults::checked_mul(0, max), 0u);
  EXPECT_EQ(faults::checked_mul(max, 1), max);
  EXPECT_EQ(faults::checked_mul(max / 2, 2), max - 1);
  EXPECT_THROW((void)faults::checked_mul(max / 2 + 1, 2), std::logic_error);

  EXPECT_EQ(faults::binomial(0, 0), 1u);
  EXPECT_EQ(faults::binomial(5, 7), 0u);  // k > n is an empty choice, not UB
  EXPECT_EQ(faults::binomial(6, 2), 15u);
  EXPECT_EQ(faults::binomial(60, 30), 118264581564861424ull);
  EXPECT_THROW((void)faults::binomial(70, 35), std::logic_error);

  EXPECT_EQ(faults::multichoose(4, 0), 1u);
  EXPECT_EQ(faults::multichoose(4, 3), faults::binomial(6, 3));
  EXPECT_THROW((void)faults::multichoose(0, 1), std::logic_error);
}

TEST(CanonChecked, CanonicalCountBoundary) {
  // Largest representable (rows, free_count) shape with no fixed digits:
  // multichoose(4^31, 1) = 2^62 fits; rows = 32 overflows while forming
  // the 4^rows column count and must throw, not wrap to zero columns.
  SlotSymmetry sym;
  sym.rows = 31;
  sym.free_count = 1;
  sym.slots = sym.rows * sym.free_count;
  EXPECT_EQ(faults::canonical_count(sym), std::uint64_t{1} << 62);
  sym.rows = 32;
  sym.slots = sym.rows * sym.free_count;
  EXPECT_THROW((void)faults::canonical_count(sym), std::logic_error);
}

// --------------------------------------------- subset conjugacy classes

TEST(CanonProperties, SubsetClassesPartitionTheSubsets) {
  // Brute force over every faulty subset: canonical_subset is idempotent,
  // is the lexicographic minimum of its class (hence the class member
  // with the smallest segment base), classes partition the C(n, f)
  // subsets, and each class's observed population equals
  // subset_class_size. Exactly one class per (f, sender-membership) pair.
  for (int n : {4, 5, 6}) {
    for (NodeId sender : {NodeId{0}, NodeId{2}}) {
      for (int f = 0; f <= 3; ++f) {
        SCOPED_TRACE("n=" + std::to_string(n) + " sender=" +
                     std::to_string(sender) + " f=" + std::to_string(f));
        std::map<std::vector<NodeId>, std::uint64_t> population;
        std::uint64_t subsets = 0;
        std::uint64_t representatives = 0;
        faults::for_each_subset(n, f, [&](const std::vector<NodeId>& faulty) {
          ++subsets;
          const std::vector<NodeId> rep =
              faults::canonical_subset(n, sender, faulty);
          EXPECT_EQ(faults::canonical_subset(n, sender, rep), rep);
          EXPECT_LE(rep, faulty);  // lex-min member of the class
          EXPECT_EQ(faults::is_subset_representative(n, sender, faulty),
                    rep == faulty);
          EXPECT_EQ(faults::subset_class_size(n, sender, faulty),
                    faults::subset_class_size(n, sender, rep));
          if (rep == faulty) ++representatives;
          ++population[rep];
        });
        EXPECT_EQ(subsets, faults::binomial(static_cast<std::uint64_t>(n),
                                            static_cast<std::uint64_t>(f)));
        EXPECT_EQ(representatives, population.size());
        EXPECT_EQ(representatives, f == 0 ? 1u : 2u);
        for (const auto& [rep, members] : population) {
          EXPECT_EQ(members, faults::subset_class_size(n, sender, rep));
        }
      }
    }
  }
}

TEST(CanonProperties, SenderFixingPermutationsPreserveSubsetClass) {
  // The conjugacy action itself: relabeling nodes by any permutation that
  // fixes the sender maps a subset to one with the same canonical
  // representative and class size.
  const int n = 6;
  const NodeId sender = 1;
  Rng rng(0x5B5E7ull);
  for (int trial = 0; trial < 200; ++trial) {
    const int f = 1 + static_cast<int>(rng.below(4));
    const std::vector<int> picked = rng.subset(n, f);
    std::vector<NodeId> faulty(picked.begin(), picked.end());
    std::sort(faulty.begin(), faulty.end());
    // A random permutation of the non-sender ids, identity on the sender.
    std::vector<NodeId> others;
    for (NodeId id = 0; id < n; ++id) {
      if (id != sender) others.push_back(id);
    }
    std::vector<NodeId> shuffled = others;
    rng.shuffle(shuffled);
    std::vector<NodeId> pi(n);
    pi[sender] = sender;
    for (std::size_t i = 0; i < others.size(); ++i) pi[others[i]] = shuffled[i];
    std::vector<NodeId> image;
    for (NodeId id : faulty) image.push_back(pi[id]);
    std::sort(image.begin(), image.end());
    EXPECT_EQ(faults::canonical_subset(n, sender, image),
              faults::canonical_subset(n, sender, faulty))
        << "trial " << trial;
    EXPECT_EQ(faults::subset_class_size(n, sender, image),
              faults::subset_class_size(n, sender, faulty));
  }
}

TEST(CanonProperties, SubsetQuotientReducesSegmentsThreefold) {
  // The acceptance floor for (6,1,2): the quotient walks at most a third
  // of the (sender 0) segments the receiver-canonical walk visits, and
  // the executed-representative space shrinks by at least as much.
  const Config config{.n = 6, .m = 1, .u = 2};
  std::uint64_t segments = 0;
  std::uint64_t representatives = 0;
  for (int f = 0; f <= config.u; ++f) {
    faults::for_each_subset(config.n, f,
                            [&](const std::vector<NodeId>& faulty) {
                              ++segments;
                              if (faults::is_subset_representative(
                                      config.n, 0, faulty)) {
                                ++representatives;
                              }
                            });
  }
  EXPECT_EQ(segments, 22u);        // C(6,0) + C(6,1) + C(6,2)
  EXPECT_EQ(representatives, 5u);  // {}, {0}, {1}, {0,1}, {1,2}
  EXPECT_GE(segments, 3 * representatives);
  EXPECT_GE(faults::behavior_search_canonical_space(config),
            3 * faults::behavior_search_quotient_space(config));
}

// ------------------------------------- orbit invariance, all six protocols
//
// The soundness claim behind the reduction: relabeling the fault-free
// receivers of an execution permutes their decisions and changes nothing
// else. Checked here against real protocol runs — a behaviour table and a
// permuted copy must produce the identical governing D.1-D.4 verdict, the
// identical decisions at the sender and faulty nodes, and the identical
// *multiset* of decisions across the free receivers.

enum class Proto { kByz, kOm, kCrusader, kSm, kIc, kDic };

/// Plays one behaviour table keyed by (from, to) — the test-local twin of
/// the search's internal TableAdversary.
class MapAdversary final : public sim::Adversary {
 public:
  explicit MapAdversary(std::map<std::pair<NodeId, NodeId>, Value> table)
      : table_(std::move(table)) {}

  std::optional<sim::Message> corrupt(const sim::Message& msg) override {
    const auto it = table_.find({msg.from, msg.to});
    if (it == table_.end()) return msg;
    sim::Message out = msg;
    out.value = it->second;
    return out;
  }

 private:
  std::map<std::pair<NodeId, NodeId>, Value> table_;
};

std::vector<std::unique_ptr<sim::Process>> processes_for(
    Proto proto, const ScenarioSpec& spec, const SignatureAuthority& authority) {
  const Config& cfg = spec.config;
  switch (proto) {
    case Proto::kByz:
    case Proto::kDic:
      return core::make_byz_processes(cfg, spec.sender, spec.sender_value);
    case Proto::kOm:
    case Proto::kIc:
      return protocols::lamport::make_om_processes(cfg.n, cfg.m, spec.sender,
                                                   spec.sender_value);
    case Proto::kCrusader:
      return protocols::crusader::make_crusader_processes(
          cfg.n, cfg.m, spec.sender, spec.sender_value);
    case Proto::kSm:
      return protocols::authenticated::make_sm_processes(
          cfg.n, cfg.m, spec.sender, spec.sender_value, authority);
  }
  return {};
}

struct OrbitObservation {
  std::string verdict;
  std::vector<std::string> anchored;  // sender + faulty decisions, in order
  std::vector<std::string> free_multiset;  // free receivers', sorted
};

OrbitObservation observe(Proto proto, const ScenarioSpec& spec,
                         const std::vector<std::pair<NodeId, NodeId>>& slots,
                         std::uint64_t counter,
                         const SignatureAuthority& authority) {
  const std::array<Value, 4> alphabet = {spec.sender_value, Value::of(100001),
                                         Value::of(100002), Value::def()};
  std::map<std::pair<NodeId, NodeId>, Value> table;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    table[slots[i]] =
        alphabet[faults::behavior_digit(counter, slots.size(), i)];
  }
  MapAdversary adversary(std::move(table));
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = &adversary;
  const sim::RunResult result =
      sim::SyncRunner(processes_for(proto, spec, authority), std::move(options))
          .run();

  OrbitObservation obs;
  const ConditionReport report = check_conditions(spec, result.decisions);
  obs.verdict = std::string(to_string(report.applied)) +
                (report.satisfied ? "+" : "-");
  const std::vector<NodeId> free = spec.fault_free_receivers();
  for (const auto& [node, value] : result.decisions) {
    const bool is_free = std::find(free.begin(), free.end(), node) != free.end();
    if (is_free) {
      obs.free_multiset.push_back(value.to_string());
    } else {
      obs.anchored.push_back(std::to_string(node) + "=" + value.to_string());
    }
  }
  std::sort(obs.free_multiset.begin(), obs.free_multiset.end());
  return obs;
}

TEST(CanonOrbitSim, SixProtocolVerdictInvariance) {
  const std::vector<std::pair<Proto, ScenarioSpec>> cases = {
      {Proto::kByz, spec_of(4, {1})},      {Proto::kByz, spec_of(4, {0})},
      {Proto::kOm, spec_of(4, {1})},       {Proto::kCrusader, spec_of(4, {1})},
      {Proto::kSm, spec_of(4, {1})},       {Proto::kIc, spec_of(4, {1})},
      {Proto::kDic, spec_of(5, {1, 2})},
  };
  for (const auto& [proto, spec] : cases) {
    SCOPED_TRACE(spec.to_string() + " proto " +
                 std::to_string(static_cast<int>(proto)));
    const SignatureAuthority authority(0x51Full, spec.config.n);
    const auto slots = slots_for(spec);
    const SlotSymmetry sym = faults::make_slot_symmetry(spec, slots);
    ASSERT_FALSE(sym.trivial());
    const std::uint64_t space = pow4(slots.size());
    // Exhaust small segments; sample large ones on a fixed stride.
    const std::uint64_t stride = space <= 1024 ? 1 : space / 512;
    std::vector<std::size_t> perm(sym.free_count);
    Rng rng(0x0B17ull + static_cast<std::uint64_t>(proto));
    for (std::uint64_t c = 0; c < space; c += stride) {
      const OrbitObservation base = observe(proto, spec, slots, c, authority);
      std::iota(perm.begin(), perm.end(), 0);
      rng.shuffle(perm);
      const std::uint64_t image = faults::permute_free_receivers(sym, c, perm);
      const OrbitObservation moved =
          observe(proto, spec, slots, image, authority);
      ASSERT_EQ(base.verdict, moved.verdict) << "counter " << c;
      ASSERT_EQ(base.anchored, moved.anchored) << "counter " << c;
      ASSERT_EQ(base.free_multiset, moved.free_multiset) << "counter " << c;
    }
  }
}

// ------------------------------- conjugacy invariance, all six protocols
//
// The soundness claim behind the subset quotient: relabeling the faulty
// subset by a sender-fixing node permutation — carrying the behaviour
// table along slot-for-slot — permutes node names and changes nothing
// observable. Checked against real runs of all six protocols: verdict,
// the sender's decision, and the decision multisets of both the faulty
// and the fault-free nodes must be identical.

struct ConjugacyObservation {
  std::string verdict;
  std::string sender_decision;
  std::vector<std::string> faulty_multiset;      // sorted
  std::vector<std::string> fault_free_multiset;  // sorted
};

ConjugacyObservation observe_table(
    Proto proto, const ScenarioSpec& spec,
    const std::map<std::pair<NodeId, NodeId>, Value>& table,
    const SignatureAuthority& authority) {
  MapAdversary adversary(table);
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = &adversary;
  const sim::RunResult result =
      sim::SyncRunner(processes_for(proto, spec, authority), std::move(options))
          .run();
  ConjugacyObservation obs;
  const ConditionReport report = check_conditions(spec, result.decisions);
  obs.verdict = std::string(to_string(report.applied)) +
                (report.satisfied ? "+" : "-");
  for (const auto& [node, value] : result.decisions) {
    const bool is_faulty = std::find(spec.faulty.begin(), spec.faulty.end(),
                                     node) != spec.faulty.end();
    if (node == spec.sender) obs.sender_decision = value.to_string();
    if (is_faulty) {
      obs.faulty_multiset.push_back(value.to_string());
    } else if (node != spec.sender) {
      obs.fault_free_multiset.push_back(value.to_string());
    }
  }
  std::sort(obs.faulty_multiset.begin(), obs.faulty_multiset.end());
  std::sort(obs.fault_free_multiset.begin(), obs.fault_free_multiset.end());
  return obs;
}

TEST(CanonOrbitSim, SixProtocolSubsetConjugacyInvariance) {
  // Non-canonical faulty subsets paired with a sender-fixing relabeling
  // that maps them to their class representative.
  const std::vector<std::pair<Proto, ScenarioSpec>> cases = {
      {Proto::kByz, spec_of(4, {2})},      {Proto::kByz, spec_of(5, {2, 4})},
      {Proto::kOm, spec_of(4, {3})},       {Proto::kCrusader, spec_of(4, {2})},
      {Proto::kSm, spec_of(4, {3})},       {Proto::kIc, spec_of(4, {2})},
      {Proto::kDic, spec_of(5, {2, 4})},
  };
  for (const auto& [proto, spec] : cases) {
    SCOPED_TRACE(spec.to_string() + " proto " +
                 std::to_string(static_cast<int>(proto)));
    ASSERT_FALSE(faults::is_subset_representative(spec.config.n, spec.sender,
                                                  spec.faulty));
    // A sender-fixing permutation carrying faulty -> canonical_subset:
    // map each faulty node to its canonical counterpart, then biject the
    // remaining honest non-senders onto what is left, in ascending order.
    const std::vector<NodeId> rep =
        faults::canonical_subset(spec.config.n, spec.sender, spec.faulty);
    std::vector<NodeId> pi(spec.config.n, -1);
    pi[spec.sender] = spec.sender;
    for (std::size_t i = 0; i < spec.faulty.size(); ++i) {
      pi[spec.faulty[i]] = rep[i];
    }
    NodeId next = 0;
    for (NodeId id = 0; id < spec.config.n; ++id) {
      if (pi[id] != -1) continue;
      while (pi[spec.sender] == next ||
             std::find(rep.begin(), rep.end(), next) != rep.end()) {
        ++next;
      }
      pi[id] = next++;
    }

    ScenarioSpec conjugate = spec;
    conjugate.faulty = rep;
    const SignatureAuthority authority(0x51Full, spec.config.n);
    const auto slots = slots_for(spec);
    const std::array<Value, 4> alphabet = {spec.sender_value, Value::of(100001),
                                           Value::of(100002), Value::def()};
    const std::uint64_t space = pow4(slots.size());
    const std::uint64_t stride = space <= 1024 ? 1 : space / 512;
    for (std::uint64_t c = 0; c < space; c += stride) {
      std::map<std::pair<NodeId, NodeId>, Value> table;
      std::map<std::pair<NodeId, NodeId>, Value> conjugate_table;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const Value v =
            alphabet[faults::behavior_digit(c, slots.size(), i)];
        table[slots[i]] = v;
        conjugate_table[{pi[slots[i].first], pi[slots[i].second]}] = v;
      }
      const ConjugacyObservation base =
          observe_table(proto, spec, table, authority);
      const ConjugacyObservation moved =
          observe_table(proto, conjugate, conjugate_table, authority);
      ASSERT_EQ(base.verdict, moved.verdict) << "counter " << c;
      ASSERT_EQ(base.sender_decision, moved.sender_decision) << "counter " << c;
      ASSERT_EQ(base.faulty_multiset, moved.faulty_multiset) << "counter " << c;
      ASSERT_EQ(base.fault_free_multiset, moved.fault_free_multiset)
          << "counter " << c;
    }
  }
}

// ----------------------------------------- corpus differential, the full
// walk vs the receiver-canonical walk vs the subset-quotient walk

std::uint64_t first_hit_of(const sweep::SweepStats& stats) {
  std::uint64_t best = sweep::kNoHit;
  for (const sweep::ShardStats& shard : stats.per_shard) {
    best = std::min(best, shard.first_hit);
  }
  return best;
}

struct SearchOutcome {
  std::string adversary;  // "(none)" when clean
  std::uint64_t first_hit = sweep::kNoHit;
  sweep::SweepStats stats;
};

SearchOutcome run_search(const Config& config, faults::Reduction reduction,
                         int jobs) {
  sweep::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  SearchOutcome out;
  const auto violation = faults::exhaustive_behavior_search(
      config, {.reduction = reduction}, sweep_options, &out.stats);
  out.adversary = violation.has_value() ? violation->adversary : "(none)";
  out.first_hit = first_hit_of(out.stats);
  return out;
}

void check_differential(const Config& config) {
  SCOPED_TRACE(config.to_string());
  const std::uint64_t space = faults::behavior_search_space(config);
  const std::uint64_t canonical_space =
      faults::behavior_search_canonical_space(config);
  const std::uint64_t quotient_space =
      faults::behavior_search_quotient_space(config);
  ASSERT_LE(canonical_space, space);
  ASSERT_LE(quotient_space, canonical_space);

  const SearchOutcome full =
      run_search(config, faults::Reduction::kNone, 1);
  const SearchOutcome canon =
      run_search(config, faults::Reduction::kOrbits, 1);
  const SearchOutcome quotient =
      run_search(config, faults::Reduction::kQuotient, 1);

  // The tentpole equivalence, one rung at a time: verdict and first-hit
  // ordinal survive the receiver-relabeling reduction and the composed
  // subset quotient exactly.
  EXPECT_EQ(full.adversary, canon.adversary);
  EXPECT_EQ(full.first_hit, canon.first_hit);
  EXPECT_EQ(full.adversary, quotient.adversary);
  EXPECT_EQ(full.first_hit, quotient.first_hit);

  if (full.first_hit == sweep::kNoHit) {
    // Clean sweeps reconcile their counts against the whole space: the
    // full walk executes every ordinal; each reduced walk executes fewer
    // representatives but weights them back to the identical total.
    EXPECT_EQ(full.stats.executions, space);
    EXPECT_EQ(full.stats.weighted_executions, space);
    EXPECT_EQ(canon.stats.executions, canonical_space);
    EXPECT_EQ(canon.stats.weighted_executions, space);
    EXPECT_EQ(quotient.stats.executions, quotient_space);
    EXPECT_EQ(quotient.stats.weighted_executions, space);
  } else {
    // Violating sweeps pin the first hit instead: the winning behaviour
    // rematerializes to the same adversary through the scratch path.
    const auto replay = faults::behavior_at(config, -1, full.first_hit);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->adversary, full.adversary);
  }

  // Canonical counts are canonical: a different jobs value must not move
  // the verdict, the hit, or either execution counter — for either
  // reduced walk.
  const SearchOutcome canon_wide =
      run_search(config, faults::Reduction::kOrbits, 3);
  EXPECT_EQ(canon.adversary, canon_wide.adversary);
  EXPECT_EQ(canon.first_hit, canon_wide.first_hit);
  EXPECT_EQ(canon.stats.executions, canon_wide.stats.executions);
  EXPECT_EQ(canon.stats.weighted_executions,
            canon_wide.stats.weighted_executions);
  const SearchOutcome quotient_wide =
      run_search(config, faults::Reduction::kQuotient, 3);
  EXPECT_EQ(quotient.adversary, quotient_wide.adversary);
  EXPECT_EQ(quotient.first_hit, quotient_wide.first_hit);
  EXPECT_EQ(quotient.stats.executions, quotient_wide.stats.executions);
  EXPECT_EQ(quotient.stats.weighted_executions,
            quotient_wide.stats.weighted_executions);
}

TEST(CanonicalizationCorpus, ThreeWayDifferentialReplay) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/canonicalization.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/canonicalization.txt";
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int n = 0;
    int m = 0;
    int u = 0;
    ASSERT_TRUE(fields >> n >> m >> u) << "bad corpus line: " << line;
    check_differential(Config{.n = n, .m = m, .u = u});
    ++replayed;
  }
  EXPECT_GE(replayed, 12);  // every cheap (n <= 4, m, u) plus spot checks
}

}  // namespace
}  // namespace da
