// Differential property tests for the arena-backed EigTree: a map-based
// reference tree (the pre-arena implementation, kept here as an executable
// specification) must agree with the arena on get()/has(), on resolve()
// under every applicable rule, and — end to end — on the D.1-D.4 verdicts
// of full BYZ executions replayed from their transcripts.
//
// A fixed regression corpus (tests/corpus/eig_layout.txt, lines of
// `seed ordinal`, # comments) replays first; randomized sweeps follow.
//
// The receive path is pinned the same way: `EigTree::admit` plus the
// three per-message checks of `EigProcess::on_round` must accept exactly
// the messages the pre-admit validation accepted (transcribed below as
// `replay_valid`), and `sim::sort_inbox` must order every inbox exactly
// as a plain sort by its comparator does, whether or not it skips the
// sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "faults/search.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/common/eig_process.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace da::protocols {
namespace {

/// Executable specification: the hash-map EIG tree this repo used before
/// the flat arena. Absent slots read as V_d; resolve is the direct
/// recursive transcription of the paper's rule.
class RefEigTree {
 public:
  RefEigTree(NodeId self, NodeId sender, std::vector<NodeId> nodes, int depth)
      : self_(self), sender_(sender), nodes_(std::move(nodes)), depth_(depth) {
    std::sort(nodes_.begin(), nodes_.end());
  }

  void set(const Path& path, Value v) { values_.emplace(path, v); }

  [[nodiscard]] Value get(const Path& path) const {
    const auto it = values_.find(path);
    return it == values_.end() ? Value::def() : it->second;
  }

  [[nodiscard]] bool has(const Path& path) const {
    return values_.contains(path);
  }

  [[nodiscard]] Value resolve(const Resolver& rule) const {
    Path root;
    root.push_back(sender_);
    return resolve_at(root, rule);
  }

 private:
  [[nodiscard]] Value resolve_at(const Path& path,
                                 const Resolver& rule) const {
    if (static_cast<int>(path.size()) == depth_) return get(path);
    const int n_sub = static_cast<int>(nodes_.size()) -
                      static_cast<int>(path.size()) + 1;
    std::vector<Value> w;
    w.push_back(get(path));
    for (NodeId j : nodes_) {
      if (j == self_ || path.contains(j)) continue;
      w.push_back(resolve_at(path.extended(j), rule));
    }
    return rule.resolve(n_sub, w);
  }

  NodeId self_;
  NodeId sender_;
  std::vector<NodeId> nodes_;
  int depth_;
  std::unordered_map<Path, Value> values_;
};

/// Every storable path: starts at the first element of `cur`, distinct
/// participants, length <= depth.
void enumerate_paths(const std::vector<NodeId>& nodes, const Path& cur,
                     int depth, std::vector<Path>* out) {
  out->push_back(cur);
  if (static_cast<int>(cur.size()) == depth) return;
  for (NodeId j : nodes) {
    if (!cur.contains(j)) enumerate_paths(nodes, cur.extended(j), depth, out);
  }
}

/// One ordinal of the tree-level differential: random shape (including
/// non-contiguous, shuffled node ids and self == sender), random sparse
/// fill, then arena and reference compared slot by slot and rule by rule.
bool tree_case(std::uint64_t seed, std::uint64_t ordinal,
               std::string* failure) {
  Rng rng(mix64(seed, ordinal));
  const int n = 2 + static_cast<int>(rng.below(9));  // 2..10
  const int depth = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(std::min(4, n - 1))));
  // Non-contiguous ids with a random base exercise the rank mapping.
  const NodeId base = static_cast<NodeId>(rng.below(4));
  const NodeId stride = 1 + static_cast<NodeId>(rng.below(3));
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes[static_cast<std::size_t>(i)] = base + stride * i;
  }
  const NodeId sender =
      nodes[rng.below(static_cast<std::uint64_t>(n))];
  // self == sender is a storage-only configuration: the sender decides on
  // its own input and never resolves (both implementations assert w-size
  // in resolve under that shape), so resolve comparisons need self to be
  // a receiver. get/has still cover the sender's tree below.
  const NodeId self = nodes[rng.below(static_cast<std::uint64_t>(n))];
  const bool can_resolve = self != sender || depth == 1;
  std::vector<NodeId> shuffled = nodes;
  rng.shuffle(shuffled);

  EigTree arena(self, sender, shuffled, depth);
  RefEigTree ref(self, sender, shuffled, depth);

  Path root;
  root.push_back(sender);
  std::vector<Path> paths;
  enumerate_paths(nodes, root, depth, &paths);
  for (const Path& p : paths) {
    const std::uint64_t roll = rng.below(10);
    if (roll >= 6) continue;  // leave the slot absent
    const Value v =
        roll == 0 ? Value::def() : Value::of(rng.range(1, 5));
    arena.set(p, v);
    ref.set(p, v);
  }

  const auto describe = [&](const char* what) {
    std::ostringstream out;
    out << "iter " << ordinal << " n=" << n << " depth=" << depth
        << " sender=" << sender << " self=" << self << ": " << what;
    return out.str();
  };

  for (const Path& p : paths) {
    if (arena.has(p) != ref.has(p) || !(arena.get(p) == ref.get(p))) {
      *failure = describe("get/has mismatch");
      return true;
    }
  }
  if (can_resolve) {
    const MajorityResolver majority;
    if (!(arena.resolve(majority) == ref.resolve(majority))) {
      *failure = describe("majority resolve mismatch");
      return true;
    }
    // Every m for which the deepest sub-instance still has alpha >= 1.
    for (int m = 0; m <= n - depth - 1; ++m) {
      const ByzResolver rule(m);
      if (!(arena.resolve(rule) == ref.resolve(rule))) {
        *failure = describe("byz resolve mismatch");
        return true;
      }
    }
  }
  return false;
}

/// Receive-side validation as EigProcess performed it before `admit()`
/// fused it into one walk (participants are the ids 0..n-1).
bool replay_valid(NodeId self, NodeId sender, int n, int round,
                  const sim::Message& msg) {
  if (msg.to != self) return false;
  if (static_cast<int>(msg.path.size()) != round + 1) return false;
  if (msg.path.front() != sender) return false;
  if (msg.path.back() != msg.from) return false;
  if (!msg.path.distinct()) return false;
  if (msg.path.contains(self)) return false;
  for (NodeId hop : msg.path) {
    if (hop < 0 || hop >= n) return false;
  }
  return true;
}

/// One ordinal of the end-to-end differential: run BYZ(m) on the sync
/// runner under a randomly drawn member of the standard attack family,
/// replay each fault-free receiver's transcript into the reference tree
/// (same validation and first-delivery-wins dedupe as EigProcess), and
/// require identical decisions and identical D.1-D.4 verdicts.
bool verdict_case(std::uint64_t seed, std::uint64_t ordinal,
                  std::string* failure) {
  Rng rng(mix64(seed, ordinal));
  const int m = static_cast<int>(rng.below(4));  // depth = m+1 <= 4
  const int u = std::max(1, m + static_cast<int>(rng.below(3)));
  const int slack = static_cast<int>(rng.below(2));
  const Config config{.n = 2 * m + u + 1 + slack, .m = m, .u = u};
  if (config.n > 10) return false;  // keep the sweep bounded

  ScenarioSpec spec;
  spec.config = config;
  spec.sender =
      static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(config.n)));
  spec.sender_value = Value::of(rng.range(1, 100));
  const int f = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(config.u) + 1));
  const auto subset = rng.subset(config.n, f);
  spec.faulty.assign(subset.begin(), subset.end());

  const auto family = faults::standard_family(mix64(seed, ordinal));
  const auto& factory = family[rng.below(family.size())];
  const auto adversary = factory.make(spec);

  sim::Trace trace;
  sim::RunOptions options;
  options.faulty = spec.faulty;
  options.adversary = adversary.get();
  options.trace = &trace;
  sim::SyncRunner runner(
      core::make_byz_processes(config, spec.sender, spec.sender_value),
      std::move(options));
  const sim::RunResult result = runner.run();

  const int depth = core::byz_depth(m);
  const ByzResolver rule(m);
  std::vector<NodeId> all(static_cast<std::size_t>(config.n));
  std::iota(all.begin(), all.end(), 0);

  std::map<NodeId, Value> ref_decisions = result.decisions;
  for (NodeId node : spec.fault_free_receivers()) {
    RefEigTree ref(node, spec.sender, all, depth);
    std::vector<std::vector<sim::Message>> by_round(
        static_cast<std::size_t>(depth));
    for (const sim::Message& msg : trace.received(node)) {
      if (msg.round >= 0 && msg.round < depth) {
        by_round[static_cast<std::size_t>(msg.round)].push_back(msg);
      }
    }
    for (int r = 0; r < depth; ++r) {
      auto& inbox = by_round[static_cast<std::size_t>(r)];
      sim::sort_inbox(inbox);
      for (const sim::Message& msg : inbox) {
        if (!replay_valid(node, spec.sender, config.n, r, msg)) continue;
        if (ref.has(msg.path)) continue;
        ref.set(msg.path, msg.value);
      }
    }
    ref_decisions[node] = ref.resolve(rule);
    if (!(ref_decisions[node] == result.decisions.at(node))) {
      *failure = "iter " + std::to_string(ordinal) + " " + spec.to_string() +
                 " adversary=" + factory.name + ": node " +
                 std::to_string(node) + " decision mismatch";
      return true;
    }
  }

  const ConditionReport run_report = check_conditions(spec, result.decisions);
  const ConditionReport ref_report = check_conditions(spec, ref_decisions);
  if (run_report.applied != ref_report.applied ||
      run_report.satisfied != ref_report.satisfied ||
      run_report.value_class != ref_report.value_class ||
      run_report.default_class != ref_report.default_class ||
      run_report.corollary_m_plus_1 != ref_report.corollary_m_plus_1) {
    *failure = "iter " + std::to_string(ordinal) + " " + spec.to_string() +
               " adversary=" + factory.name + ": verdict mismatch (" +
               run_report.detail + " vs " + ref_report.detail + ")";
    return true;
  }
  return false;
}

/// Replays tests/corpus/eig_layout.txt through one of the case functions.
void replay_corpus(bool (*layout_case)(std::uint64_t, std::uint64_t,
                                       std::string*)) {
  std::ifstream in(std::string(DA_TEST_CORPUS_DIR) + "/eig_layout.txt");
  ASSERT_TRUE(in.is_open()) << "missing tests/corpus/eig_layout.txt";
  std::string line;
  int replayed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::uint64_t ordinal = 0;
    ASSERT_TRUE(fields >> seed >> ordinal) << "bad corpus line: " << line;
    std::string failure;
    EXPECT_FALSE(layout_case(seed, ordinal, &failure))
        << "eig_layout.txt " << seed << " " << ordinal << ": " << failure;
    ++replayed;
  }
  EXPECT_GE(replayed, 4) << "eig_layout.txt corpus is unexpectedly small";
}

TEST(EigLayoutProperty, CorpusTreeReplay) { replay_corpus(tree_case); }

TEST(EigLayoutProperty, CorpusVerdictReplay) { replay_corpus(verdict_case); }

TEST(EigLayoutProperty, ArenaMatchesReferenceTree) {
  constexpr std::uint64_t kIterations = 300;
  for (std::uint64_t ordinal = 0; ordinal < kIterations; ++ordinal) {
    std::string failure;
    ASSERT_FALSE(tree_case(0xA12E4A, ordinal, &failure)) << failure;
  }
}

TEST(EigLayoutProperty, VerdictsMatchReference) {
  constexpr std::uint64_t kIterations = 80;
  for (std::uint64_t ordinal = 0; ordinal < kIterations; ++ordinal) {
    std::string failure;
    ASSERT_FALSE(verdict_case(0x5EED5, ordinal, &failure)) << failure;
  }
}

TEST(EigAdmit, MatchesReferenceValidationExhaustively) {
  // n = 5, depth 3: every message whose to/from lie in {-1..5}, whose
  // path has length 0..4 over the same ids, and whose round is 0..2, at
  // every receiver (sender included) of two sender placements.
  constexpr int kN = 5;
  constexpr int kDepth = 3;
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4};
  const std::vector<NodeId> ids{-1, 0, 1, 2, 3, 4, 5};
  std::vector<Path> paths{Path{}};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].size() == 4) continue;
    for (NodeId id : ids) paths.push_back(paths[i].extended(id));
  }
  ASSERT_EQ(paths.size(), 1u + 7u + 49u + 343u + 2401u);

  for (NodeId sender : {0, 3}) {
    for (NodeId self : nodes) {
      const EigTree tree(self, sender, nodes, kDepth);
      Path root;
      root.push_back(sender);
      std::vector<Path> storable;
      enumerate_paths(nodes, root, kDepth, &storable);
      std::set<std::uint32_t> ordinals;
      std::size_t admitted = 0;
      int mismatches = 0;
      for (const Path& path : paths) {
        const std::uint32_t ord = tree.admit(path);
        if (ord != EigTree::kReject) {
          ++admitted;
          EXPECT_EQ(ord, tree.ordinal_of(path)) << path.to_string();
          ordinals.insert(ord);
        }
        for (int round = 0; round < kDepth; ++round) {
          for (NodeId to : ids) {
            for (NodeId from : ids) {
              const sim::Message msg{
                  .from = from, .to = to, .round = round, .path = path};
              // EigProcess::on_round's per-message checks, then admit().
              const bool fused =
                  msg.to == self &&
                  msg.path.size() == static_cast<std::size_t>(round) + 1 &&
                  msg.path.back() == msg.from && ord != EigTree::kReject;
              const bool ref = replay_valid(self, sender, kN, round, msg);
              if (fused != ref && ++mismatches <= 5) {
                ADD_FAILURE() << "sender " << sender << " self " << self
                              << " round " << round << ": "
                              << msg.to_string() << " admit " << fused
                              << " reference " << ref;
              }
            }
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << "sender " << sender << " self " << self;
      // The admitted paths are exactly the storable ones avoiding self,
      // on distinct slots; the sender admits nothing.
      const std::size_t expected =
          self == sender
              ? 0
              : static_cast<std::size_t>(std::count_if(
                    storable.begin(), storable.end(),
                    [self](const Path& p) { return !p.contains(self); }));
      EXPECT_EQ(admitted, expected) << "sender " << sender << " self " << self;
      EXPECT_EQ(ordinals.size(), admitted);
    }
  }
}

/// The canonical inbox order, transcribed: (from, path, value, aux).
bool inbox_before(const sim::Message& a, const sim::Message& b) {
  if (a.from != b.from) return a.from < b.from;
  if (!(a.path == b.path)) return a.path < b.path;
  if (a.value != b.value) return a.value < b.value;
  return a.aux < b.aux;
}

/// sort_inbox(inbox) must equal a plain std::sort of it.
void expect_canonical_sort(std::vector<sim::Message> inbox,
                           const std::string& what) {
  std::vector<sim::Message> plain = inbox;
  std::sort(plain.begin(), plain.end(), inbox_before);
  sim::sort_inbox(inbox);
  EXPECT_EQ(inbox, plain) << what;
}

/// Runs an honest EIG instance delivering as RoundEngine does over
/// reliable links — senders in position order, each outbox in emission
/// order — and hands every receiver's raw inbox to `visit` before sorting.
template <typename Visit>
void honest_inboxes(int n, int depth, Visit visit) {
  auto procs = make_eig_processes(n, 0, Value::of(7), depth,
                                  std::make_shared<MajorityResolver>());
  std::vector<std::vector<sim::Message>> outboxes(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    outboxes[i] = procs[i]->start();
  }
  for (int r = 0; r < depth; ++r) {
    std::vector<std::vector<sim::Message>> inboxes(procs.size());
    for (std::vector<sim::Message>& outbox : outboxes) {
      for (sim::Message& msg : outbox) {
        msg.round = r;
        inboxes[static_cast<std::size_t>(msg.to)].push_back(msg);
      }
      outbox.clear();
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
      visit(r, static_cast<NodeId>(i), inboxes[i]);
      sim::sort_inbox(inboxes[i]);
      procs[i]->on_round(r, inboxes[i], outboxes[i]);
    }
  }
}

TEST(SortInbox, HonestShallowInboxesArriveCanonical) {
  // Depth <= 3: every honest inbox is already in canonical order, so
  // sort_inbox only checks it.
  for (int depth = 1; depth <= 3; ++depth) {
    int checked = 0;
    honest_inboxes(6, depth, [&](int r, NodeId node,
                                 const std::vector<sim::Message>& inbox) {
      const std::string what = "depth " + std::to_string(depth) + " round " +
                               std::to_string(r) + " node " +
                               std::to_string(node);
      EXPECT_TRUE(std::is_sorted(inbox.begin(), inbox.end(), inbox_before))
          << what;
      expect_canonical_sort(inbox, what);
      checked += static_cast<int>(inbox.size());
    });
    EXPECT_GT(checked, 0);
  }
}

TEST(SortInbox, DeepRelayInboxesFallBackToTheSort) {
  // Depth 4: a relayer forwards its round-2 values in (last hop, path)
  // order, which is not lexicographic in the extended paths, so round 3
  // arrives out of order and must be sorted.
  int unsorted = 0;
  honest_inboxes(6, 4, [&](int r, NodeId node,
                           const std::vector<sim::Message>& inbox) {
    if (!std::is_sorted(inbox.begin(), inbox.end(), inbox_before)) {
      ++unsorted;
    }
    expect_canonical_sort(inbox, "depth 4 round " + std::to_string(r) +
                                     " node " + std::to_string(node));
  });
  EXPECT_GT(unsorted, 0);
}

TEST(SortInbox, FabricatedDuplicatesSortByValueThenAux) {
  // A fabricating adversary may send several contents for one (from,
  // path) slot, and exact duplicates; the order is still total.
  const auto msg = [](NodeId from, Path path, int value, std::int64_t aux) {
    return sim::Message{.from = from,
                        .to = 4,
                        .round = 1,
                        .path = path,
                        .value = Value::of(value),
                        .aux = aux};
  };
  const std::vector<sim::Message> inbox{
      msg(2, Path{0, 2}, 9, 0), msg(1, Path{0, 1}, 9, 0),
      msg(1, Path{0, 1}, 3, 1), msg(1, Path{0, 1}, 3, 0),
      msg(2, Path{0, 2}, 9, 0), msg(1, Path{0, 3}, 5, 0),
      msg(1, Path{0, 1}, 3, 0)};
  expect_canonical_sort(inbox, "fabricated duplicates");
  std::vector<sim::Message> sorted = inbox;
  std::sort(sorted.begin(), sorted.end(), inbox_before);
  expect_canonical_sort(sorted, "fabricated duplicates, presorted");
  EXPECT_FALSE(std::is_sorted(inbox.begin(), inbox.end(), inbox_before));
}

}  // namespace
}  // namespace da::protocols
