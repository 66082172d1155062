#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "faults/frontier.hpp"
#include "faults/search.hpp"
#include "sweep/sweep.hpp"

namespace da::faults {

/// How much of the behaviour space's symmetry the walk quotients out.
/// Every level returns the same verdict and first-hit ordinal, and on a
/// clean sweep the same weighted execution count; only the number of
/// representatives actually executed shrinks. Every level forks each
/// execution from a checkpointed post-round-0 state (docs/SEARCH.md §4).
enum class Reduction {
  /// Every ordinal of the 4^k space executes (the test reference).
  kNone,
  /// One representative per receiver-relabeling orbit, weighted by its
  /// orbit size (docs/SEARCH.md §5). A v1 frontier resumes at this level.
  kOrbits,
  /// kOrbits plus one faulty subset per conjugacy class under
  /// sender-fixing node permutations; a representative's weight is its
  /// orbit size times its class size, and conjugate segments never
  /// execute at all (docs/SEARCH.md §6). Production; v2 frontiers.
  kQuotient,
};

struct BehaviorSearchOptions {
  /// Largest fault count to try; -1 means the config's u.
  int max_f = -1;
  Reduction reduction = Reduction::kQuotient;
};

/// Exhaustive *behaviour* search for depth-2 instances (BYZ(m,m) with
/// m <= 1): instead of a fixed adversary family, enumerate every
/// deterministic assignment of values to every message a faulty node
/// sends, over the canonical four-symbol alphabet
///
///     { sender's value, forged w1, forged w2, V_d }.
///
/// For threshold-vote protocols a message's effect depends only on the
/// equality pattern among received values; a violation of D.1/D.3 needs
/// the forged bloc concentrated on one non-sender value, and a violation
/// of D.2/D.4 needs at most two distinct fault-free classes — so two
/// distinct forged symbols cover every equality pattern an adversary can
/// force, and omission is equivalent to delivering V_d (an unset EIG slot
/// reads as V_d). Under that standard canonicalization the sweep is
/// adversary-complete, not merely family-complete. docs/SEARCH.md spells
/// the argument out in full, with its caveats.
///
/// Controlled slots per faulty node: its round-0 broadcast (if it is the
/// sender: n-1 destinations) and its round-1 relay of the sender slot
/// (n-2 destinations). The enumeration is exponential in the slot count:
/// keep n small (n = 4: <= 4^7; n = 5: <= 4^11 in the worst subset). A
/// config whose widest faulty subset controls more than
/// `kMaxBehaviorSlots` slots is rejected with `UnsupportedConfig` (see
/// `behavior_search_unsupported`).
///
/// Returns the first violating scenario, or nullopt if *no behaviour at
/// all* breaks the conditions — the executable form of Theorem 1 for
/// these configurations.
///
/// The sweep is sharded deterministically over the high-order base-4
/// digits of each subset's behaviour index and run on a work-stealing
/// pool (see src/sweep/). Behaviour digits are big-endian (slot 0 =
/// most-significant digit), so ordinals sharing leading digits share
/// their round-0 assignment: each shard forks every execution from a
/// checkpointed post-round-0 state instead of replaying round 0, which is
/// observationally identical to a scratch execution
/// (tests/test_fork_engine.cpp). For every `sweep_options.jobs` value —
/// and for every reduction level — it returns the same
/// first-violation-or-nullopt verdict, the same first-hit ordinal, and
/// the same canonical counts (`stats->executions` for a fixed level,
/// `stats->weighted_executions` across levels); `stats` (optional)
/// additionally receives per-shard counters for scaling reports.
/// Most message slots one faulty subset may control: 4^12 (16.8M)
/// behaviours keeps every segment of the walk bounded.
inline constexpr std::size_t kMaxBehaviorSlots = 12;

/// Why the behaviour search rejects `config` up to `max_f` faults (-1 =
/// the config's u), or nullopt if it can walk it. The one home of the
/// slot cap: the widest subset is a faulty sender (n-1 slots) plus
/// max_f-1 faulty relays (n-2 slots each). Every entry point below
/// throws `UnsupportedConfig` with this reason, except
/// `run_behavior_frontier`, which reports it as its error.
[[nodiscard]] std::optional<std::string> behavior_search_unsupported(
    const Config& config, int max_f = -1);

[[nodiscard]] std::optional<Violation> exhaustive_behavior_search(
    const Config& config, const BehaviorSearchOptions& options = {},
    const sweep::SweepOptions& sweep_options = {},
    sweep::SweepStats* stats = nullptr);

/// Number of protocol executions a clean kNone walk performs — the full
/// 4^k ordinal space (for reporting and reconciliation).
[[nodiscard]] std::uint64_t behavior_search_space(const Config& config,
                                                  int max_f = -1);

/// Number of canonical orbit representatives a clean kOrbits walk
/// executes: sum over segments of 4^fixed *
/// multichoose(4^rows, free receivers). Always <= behavior_search_space.
[[nodiscard]] std::uint64_t behavior_search_canonical_space(
    const Config& config, int max_f = -1);

/// Number of representatives a clean kQuotient walk executes: the
/// canonical count summed over representative subsets only. Always <=
/// behavior_search_canonical_space.
[[nodiscard]] std::uint64_t behavior_search_quotient_space(
    const Config& config, int max_f = -1);

/// Re-executes the single behaviour at a global ordinal (scratch path, no
/// sweep) and reports its violation, if any. This is how a resumed
/// frontier rematerializes the Violation for a hit ordinal recorded by an
/// earlier process, and how tests map orbit members to their verdicts.
[[nodiscard]] std::optional<Violation> behavior_at(const Config& config,
                                                   int max_f,
                                                   std::uint64_t ordinal);

/// Builds a fresh (untouched) frontier for the behaviour search: one
/// record per sweep shard, cursors at their shard heads. `seed` is
/// stored in the frontier so every resuming process derives identical
/// per-shard RNG streams. At kQuotient (the default) the frontier
/// carries one class record per conjugacy class and serializes as
/// `da-frontier v2`; any other level writes the full v1 plan. The level
/// is baked into the file: a run derives it from the class records, so
/// v2 files resume at kQuotient and v1 files at kOrbits.
[[nodiscard]] Frontier init_behavior_frontier(
    const Config& config, int max_f = -1, std::uint64_t seed = 1,
    Reduction reduction = Reduction::kQuotient);

struct FrontierRunOptions {
  int jobs = 1;
  /// Suspend after this many shard completions in *this* run (the
  /// kill-and-resume unit); -1 runs to settlement. Suspension is
  /// cooperative: in-flight shards park their cursors in the frontier.
  int max_shards = -1;
  /// Invoked (serialized, from worker threads) with the updated frontier
  /// each time a shard settles — hook the atomic save_frontier here for
  /// crash-safe incremental checkpoints.
  std::function<void(const Frontier&)> checkpoint;
};

struct FrontierRun {
  /// The violation at the frontier's best hit ordinal (rematerialized by
  /// re-execution when the hit was found by an earlier run). Only final
  /// once `settled`.
  std::optional<Violation> violation;
  sweep::SweepStats stats;
  /// Verdict is final: the frontier covers the space and no unscanned
  /// ordinal precedes the best hit. The frontier has been normalized
  /// (schedule-dependent post-hit progress discarded), so its serialized
  /// form is byte-identical for any jobs value / interruption pattern.
  bool settled = false;
  /// Non-empty when the frontier does not match the search's shard plan.
  std::string error;
};

/// Runs (or resumes) the behaviour search described by `frontier`,
/// updating it in place. The frontier may be a split part (a subset of
/// the plan's shards): foreign shards are left untouched and the verdict
/// settles only on a space-covering frontier.
[[nodiscard]] FrontierRun run_behavior_frontier(
    Frontier& frontier, const FrontierRunOptions& options = {});

}  // namespace da::faults
