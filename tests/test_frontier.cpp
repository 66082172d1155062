// Serialized search frontiers (faults/frontier.hpp): the v1 text format
// round-trips exactly, the parser rejects every class of damage a crashed
// or concatenated file can exhibit, split/merge is a lossless partition,
// and — the tentpole guarantee — a behaviour sweep killed at *any*
// checkpoint boundary and resumed under *any* --jobs value converges to a
// byte-identical normalized artifact.

#include "faults/frontier.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/behavior_search.hpp"
#include "sweep/sweep.hpp"

namespace da {
namespace {

constexpr Config kViolating{.n = 4, .m = 1, .u = 2};  // hit at ordinal 129
constexpr Config kClean{.n = 4, .m = 1, .u = 1};      // exhaustively clean

/// The byte-comparable artifact: the normalized serialized frontier.
std::string artifact_of(faults::Frontier frontier) {
  frontier.normalize();
  return serialize_frontier(frontier);
}

/// Runs a fresh frontier for `config` to settlement in one shot.
faults::Frontier settle(const Config& config, int jobs = 1) {
  faults::Frontier frontier = faults::init_behavior_frontier(config);
  faults::FrontierRunOptions options;
  options.jobs = jobs;
  const faults::FrontierRun run =
      faults::run_behavior_frontier(frontier, options);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.settled);
  return frontier;
}

// ------------------------------------------------------------ the format

TEST(Frontier, SerializeParseRoundTrip) {
  const faults::Frontier fresh = faults::init_behavior_frontier(kViolating);
  ASSERT_GT(fresh.shards.size(), 1u);
  ASSERT_FALSE(fresh.classes.empty());  // quotiented by default: v2
  EXPECT_TRUE(fresh.covers_space());
  EXPECT_FALSE(fresh.settled());
  EXPECT_EQ(fresh.best_hit(), sweep::kNoHit);

  const std::string text = serialize_frontier(fresh);
  EXPECT_EQ(text.rfind("da-frontier v2\n", 0), 0u);
  const faults::FrontierParse parsed = faults::parse_frontier(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(serialize_frontier(*parsed.frontier), text);
  EXPECT_EQ(parsed.frontier->space, fresh.space);
  EXPECT_EQ(parsed.frontier->shards.size(), fresh.shards.size());
  EXPECT_EQ(parsed.frontier->classes.size(), fresh.classes.size());

  // The unquotiented plan keeps serializing in the v1 format, and still
  // covers the (larger, gapless) shard set.
  const faults::Frontier plain =
      faults::init_behavior_frontier(kViolating, -1, 1,
                                     faults::Reduction::kOrbits);
  EXPECT_TRUE(plain.classes.empty());
  EXPECT_TRUE(plain.covers_space());
  EXPECT_GT(plain.shards.size(), fresh.shards.size());
  const std::string plain_text = serialize_frontier(plain);
  EXPECT_EQ(plain_text.rfind("da-frontier v1\n", 0), 0u);
  const faults::FrontierParse plain_parsed = faults::parse_frontier(plain_text);
  ASSERT_TRUE(plain_parsed.ok()) << plain_parsed.error;
  EXPECT_EQ(serialize_frontier(*plain_parsed.frontier), plain_text);

  // A settled frontier (cursors, counters and a hit populated) must
  // round-trip just as exactly.
  const faults::Frontier done = settle(kViolating);
  ASSERT_NE(done.best_hit(), sweep::kNoHit);
  const std::string done_text = serialize_frontier(done);
  const faults::FrontierParse reparsed = faults::parse_frontier(done_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(serialize_frontier(*reparsed.frontier), done_text);
  EXPECT_EQ(reparsed.frontier->best_hit(), done.best_hit());
}

TEST(Frontier, ParserRejectsDamage) {
  const std::string good =
      serialize_frontier(faults::init_behavior_frontier(kViolating));

  const auto error_of = [](const std::string& text) {
    const faults::FrontierParse parsed = faults::parse_frontier(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text.substr(0, 60);
    return parsed.error;
  };

  EXPECT_EQ(error_of(""), "empty frontier");
  EXPECT_EQ(error_of("something else\n"), "not a frontier file");
  EXPECT_EQ(error_of("da-frontier v3\nconfig 4 1 2 2 1 3952\nend 0\n"),
            "unsupported frontier version: v3");
  EXPECT_EQ(error_of("da-frontier v1\n"), "truncated frontier: no config");
  EXPECT_EQ(error_of("da-frontier v1\nconfig 4 x\nend 0\n"),
            "malformed config line");
  EXPECT_EQ(error_of("da-frontier v1\nconfig 0 0 0 -1 1 5\nend 0\n"),
            "invalid config");
  EXPECT_EQ(error_of("da-frontier v1\nconfig 4 1 2 2 1 0\nend 0\n"),
            "empty search space");

  // Truncation: chop the `end` trailer, then miscount it.
  const std::string no_end = good.substr(0, good.rfind("end "));
  EXPECT_EQ(error_of(no_end), "truncated frontier: missing end record");
  EXPECT_EQ(error_of(no_end + "end 1\n"),
            "truncated frontier: shard count mismatch");

  // Shard-level damage, spliced into a minimal two-shard frontier.
  const std::string header = "da-frontier v1\nconfig 4 1 2 2 1 3952\n";
  const auto with_shards = [&](const std::string& shards, int count) {
    return header + shards + "end " + std::to_string(count) + "\n";
  };
  EXPECT_EQ(error_of(with_shards("shard 0 0 0 0 0 -\n", 1)),
            "empty shard range");
  EXPECT_EQ(error_of(with_shards("shard 0 9999 0 0 0 -\n", 1)),
            "shard beyond space");
  EXPECT_EQ(error_of(with_shards("shard 0 16 0 0 0 -\nshard 0 16 0 0 0 -\n", 2)),
            "duplicate shard");
  EXPECT_EQ(error_of(with_shards("shard 0 16 0 0 0 -\nshard 8 32 8 0 0 -\n", 2)),
            "overlapping shards");
  EXPECT_EQ(error_of(with_shards("shard 0 16 20 0 0 -\n", 1)),
            "cursor out of range");
  EXPECT_EQ(error_of(with_shards("shard 0 16 16 16 16 99\n", 1)),
            "hit outside shard");
  EXPECT_EQ(error_of(with_shards("shard 0 16 8 8 8 3\n", 1)),
            "hit with unsettled cursor");
  EXPECT_EQ(error_of(with_shards("shard 0 16 16 16 16 bogus\n", 1)),
            "malformed shard hit");
  EXPECT_EQ(error_of(with_shards("record 0 16 0 0 0 -\n", 1)),
            "unknown record: record");

  // v2 class-table damage, spliced into a minimal quotiented frontier
  // (one 16-ordinal class standing for 247 conjugates: 16*247 = 3952).
  const std::string v2_header = "da-frontier v2\nconfig 4 1 2 2 1 3952\n";
  const auto v2_with = [&](const std::string& body, int count) {
    return v2_header + body + "end " + std::to_string(count) + "\n";
  };
  EXPECT_EQ(error_of(v2_with("", 0)), "v2 frontier without class records");
  EXPECT_EQ(error_of(with_shards("class 0 16 247\n", 0)),
            "class record in a v1 frontier");
  EXPECT_EQ(error_of(v2_with("class 0 16 x\n", 0)), "malformed class line");
  EXPECT_EQ(error_of(v2_with("class 0 16 247\nshard 0 16 0 0 0 -\n"
                             "class 0 16 247\n",
                             1)),
            "class record after shard records");
  EXPECT_EQ(error_of(v2_with("class 0 0 247\n", 0)), "invalid class record");
  EXPECT_EQ(error_of(v2_with("class 0 9999 1\n", 0)), "class beyond space");
  EXPECT_EQ(error_of(v2_with("class 0 16 1\nclass 0 16 246\n", 0)),
            "duplicate class");
  EXPECT_EQ(error_of(v2_with("class 0 16 1\nclass 8 16 246\n", 0)),
            "overlapping classes");
  EXPECT_EQ(error_of(v2_with("class 0 16 246\n", 0)),
            "class weights do not reconcile to the space");
  EXPECT_EQ(
      error_of(v2_with("class 0 16 1152921504606846976\n", 0)),
      "class weights overflow");
  EXPECT_EQ(error_of(v2_with("class 0 16 247\nshard 16 32 16 0 0 -\n", 1)),
            "shard outside class ranges");
}

TEST(Frontier, SplitMergeIsLossless) {
  const faults::Frontier whole = settle(kViolating);
  const std::string reference = serialize_frontier(whole);

  for (const std::size_t parts : {std::size_t{1}, std::size_t{3},
                                  whole.shards.size() + 2}) {
    const std::vector<faults::Frontier> split =
        faults::split_frontier(whole, parts);
    ASSERT_EQ(split.size(), parts);
    std::size_t shard_total = 0;
    for (const faults::Frontier& part : split) {
      shard_total += part.shards.size();
      if (part.shards.size() < whole.shards.size()) {
        EXPECT_FALSE(part.covers_space());
        EXPECT_FALSE(part.settled()) << "split parts must not settle alone";
      }
    }
    EXPECT_EQ(shard_total, whole.shards.size());
    const faults::FrontierParse merged = faults::merge_frontiers(split);
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(serialize_frontier(*merged.frontier), reference);
  }

  // A part merged twice duplicates its shards — same rejection as the
  // parser's.
  const std::vector<faults::Frontier> split = faults::split_frontier(whole, 2);
  const faults::FrontierParse dup =
      faults::merge_frontiers({split[0], split[1], split[0]});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.error, "duplicate shard");

  // Parts from different searches must not merge.
  faults::Frontier foreign = faults::init_behavior_frontier(kClean);
  const faults::FrontierParse mixed = faults::merge_frontiers({whole, foreign});
  EXPECT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.error, "header mismatch");
}

TEST(Frontier, SaveLoadAtomicRoundTrip) {
  const faults::Frontier frontier = faults::init_behavior_frontier(kClean);
  const std::string path =
      testing::TempDir() + "da_frontier_roundtrip.frontier";
  ASSERT_TRUE(faults::save_frontier(frontier, path));
  const faults::FrontierParse loaded = faults::load_frontier(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(serialize_frontier(*loaded.frontier), serialize_frontier(frontier));
  std::remove(path.c_str());

  const faults::FrontierParse missing = faults::load_frontier(path);
  EXPECT_FALSE(missing.ok());
}

// ------------------------------------------------------ resume semantics

TEST(FrontierRun, CleanSweepReconcilesCounts) {
  const faults::Frontier frontier = settle(kClean, /*jobs=*/2);
  EXPECT_EQ(frontier.best_hit(), sweep::kNoHit);
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;
  for (const faults::FrontierShard& shard : frontier.shards) {
    EXPECT_TRUE(shard.settled());
    executions += shard.executions;
    weighted += shard.weighted;
  }
  EXPECT_EQ(executions, faults::behavior_search_quotient_space(kClean));
  EXPECT_EQ(weighted, faults::behavior_search_space(kClean));
  EXPECT_EQ(weighted, frontier.space);
}

// The widest faulty subset is a faulty sender (n-1 slots) plus max_f-1
// relays (n-2 each). Past kMaxBehaviorSlots every entry point rejects the
// config with one typed reason instead of aborting on a contract.
TEST(FrontierRun, SlotCapIsATypedRejection) {
  EXPECT_EQ(faults::behavior_search_unsupported({.n = 13, .m = 1, .u = 1}),
            std::nullopt);  // 12 slots: the cap itself
  const Config wide{.n = 14, .m = 1, .u = 1};  // 13 slots
  const auto problem = faults::behavior_search_unsupported(wide);
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("13 message slots"), std::string::npos) << *problem;
  // max_f picks the widest subset: (8,1,2) holds 7 slots at f = 1 and
  // 7 + 6 = 13 at its u = 2.
  const Config two{.n = 8, .m = 1, .u = 2};
  EXPECT_EQ(faults::behavior_search_unsupported(two, 1), std::nullopt);
  EXPECT_TRUE(faults::behavior_search_unsupported(two).has_value());

  EXPECT_THROW((void)faults::init_behavior_frontier({.n = 20, .m = 1, .u = 1}),
               UnsupportedConfig);
  EXPECT_THROW((void)faults::exhaustive_behavior_search(wide),
               UnsupportedConfig);
  EXPECT_THROW((void)faults::behavior_at(wide, -1, 0), UnsupportedConfig);
  // A frontier whose header names such a config fails its run with the
  // same reason.
  faults::Frontier frontier = faults::init_behavior_frontier(kClean);
  frontier.config = wide;
  const faults::FrontierRun run = faults::run_behavior_frontier(frontier, {});
  EXPECT_NE(run.error.find("13 message slots"), std::string::npos)
      << run.error;
}

TEST(FrontierRun, KillAndResumeAtEveryBoundaryIsByteIdentical) {
  const std::string reference = artifact_of(settle(kViolating));

  // Suspend after every possible number of settled shards, then resume to
  // completion — through a serialize/parse round trip, exactly as a new
  // process would — alternating jobs values across runs.
  const std::size_t shard_count =
      faults::init_behavior_frontier(kViolating).shards.size();
  for (std::size_t boundary = 1; boundary <= shard_count; ++boundary) {
    SCOPED_TRACE("suspend after " + std::to_string(boundary) + " shards");
    faults::Frontier frontier = faults::init_behavior_frontier(kViolating);
    int runs = 0;
    int checkpoints = 0;
    bool settled = false;
    while (!settled) {
      ASSERT_LT(runs, 64) << "frontier failed to converge";
      faults::FrontierRunOptions options;
      options.jobs = (runs % 2 == 0) ? 1 : 3;
      options.max_shards = static_cast<int>(boundary);
      options.checkpoint = [&checkpoints](const faults::Frontier& snapshot) {
        // Every incremental checkpoint must itself round-trip.
        const faults::FrontierParse parsed =
            faults::parse_frontier(serialize_frontier(snapshot));
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        ++checkpoints;
      };
      const faults::FrontierRun run =
          faults::run_behavior_frontier(frontier, options);
      ASSERT_TRUE(run.error.empty()) << run.error;
      settled = run.settled;
      if (settled) {
        ASSERT_TRUE(run.violation.has_value());
        EXPECT_EQ(run.violation->spec.config.n, kViolating.n);
      }
      // Reload from bytes: resuming must survive the serialized form.
      const faults::FrontierParse reloaded =
          faults::parse_frontier(serialize_frontier(frontier));
      ASSERT_TRUE(reloaded.ok()) << reloaded.error;
      frontier = *reloaded.frontier;
      ++runs;
    }
    EXPECT_GT(checkpoints, 0);
    EXPECT_EQ(artifact_of(frontier), reference);
  }
}

TEST(FrontierRun, SplitPartsMergeToTheSameArtifact) {
  const std::string reference = artifact_of(settle(kViolating));

  // Run each split part in isolation — different jobs per part, as
  // distributed workers would — then merge and compare bytes.
  const std::vector<faults::Frontier> parts =
      faults::split_frontier(faults::init_behavior_frontier(kViolating), 3);
  std::vector<faults::Frontier> finished;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    faults::Frontier part = parts[i];
    faults::FrontierRunOptions options;
    options.jobs = static_cast<int>(i) + 1;
    const faults::FrontierRun run =
        faults::run_behavior_frontier(part, options);
    ASSERT_TRUE(run.error.empty()) << run.error;
    EXPECT_FALSE(run.settled) << "a split part must not settle alone";
    finished.push_back(std::move(part));
  }
  const faults::FrontierParse merged = faults::merge_frontiers(finished);
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_TRUE(merged.frontier->settled());
  EXPECT_EQ(artifact_of(*merged.frontier), reference);
}

TEST(FrontierRun, RejectsForeignShardPlans) {
  faults::Frontier frontier = faults::init_behavior_frontier(kViolating);
  ASSERT_GT(frontier.shards.size(), 1u);
  // Fuse the first two shards: still a valid frontier file, but not this
  // search's plan.
  frontier.shards[0].end = frontier.shards[1].end;
  frontier.shards.erase(frontier.shards.begin() + 1);
  const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
  EXPECT_FALSE(run.error.empty());
  EXPECT_NE(run.error.find("shard plan"), std::string::npos) << run.error;
}

TEST(FrontierRun, UnreducedRunFindsTheSameHit) {
  // Both frontier formats against the one-shot unreduced search: a v2
  // frontier (resumed at kQuotient) and a v1 frontier (resumed at
  // kOrbits) must settle on the kNone walk's hit ordinal and
  // rematerialize the same adversary.
  sweep::SweepStats stats;
  const auto reference = faults::exhaustive_behavior_search(
      kViolating, {.reduction = faults::Reduction::kNone}, {}, &stats);
  ASSERT_TRUE(reference.has_value());
  std::uint64_t reference_hit = sweep::kNoHit;
  for (const sweep::ShardStats& shard : stats.per_shard) {
    reference_hit = std::min(reference_hit, shard.first_hit);
  }
  ASSERT_EQ(reference_hit, 129u);

  for (const faults::Reduction level :
       {faults::Reduction::kQuotient, faults::Reduction::kOrbits}) {
    faults::Frontier frontier =
        faults::init_behavior_frontier(kViolating, -1, 1, level);
    EXPECT_EQ(frontier.classes.empty(), level != faults::Reduction::kQuotient);
    const faults::FrontierRun run = faults::run_behavior_frontier(frontier);
    ASSERT_TRUE(run.error.empty()) << run.error;
    ASSERT_TRUE(run.settled);
    EXPECT_EQ(frontier.best_hit(), reference_hit);
    ASSERT_TRUE(run.violation.has_value());
    EXPECT_EQ(run.violation->adversary, reference->adversary);
  }
}

TEST(FrontierRun, QuotientAndPlainFrontiersResumeTheirOwnPlans) {
  // A v1 file keeps resuming against the unquotiented plan; a v2 file
  // against the quotiented one. Tampered class tables are rejected.
  faults::Frontier plain = faults::init_behavior_frontier(
      kClean, -1, 1, faults::Reduction::kOrbits);
  const faults::FrontierRun plain_run = faults::run_behavior_frontier(plain);
  ASSERT_TRUE(plain_run.error.empty()) << plain_run.error;
  EXPECT_TRUE(plain_run.settled);
  EXPECT_EQ(plain_run.stats.executions,
            faults::behavior_search_canonical_space(kClean));

  // A class table that disagrees with the search's own quotient plan is
  // rejected up front, before any shard executes.
  faults::Frontier tampered = faults::init_behavior_frontier(kClean);
  ASSERT_GE(tampered.classes.size(), 2u);
  std::swap(tampered.classes.front().weight, tampered.classes.back().weight);
  ASSERT_NE(tampered.classes.front().weight, tampered.classes.back().weight);
  const faults::FrontierRun run = faults::run_behavior_frontier(tampered);
  EXPECT_FALSE(run.error.empty());
  EXPECT_NE(run.error.find("class"), std::string::npos) << run.error;
}

}  // namespace
}  // namespace da
