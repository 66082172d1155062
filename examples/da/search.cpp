// da search: resumable exhaustive behaviour certification. Initialize a
// serialized search frontier, run (or resume) it with a shard budget,
// split it across files for distribution, merge the parts back, and emit
// the final byte-deterministic artifact.
//
// `init` writes a frontier for the fully quotiented `Reduction::kQuotient`
// walk (da-frontier v2) by default; `--no-subset-symmetry` writes the
// full v1 plan. The level is baked into the file — `run` derives it from
// the class records, so v2 files resume at kQuotient and v1 files at
// kOrbits, one representative per receiver orbit (docs/SEARCH.md §6).
//
// `run` checkpoints the frontier back to its file after every settled
// shard (atomic tmp+rename), so a `kill -9` mid-sweep loses at most the
// in-flight shards' partial cursors; rerunning `run` resumes from the
// last checkpoint and converges to the same normalized artifact for any
// --jobs value and any interruption pattern (docs/SEARCH.md §5).
// `artifact` refuses to print until the frontier has settled.
//
// `status` output is a pure function of the frontier bytes (frontiers
// store no wall times, keeping artifacts machine-independent), so its
// eta line only reports "settled" or the remaining-shard count; `run`
// appends a live estimate from the shards it just timed.
//
// Exit status: 0 on success (for `run`: the verdict may be either way;
// for `artifact`: frontier settled), 1 on a clean "not settled yet",
// 2 on usage or file errors.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "faults/behavior_search.hpp"
#include "faults/frontier.hpp"

namespace da::cli {
namespace {

faults::Frontier load_or_die(const std::string& path) {
  faults::FrontierParse parsed = faults::load_frontier(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "da search: %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    std::exit(2);
  }
  return *std::move(parsed.frontier);
}

void save_or_die(const faults::Frontier& frontier, const std::string& path) {
  if (!faults::save_frontier(frontier, path)) {
    std::fprintf(stderr, "da search: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

void print_status(const faults::Frontier& frontier) {
  std::size_t settled = 0;
  std::uint64_t scanned = 0;
  std::uint64_t covered = 0;
  std::uint64_t executions = 0;
  std::uint64_t weighted = 0;
  for (const faults::FrontierShard& s : frontier.shards) {
    if (s.settled()) ++settled;
    scanned += s.cursor - s.begin;
    covered += s.end - s.begin;
    executions += s.executions;
    weighted += s.weighted;
  }
  std::printf("config        n=%d m=%d u=%d max_f=%d seed=%llu\n",
              frontier.config.n, frontier.config.m, frontier.config.u,
              frontier.max_f,
              static_cast<unsigned long long>(frontier.seed));
  std::printf("space         %llu ordinals, %zu shards (%s)\n",
              static_cast<unsigned long long>(frontier.space),
              frontier.shards.size(),
              frontier.covers_space() ? "full plan" : "split part");
  if (frontier.classes.empty()) {
    std::printf("plan          unquotiented (da-frontier v1)\n");
  } else {
    std::printf("plan          subset-quotiented, %zu conjugacy classes "
                "(da-frontier v2)\n",
                frontier.classes.size());
  }
  // Percentages are over the *plan* (the shards this file owns — a split
  // part reports its own completion, not the whole space's).
  const double plan_pct =
      covered == 0 ? 100.0
                   : 100.0 * static_cast<double>(scanned) /
                         static_cast<double>(covered);
  std::printf("progress      %zu/%zu shards settled, %llu ordinals scanned "
              "(%.1f%% of plan)\n",
              settled, frontier.shards.size(),
              static_cast<unsigned long long>(scanned), plan_pct);
  const double space_pct =
      frontier.space == 0 ? 100.0
                          : 100.0 * static_cast<double>(weighted) /
                                static_cast<double>(frontier.space);
  std::printf("executions    %llu representatives, %llu orbit-weighted "
              "(%.1f%% of space)\n",
              static_cast<unsigned long long>(executions),
              static_cast<unsigned long long>(weighted), space_pct);
  if (frontier.settled()) {
    std::printf("eta           settled\n");
  } else {
    // Frontiers carry no wall times (artifacts stay byte-identical across
    // machines), so a saved file cannot price the remaining work; `run`
    // prints a live estimate from the shards it just timed.
    std::printf("eta           unknown (%zu shards remaining; run prints a "
                "live estimate)\n",
                frontier.shards.size() - settled);
  }
  const std::uint64_t hit = frontier.best_hit();
  if (hit == sweep::kNoHit) {
    std::printf("verdict       %s\n",
                frontier.settled() ? "clean (settled)" : "no hit yet");
  } else {
    std::printf("verdict       violation at ordinal %llu%s\n",
                static_cast<unsigned long long>(hit),
                frontier.settled() ? " (settled)" : " (candidate)");
  }
}

int cmd_run(const std::string& path, int jobs, int max_shards) {
  faults::Frontier frontier = load_or_die(path);
  faults::FrontierRunOptions options;
  options.jobs = jobs;
  options.max_shards = max_shards;
  options.checkpoint = [&path](const faults::Frontier& snapshot) {
    // Best-effort incremental checkpoint; the final state is saved below.
    (void)faults::save_frontier(snapshot, path);
  };
  const faults::FrontierRun run =
      faults::run_behavior_frontier(frontier, options);
  if (!run.error.empty()) {
    std::fprintf(stderr, "da search: %s\n", run.error.c_str());
    return 2;
  }
  save_or_die(frontier, path);
  print_status(frontier);
  if (!frontier.settled()) {
    // Live ETA from this run's own timing: average wall time of the
    // shards that settled here, priced over the shards still open. Not
    // part of the frontier (artifacts stay machine-independent).
    double wall_ms = 0.0;
    std::size_t timed = 0;
    for (const sweep::ShardStats& s : run.stats.per_shard) {
      if (s.worker >= 0 && s.cursor == s.end) {
        wall_ms += s.wall_ms;
        ++timed;
      }
    }
    std::size_t remaining = 0;
    for (const faults::FrontierShard& s : frontier.shards) {
      if (!s.settled()) ++remaining;
    }
    if (timed > 0 && remaining > 0) {
      const double per_shard = wall_ms / static_cast<double>(timed);
      std::printf("live eta      ~%.0f ms (%zu shards at ~%.2f ms/shard "
                  "this run)\n",
                  per_shard * static_cast<double>(remaining), remaining,
                  per_shard);
    }
  }
  if (run.violation.has_value()) {
    std::printf("violation     %s under %s: %s\n",
                run.violation->spec.to_string().c_str(),
                run.violation->adversary.c_str(),
                run.violation->report.detail.c_str());
  }
  return frontier.settled() ? 0 : 1;
}

int cmd_artifact(const std::string& path, const std::string& out) {
  faults::Frontier frontier = load_or_die(path);
  if (!frontier.settled()) {
    std::fprintf(stderr,
                 "da search: frontier not settled; run it to completion "
                 "(or merge all split parts) first\n");
    return 1;
  }
  frontier.normalize();
  std::string artifact = serialize_frontier(frontier);
  const std::uint64_t hit = frontier.best_hit();
  if (hit == sweep::kNoHit) {
    artifact += "verdict clean\n";
  } else {
    const auto violation = faults::behavior_at(
        frontier.config, frontier.max_f, hit);
    artifact += "verdict violation " + std::to_string(hit) + " " +
                (violation.has_value() ? violation->adversary : "?") + "\n";
  }
  if (out.empty()) {
    std::fputs(artifact.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr || std::fputs(artifact.c_str(), f) < 0) {
    std::fprintf(stderr, "da search: cannot write %s\n", out.c_str());
    if (f != nullptr) std::fclose(f);
    return 2;
  }
  std::fclose(f);
  return 0;
}

}  // namespace

int search_cmd(const Args& args) {
  std::string frontier_path;
  std::string out;
  std::string out_prefix;
  int n = 4;
  int m = 1;
  int u = 1;
  int max_f = -1;
  std::uint64_t seed = 1;
  int jobs = 1;
  int parts = 0;
  int max_shards = -1;
  bool no_subset_symmetry = false;
  const Args pos = Flags()
                       .text("--frontier", frontier_path)
                       .text("--out", out)
                       .text("--out-prefix", out_prefix)
                       .integer("--n", n)
                       .integer("--m", m)
                       .integer("--u", u)
                       .integer("--max-f", max_f, -1)
                       .integer("--seed", seed)
                       .integer("--jobs", jobs)
                       .integer("--parts", parts)
                       .integer("--max-shards", max_shards, -1)
                       .toggle("--no-subset-symmetry", no_subset_symmetry)
                       .parse(args);
  const std::string verb = pos.empty() ? "" : pos[0];
  if (verb != "merge" && pos.size() > 1) {
    throw UsageError("unexpected argument " + pos[1]);
  }
  if (verb == "init") {
    if (out.empty()) throw UsageError("init needs --out");
    const Config config{.n = n, .m = m, .u = u};
    if (!config.valid() || config.m > 1) throw UsageError("invalid config");
    const faults::Frontier frontier = faults::init_behavior_frontier(
        config, max_f, seed,
        no_subset_symmetry ? faults::Reduction::kOrbits
                           : faults::Reduction::kQuotient);
    save_or_die(frontier, out);
    print_status(frontier);
    return 0;
  }
  if (verb == "merge") {
    if (out.empty() || pos.size() < 2) {
      throw UsageError("merge needs --out and part files");
    }
    std::vector<faults::Frontier> frontiers;
    frontiers.reserve(pos.size() - 1);
    for (std::size_t i = 1; i < pos.size(); ++i) {
      frontiers.push_back(load_or_die(pos[i]));
    }
    faults::FrontierParse merged = faults::merge_frontiers(frontiers);
    if (!merged.ok()) {
      std::fprintf(stderr, "da search: merge: %s\n", merged.error.c_str());
      return 2;
    }
    save_or_die(*merged.frontier, out);
    print_status(*merged.frontier);
    return 0;
  }
  if (verb != "run" && verb != "status" && verb != "split" &&
      verb != "artifact") {
    throw UsageError(verb.empty() ? "missing verb" : "unknown verb " + verb);
  }
  if (frontier_path.empty()) throw UsageError(verb + " needs --frontier");
  if (verb == "run") return cmd_run(frontier_path, jobs, max_shards);
  if (verb == "artifact") return cmd_artifact(frontier_path, out);
  if (verb == "split" && (parts <= 0 || out_prefix.empty())) {
    throw UsageError("split needs --parts and --out-prefix");
  }
  const faults::Frontier frontier = load_or_die(frontier_path);
  if (verb == "status") {
    print_status(frontier);
    return 0;
  }
  const std::vector<faults::Frontier> split =
      faults::split_frontier(frontier, static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i < split.size(); ++i) {
    save_or_die(split[i], out_prefix + std::to_string(i));
  }
  std::printf("split %zu shards into %zu parts\n", frontier.shards.size(),
              split.size());
  return 0;
}

}  // namespace da::cli
