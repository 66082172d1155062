// da inject: the fault-plan toolbox for the injection layer
// (src/inject/). With no verb it runs a demo: one detailed differential
// case, then a short sweep across all six protocols. `check-plan FILE`
// parses FILE and echoes its canonical form (tools/docs_check.sh uses it
// to validate docs/INJECTION.md); `case SEED ORDINAL` replays one
// differential case and prints each runtime's verdict; `sweep SEED CASES
// [JOBS]` sweeps ordinals [0, CASES).
//
// Exit status is 0 iff every replayed case agreed across the sim,
// threaded and event runtimes (for check-plan: iff the plan parses).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "inject/differ.hpp"
#include "inject/fault_plan.hpp"

namespace da::cli {
namespace {

int check_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "da inject: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto plan = inject::FaultPlan::parse(text.str(), &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "da inject: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (const auto problem = plan->validate(64)) {
    std::fprintf(stderr, "da inject: %s: %s\n", path.c_str(),
                 problem->c_str());
    return 1;
  }
  std::printf("# canonical form of %s\n%s", path.c_str(),
              plan->serialize().c_str());
  return 0;
}

int replay_case(std::uint64_t seed, std::uint64_t ordinal) {
  const inject::DifferentialCase c = inject::draw_case(seed, ordinal);
  std::printf("case %llu/%llu: %s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ordinal),
              c.to_string().c_str());
  const inject::DifferentialReport report = inject::run_differential(c);
  std::printf("  sim      verdict %s  (%zu msgs)\n", report.sim.verdict.c_str(),
              report.sim.messages_sent);
  std::printf("  threaded verdict %s  (%zu msgs)\n",
              report.threaded.verdict.c_str(), report.threaded.messages_sent);
  std::printf("  event    verdict %s  (%zu msgs)\n",
              report.event.verdict.c_str(), report.event.messages_sent);
  if (report.ok()) {
    std::printf("  runtimes agree: artifacts byte-identical (%zu bytes)\n",
                report.sim.artifact.size());
    return 0;
  }
  std::printf("  MISMATCH: %s\n", report.detail.c_str());
  return 1;
}

int sweep(std::uint64_t seed, std::uint64_t cases, int jobs) {
  const inject::DifferentialSweepResult result =
      inject::sweep_differential(seed, cases, jobs);
  std::printf("sweep seed=%llu over %llu cases (%llu executions, jobs=%d)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(result.cases),
              static_cast<unsigned long long>(result.executions), jobs);
  if (!result.first_mismatch.has_value()) {
    std::puts("all cases byte-identical across sim/threaded/event");
    return 0;
  }
  std::printf("FIRST MISMATCH at ordinal %llu:\n  %s\n",
              static_cast<unsigned long long>(*result.first_mismatch),
              result.detail.c_str());
  return 1;
}

}  // namespace

int inject_cmd(const Args& args) {
  const Args pos = Flags().parse(args);
  const std::string verb = pos.empty() ? "" : pos[0];
  if (verb == "check-plan" && pos.size() == 2) return check_plan(pos[1]);
  if (verb == "case" && pos.size() == 3) {
    return replay_case(parse_int<std::uint64_t>("case SEED", pos[1]),
                       parse_int<std::uint64_t>("case ORDINAL", pos[2]));
  }
  if (verb == "sweep" && (pos.size() == 3 || pos.size() == 4)) {
    return sweep(parse_int<std::uint64_t>("sweep SEED", pos[1]),
                 parse_int<std::uint64_t>("sweep CASES", pos[2]),
                 pos.size() == 4 ? parse_int<int>("sweep JOBS", pos[3]) : 4);
  }
  if (!pos.empty()) throw UsageError("bad arguments for " + verb);
  if (replay_case(2026, 0) != 0) return 1;
  std::puts("");
  return sweep(2026, 12, 4);
}

}  // namespace da::cli
