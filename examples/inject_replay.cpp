// Fault-plan toolbox for the injection layer (src/inject/):
//
//   inject_replay                          demo differential sweep
//   inject_replay --check-plan FILE        parse FILE, echo the canonical
//                                          form (exit 1 on a parse error;
//                                          tools/docs_check.sh uses this to
//                                          validate docs/INJECTION.md)
//   inject_replay --case SEED ORDINAL      replay one differential case
//                                          and print each runtime's verdict
//   inject_replay --sweep SEED CASES [JOBS] sweep ordinals [0, CASES)
//
// Exit status is 0 iff every replayed case agreed across the sim,
// threaded and event runtimes.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "inject/differ.hpp"
#include "inject/fault_plan.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: inject_replay [--check-plan FILE | --case SEED "
               "ORDINAL | --sweep SEED CASES [JOBS]]\n");
  std::exit(2);
}

/// Whole-string non-negative integer; anything else is a usage error.
template <typename T>
T parse_count(const char* what, const char* arg) {
  T v{};
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, v);
  if (*arg == '-' || ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "inject_replay: %s expects a non-negative integer\n",
                 what);
    usage();
  }
  return v;
}

int check_plan(const char* path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "inject_replay: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto plan = da::inject::FaultPlan::parse(text.str(), &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "inject_replay: %s: %s\n", path, error.c_str());
    return 1;
  }
  if (const auto problem = plan->validate(64)) {
    std::fprintf(stderr, "inject_replay: %s: %s\n", path, problem->c_str());
    return 1;
  }
  std::printf("# canonical form of %s\n%s", path, plan->serialize().c_str());
  return 0;
}

int replay_case(std::uint64_t seed, std::uint64_t ordinal) {
  const da::inject::DifferentialCase c = da::inject::draw_case(seed, ordinal);
  std::printf("case %llu/%llu: %s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ordinal),
              c.to_string().c_str());
  const da::inject::DifferentialReport report = da::inject::run_differential(c);
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
  const da::inject::DifferentialSweepResult result =
      da::inject::sweep_differential(seed, cases, jobs);
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

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--check-plan") {
    return check_plan(argv[2]);
  }
  if (argc >= 4 && std::string(argv[1]) == "--case") {
    return replay_case(parse_count<std::uint64_t>("--case SEED", argv[2]),
                       parse_count<std::uint64_t>("--case ORDINAL", argv[3]));
  }
  if (argc >= 4 && std::string(argv[1]) == "--sweep") {
    return sweep(parse_count<std::uint64_t>("--sweep SEED", argv[2]),
                 parse_count<std::uint64_t>("--sweep CASES", argv[3]),
                 argc >= 5 ? parse_count<int>("--sweep JOBS", argv[4]) : 4);
  }
  if (argc > 1) usage();
  // Demo: one detailed case, then a short sweep across all six protocols.
  if (replay_case(2026, 0) != 0) return 1;
  std::puts("");
  return sweep(2026, 12, 4);
}
