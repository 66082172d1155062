// da run: one degradable-agreement scenario from the command line. Pick
// any configuration, fault pattern and adversary, and see which of the
// conditions D.1-D.4 applies and whether the protocol met it.
//
//   $ da run --n 7 --m 1 --u 4 --faulty 2,3,5 --adversary equivocator
//
// Exit status 0 iff the governing condition is satisfied, 1 if it is
// violated, 2 on a usage error or an invalid config.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "da/da.hpp"

namespace da::cli {
namespace {

// Keeps the adversaries' lies (value + 13, value +- 5) in range.
constexpr std::int64_t kValueBound = std::int64_t{1} << 62;

/// nullptr for an unknown name.
std::unique_ptr<sim::Adversary> make_adversary(const std::string& name, int n,
                                               std::int64_t value) {
  const Value truth = Value::of(value);
  const Value lie = Value::of(value + 13);
  if (name == "honest") return faults::honest();
  if (name == "silent") return faults::silent();
  if (name == "liar") return faults::constant_liar(lie);
  if (name == "default") return faults::default_spammer();
  if (name == "equivocator") return faults::equivocator(truth, lie);
  if (name == "pivot") return faults::pivot_equivocator(truth, lie, n / 2);
  if (name == "crash") return faults::crash_after(0);
  if (name == "noise") {
    return faults::random_noise(99, value - 5, value + 5, 0.25);
  }
  return nullptr;
}

}  // namespace

int run_cmd(const Args& args) {
  int n = 7;
  int m = 1;
  int u = 4;
  std::int64_t value = 42;
  ScenarioSpec spec;
  std::string adversary = "equivocator";
  std::string runtime = "sim";
  bool trace_on = false;
  const Args positionals =
      Flags()
          .integer("--n", n, 0, 64)  // EIG paths are 64-bit rank bitsets
          .integer("--m", m)
          .integer("--u", u)
          .integer("--sender", spec.sender)
          .integer("--value", value, -kValueBound, kValueBound)
          .ids("--faulty", spec.faulty)
          .text("--adversary", adversary)
          .text("--runtime", runtime)
          .toggle("--trace", trace_on)
          .parse(args);
  if (!positionals.empty()) {
    throw UsageError("unexpected argument " + positionals[0]);
  }
  if (runtime != "sim" && runtime != "threaded") {
    throw UsageError("--runtime expects sim|threaded");
  }
  auto adv = make_adversary(adversary, n, value);
  if (adv == nullptr) throw UsageError("unknown adversary " + adversary);
  std::vector<NodeId>& faulty = spec.faulty;
  std::sort(faulty.begin(), faulty.end());
  if (spec.sender >= n || (!faulty.empty() && faulty.back() >= n) ||
      std::adjacent_find(faulty.begin(), faulty.end()) != faulty.end()) {
    throw UsageError("--sender and --faulty need distinct ids below --n");
  }
  spec.config = Config{.n = n, .m = m, .u = u};
  spec.sender_value = Value::of(value);

  if (!spec.config.valid() || !spec.config.engine_runnable()) {
    std::fprintf(stderr, "invalid config: %s\n",
                 spec.config.to_string().c_str());
    return 2;
  }
  std::printf("scenario: %s\n", spec.to_string().c_str());
  std::printf("feasible: %s (N_min = %d, connectivity_min = %d)\n",
              spec.config.feasible() ? "yes" : "NO", bounds::min_nodes(m, u),
              bounds::min_connectivity(m, u));

  const DegradableAgreement protocol(spec.config);
  sim::Trace trace;
  RunExtras extras;
  if (trace_on) extras.trace = &trace;

  const Outcome outcome = runtime == "threaded"
                              ? protocol.run_threaded(spec, adv.get(), extras)
                              : protocol.run(spec, adv.get(), extras);

  std::printf("\n%d rounds, %zu messages sent, %zu delivered\n",
              outcome.rounds, outcome.messages_sent,
              outcome.messages_delivered);
  for (const auto& [node, decision] : outcome.decisions) {
    std::printf("  node %-3d -> %-6s%s\n", node, decision.to_string().c_str(),
                spec.is_faulty(node)  ? " (faulty)"
                : node == spec.sender ? " (sender)"
                                      : "");
  }

  const ConditionReport report = check_conditions(spec, outcome.decisions);
  std::printf("\ncondition %s: %s\n", to_string(report.applied),
              report.satisfied ? "SATISFIED" : "VIOLATED");
  if (!report.detail.empty()) std::printf("  %s\n", report.detail.c_str());
  std::printf("value class %zu, default class %zu, largest agreeing %d "
              "(corollary m+1: %s)\n",
              report.value_class.size(), report.default_class.size(),
              report.largest_agreeing_class,
              report.corollary_m_plus_1 ? "holds" : "fails");

  if (trace_on) {
    for (const auto& [node, decision] : outcome.decisions) {
      std::printf("\n--- transcript of node %d ---\n%s", node,
                  trace.transcript(node).c_str());
    }
  }
  return report.satisfied ? 0 : 1;
}

}  // namespace da::cli
