// da: the command-line front door to the library. One binary with six
// subcommands (run, trace, span, search, service, inject), each in its
// own examples/da/<name>.cpp, over one flag parser (examples/da/cli.hpp).
//
// Usage errors (unknown command or flag, malformed or missing value)
// print the subcommand's usage on stderr and exit 2; every other exit
// status is the subcommand's own, described in its source file.

#include <cstdio>
#include <string>

#include "cli.hpp"

namespace {

struct Command {
  const char* name;
  int (*run)(const da::cli::Args&);
  const char* usage;
};

constexpr Command kCommands[] = {
    {"run", da::cli::run_cmd,
     "  da run [--n N] [--m M] [--u U] [--sender S] [--value V]\n"
     "         [--faulty a,b,c] [--adversary NAME] [--runtime sim|threaded]\n"
     "         [--trace]\n"
     "    adversaries: honest silent liar default equivocator pivot crash "
     "noise\n"},
    {"trace", da::cli::trace_cmd,
     "  da trace dump <trace.jsonl> [--node N]\n"
     "  da trace diff <a.jsonl> <b.jsonl> [--node N]\n"
     "  da trace fig2 [--n N] [--out DIR]\n"
     "  da trace schema\n"},
    {"span", da::cli::span_cmd,
     "  da span demo <outdir>\n"
     "  da span timeline <spans.jsonl> [--job N] [--plan plan.txt]\n"
     "  da span quantiles <spans.jsonl>\n"
     "  da span check <spans.jsonl>\n"
     "  da span schema\n"},
    {"search", da::cli::search_cmd,
     "  da search init     --out F [--n N --m M --u U] [--max-f K] "
     "[--seed S]\n"
     "                     [--no-subset-symmetry]\n"
     "  da search run      --frontier F [--jobs J] [--max-shards K]\n"
     "  da search status   --frontier F\n"
     "  da search split    --frontier F --parts P --out-prefix PFX\n"
     "  da search merge    --out F part1 part2 ...\n"
     "  da search artifact --frontier F [--out F2]\n"},
    {"service", da::cli::service_cmd,
     "  da service [flags]   (defaults in parentheses)\n"
     "    --model M          poisson|bursty|pareto (poisson)\n"
     "    --rate R           mean jobs per time unit (8)\n"
     "    --offered N        jobs to offer (1000)\n"
     "    --cap C            concurrency cap, in slots (256)\n"
     "    --queue Q          queue bound for shed-oldest (1024)\n"
     "    --policy P         shed|block overload policy (shed)\n"
     "    --period P         virtual time per round tick (1)\n"
     "    --seed S           arrival/mix seed (1)\n"
     "    --jobs J           worker threads, 0 = all cores (1)\n"
     "    --shards N         front-end shards, 1 = plain service (1)\n"
     "    --route R          hash|least-loaded front-end routing (hash)\n"
     "    --deadline T       admission deadline on every template (none)\n"
     "    --artifact         dump the per-job artifact lines\n"
     "    --spans-out FILE   record causal spans, write JSONL\n"
     "    --metrics-out FILE write Prometheus-style exposition\n"
     "    --sample-every P   periodic samples every P time units\n"
     "    --inject SPEC      fault plan, ';'-separated plan lines\n"
     "    --inject-every K   inject every K-th job (1)\n"},
    {"inject", da::cli::inject_cmd,
     "  da inject [check-plan FILE | case SEED ORDINAL | "
     "sweep SEED CASES [JOBS]]\n"},
};

}  // namespace

int main(int argc, char** argv) {
  const da::cli::Args args(argv + (argc > 0 ? 1 : 0), argv + argc);
  const std::string name = args.empty() ? "" : args[0];
  for (const Command& cmd : kCommands) {
    if (name != cmd.name) continue;
    try {
      return cmd.run(da::cli::Args(args.begin() + 1, args.end()));
    } catch (const da::cli::UsageError& e) {
      std::fprintf(stderr, "da %s: %s\nusage:\n%s", cmd.name, e.what(),
                   cmd.usage);
      return 2;
    }
  }
  std::fprintf(stderr, "da: %s\nusage:\n",
               name.empty() ? "missing command"
                            : ("unknown command " + name).c_str());
  for (const Command& cmd : kCommands) std::fputs(cmd.usage, stderr);
  return 2;
}
