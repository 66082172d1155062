// Workload runner for the repository benchmark. perfbench/run.py builds
// and drives it; it can also be run by hand:
//
//   perfbench --workload search-612 --seed 1 --seconds 10 --mode run
//
// Modes:
//   setup  construct the workload and run one cold unit; report the time.
//   run    setup, then time whole units for --seconds (and at least
//          kMinUnits units); report every unit's wall time and the
//          outputs the correctness gates check.
//   trace  the layer ladder (see ladder.cpp): per-layer metrics measured
//          from outside the library.
// --smoke shrinks every workload to a tiny size of the same shape.
//
// The last line of stdout is one JSON object; earlier lines are notes.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ladder.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Units per timed run: enough for a p90 with ten samples above it.
constexpr std::size_t kMinUnits = 100;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process (VmHWM), MiB; 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

perfbench::JsonLine fingerprint() {
  perfbench::JsonLine fp;
  fp.str("compiler", "g++ " __VERSION__);
  fp.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef DA_METRICS_DISABLED
  fp.str("da_metrics", "OFF");
#else
  fp.str("da_metrics", "ON");
#endif
  return fp;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <search-612|service-steady|"
               "frontend-overload> --seed N --seconds S "
               "[--mode setup|run|trace] [--smoke]\n");
  return 2;
}

int fail(perfbench::JsonLine& out, const std::string& why) {
  std::printf("FAILED: %s\n", why.c_str());
  out.str("failure", why);
  std::printf("%s\n", out.text().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string mode = "run";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  const auto workload = perfbench::parse_workload(workload_name);
  if (!workload || seconds <= 0.0 ||
      (mode != "setup" && mode != "run" && mode != "trace")) {
    return usage();
  }

  perfbench::JsonLine out;
  out.str("mode", mode);
  out.str("workload", workload_name);
  out.count("seed", seed);
  out.object("fingerprint", fingerprint());

  if (mode == "trace") {
    return perfbench::run_trace(*workload, seed, seconds, smoke, out);
  }

  // Set-up: construction plus one cold unit per stream (EigLayout cache,
  // slot pools and shape snapshots are built here).
  const auto setup_start = Clock::now();
  perfbench::Runner runner(*workload, seed, smoke);
  std::vector<perfbench::Unit> cold;
  for (int k = 0; k < runner.streams(); ++k) cold.push_back(runner.unit());
  const double setup_s = seconds_since(setup_start);
  out.num("setup_s", setup_s);
  for (const perfbench::Unit& u : cold) {
    if (!u.failure.empty()) return fail(out, u.failure);
  }
  if (mode == "setup") {
    std::printf("%s\n", out.text().c_str());
    return 0;
  }

  // Timed units. The window is --seconds; it stretches (up to a hard
  // cap) until kMinUnits units ran, so p90 keeps ten samples above it.
  std::vector<double> unit_ms;
  std::vector<double> unit_stream;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t served = 0;
  const double hard_cap = std::max(seconds * 4.0, 60.0);
  const auto window_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(window_start);
    if ((elapsed >= seconds && unit_ms.size() >= kMinUnits) ||
        elapsed >= hard_cap) {
      break;
    }
    const perfbench::Unit u = runner.unit();
    unit_ms.push_back(u.wall_ms);
    unit_stream.push_back(u.stream);
    if (!u.failure.empty()) return fail(out, u.failure);
    if (u.digest != cold[static_cast<std::size_t>(u.stream)].digest) {
      return fail(out, "digest differs between units of one run");
    }
    offered += u.offered;
    completed += u.completed;
    served += u.served;
  }
  const double window_s = seconds_since(window_start);
  if (unit_ms.size() < kMinUnits) {
    return fail(out, "fewer than 100 units inside the hard cap");
  }
  for (int k = 0; *workload == perfbench::Workload::kFrontendOverload &&
                  k < runner.streams();
       ++k) {
    if (runner.frontend_serial_digest(k) !=
        cold[static_cast<std::size_t>(k)].digest) {
      return fail(out, "frontend digest differs between jobs=1 and jobs=2");
    }
  }

  // Latencies are exact per stream; a run reports their mean.
  double p50 = 0.0;
  double p99 = 0.0;
  double p99_high = 0.0;
  for (const perfbench::Unit& u : cold) {
    p50 += u.latency_p50 / static_cast<double>(cold.size());
    p99 += u.latency_p99 / static_cast<double>(cold.size());
    p99_high += u.latency_p99_high / static_cast<double>(cold.size());
  }
  out.str("digest", perfbench::hex64(cold.front().digest));
  out.num("window_s", window_s);
  out.nums("unit_ms", unit_ms);
  out.nums("unit_stream", unit_stream);
  out.count("offered", offered);
  out.count("completed", completed);
  out.count("served", served);
  out.num("latency_vt_p50", p50);
  out.num("latency_vt_p99", p99);
  out.num("latency_vt_p99_high", p99_high);
  out.num("peak_rss_mb", peak_rss_mb());
  out.str("failure", "");
  std::printf("%s\n", out.text().c_str());
  return 0;
}
