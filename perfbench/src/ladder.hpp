#pragma once

// The layer ladder: the traced invocation of the benchmark (see
// ladder.cpp for what each per-layer metric times and counts).

#include <cstdint>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Measures every per-layer metric for `workload`, prints notes and then
/// `out` (with a "metrics" object added) as the last line. Returns the
/// process exit code: non-zero when a correctness gate failed.
int run_trace(Workload workload, std::uint64_t seed, double seconds,
              bool smoke, JsonLine& out);

}  // namespace perfbench
