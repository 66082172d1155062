#pragma once

// The benchmark's three workloads, built only from the library's public
// API. One `Runner` owns a workload's long-lived objects; `unit()` runs
// one timed unit (a whole behaviour search, or one `run()` that drains
// every offered job) and checks its correctness gates.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"

namespace perfbench {

enum class Workload { kSearch612, kServiceSteady, kFrontendOverload };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

/// Arrival streams per frontend-overload run. One 3000-job stream's work
/// and latencies vary from seed to seed by about 10% (interquartile range
/// / median), so each run draws this many streams from its seed and
/// reports their mean. The other workloads use one stream, the seed.
inline constexpr int kFrontendStreams = 4;

/// Seed of arrival stream `k` of a frontend-overload run.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, int k);

/// Input sizes. The full sizes are the benchmarked ones; smoke sizes are
/// tiny versions of the same shapes for the benchmark's own tests.
[[nodiscard]] da::Config search_config(bool smoke);
[[nodiscard]] da::service::ServiceConfig steady_config(std::uint64_t seed,
                                                       bool smoke);
[[nodiscard]] da::service::FrontendConfig frontend_config(std::uint64_t seed,
                                                          int jobs,
                                                          bool smoke);

/// What one unit produced. For the search a "job" is one protocol
/// execution; for the services it is one offered job.
struct Unit {
  int stream = 0;               // arrival stream the unit ran
  double wall_ms = 0.0;         // the library call alone, gates excluded
  std::uint64_t digest = 0;     // determinism pin, equal for every unit
                                // of one stream
  std::uint64_t offered = 0;    // jobs offered (search: executions)
  std::uint64_t completed = 0;  // jobs completed (search: executions)
  std::uint64_t served = 0;     // completed with D.1-D.4 satisfied
  double latency_p50 = 0.0;     // arrival -> decision, virtual time
  double latency_p99 = 0.0;
  double latency_p99_high = 0.0;  // kHigh admission class only
  std::string failure;            // non-empty: a correctness gate failed
};

class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed, bool smoke);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] int streams() const;

  /// One unit of the next stream in turn.
  [[nodiscard]] Unit unit();

  /// frontend-overload only: the run digest of a fresh `jobs = 1`
  /// front-end on stream `k` (it must equal the `jobs = 2` one).
  [[nodiscard]] std::uint64_t frontend_serial_digest(int k) const;

 private:
  std::uint64_t seed_;
  bool smoke_;
  std::unique_ptr<da::service::AgreementService> service_;
  std::vector<std::unique_ptr<da::service::ServiceFrontend>> frontends_;
  std::size_t next_ = 0;
};

/// Gates and outputs shared by the untraced units and the traced run.
/// Both services report exact latency quantiles over their records
/// (`ServiceResult::latency_quantile`).
[[nodiscard]] Unit service_unit(const da::service::ServiceResult& result,
                                std::uint64_t offered, bool allow_shed);
[[nodiscard]] Unit frontend_unit(const da::service::FrontendResult& result,
                                 std::uint64_t offered);

}  // namespace perfbench
