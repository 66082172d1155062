#include "workloads.hpp"

#include <chrono>

#include "core/byz.hpp"
#include "faults/behavior_search.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace svc = da::service;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "search-612") return Workload::kSearch612;
  if (name == "service-steady") return Workload::kServiceSteady;
  if (name == "frontend-overload") return Workload::kFrontendOverload;
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kSearch612:
      return "search-612";
    case Workload::kServiceSteady:
      return "service-steady";
    case Workload::kFrontendOverload:
      return "frontend-overload";
  }
  return "?";
}

std::uint64_t stream_seed(std::uint64_t seed, int k) {
  return da::mix64(seed, da::mix64(static_cast<std::uint64_t>(k), 0x57));
}

da::Config search_config(bool smoke) {
  // Smoke: the smallest feasible u = m config with the same reductions.
  return smoke ? da::Config{.n = 4, .m = 1, .u = 1}
               : da::Config{.n = 6, .m = 1, .u = 2};
}

svc::ServiceConfig steady_config(std::uint64_t seed, bool smoke) {
  svc::ServiceConfig config;
  config.arrivals = svc::ArrivalSpec::poisson(400.0);
  config.offered = smoke ? 300 : 3000;
  config.cap = 2048;
  config.policy = svc::OverloadPolicy::kBlock;
  config.seed = seed;
  config.jobs = 1;
  config.mix = svc::default_mix();
  return config;
}

svc::FrontendConfig frontend_config(std::uint64_t seed, int jobs,
                                    bool smoke) {
  svc::FrontendConfig config;
  config.service.arrivals = svc::ArrivalSpec::poisson(40.0);
  config.service.offered = smoke ? 300 : 3000;
  config.service.cap = 64;
  config.service.queue_cap = 128;
  config.service.policy = svc::OverloadPolicy::kShedOldest;
  config.service.seed = seed;
  config.service.jobs = jobs;
  config.service.mix = svc::default_mix();
  config.shards = 2;
  config.route = svc::RoutePolicy::kHashJobId;
  return config;
}

namespace {

/// Exact latency quantiles of completed jobs, all and kHigh only.
void set_latencies(const std::vector<svc::JobRecord>& records, Unit& u) {
  svc::ServiceResult all;
  svc::ServiceResult high;
  all.records = records;
  for (const svc::JobRecord& rec : records) {
    if (rec.admission == svc::AdmissionClass::kHigh) {
      high.records.push_back(rec);
    }
  }
  u.latency_p50 = all.latency_quantile(0.5);
  u.latency_p99 = all.latency_quantile(0.99);
  u.latency_p99_high = high.latency_quantile(0.99);
}

}  // namespace

Unit service_unit(const svc::ServiceResult& result, std::uint64_t offered,
                  bool allow_shed) {
  Unit u;
  u.digest = result.digest();
  u.offered = offered;
  u.completed = result.completed;
  u.served = result.completed - result.violations;
  set_latencies(result.records, u);
  if (result.violations != 0) {
    u.failure = "service: " + std::to_string(result.violations) +
                " jobs violated D.1-D.4";
  } else if (result.completed + result.shed != offered) {
    u.failure = "service: completed + shed != offered";
  } else if (!allow_shed && result.shed != 0) {
    u.failure = "service: jobs shed under kBlock";
  }
  return u;
}

Unit frontend_unit(const svc::FrontendResult& result, std::uint64_t offered) {
  Unit u;
  u.digest = result.digest();
  u.offered = offered;
  u.completed = result.completed;
  u.served = result.completed - result.violations;
  set_latencies(result.records, u);
  if (result.violations != 0) {
    u.failure = "frontend: " + std::to_string(result.violations) +
                " jobs violated D.1-D.4";
  } else if (result.completed + result.shed != offered) {
    u.failure = "frontend: completed + shed != offered";
  }
  return u;
}

Runner::Runner(Workload workload, std::uint64_t seed, bool smoke)
    : seed_(seed), smoke_(smoke) {
  if (workload == Workload::kServiceSteady) {
    service_ = std::make_unique<svc::AgreementService>(
        steady_config(seed_, smoke_));
  } else if (workload == Workload::kFrontendOverload) {
    for (int k = 0; k < kFrontendStreams; ++k) {
      frontends_.push_back(std::make_unique<svc::ServiceFrontend>(
          frontend_config(stream_seed(seed_, k), /*jobs=*/2, smoke_)));
    }
  }
}

int Runner::streams() const {
  return frontends_.empty() ? 1 : static_cast<int>(frontends_.size());
}

Runner::~Runner() = default;

Unit Runner::unit() {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  const auto t0 = Clock::now();
  if (service_ != nullptr) {
    const svc::ServiceResult result = service_->run();
    const double wall_ms = since(t0);
    Unit u = service_unit(result, service_->config().offered,
                          /*allow_shed=*/false);
    u.wall_ms = wall_ms;
    return u;
  }
  if (!frontends_.empty()) {
    const std::size_t k = next_++ % frontends_.size();
    svc::ServiceFrontend& frontend = *frontends_[k];
    const svc::FrontendResult result = frontend.run();
    const double wall_ms = since(t0);
    Unit u = frontend_unit(result, frontend.config().service.offered);
    u.stream = static_cast<int>(k);
    u.wall_ms = wall_ms;
    return u;
  }
  const da::Config config = search_config(smoke_);
  da::sweep::SweepOptions sweep;
  sweep.jobs = 1;
  sweep.seed = seed_;
  da::sweep::SweepStats stats;
  const auto violation = da::faults::exhaustive_behavior_search(
      config, da::faults::BehaviorSearchOptions{}, sweep, &stats);
  Unit u;
  u.wall_ms = since(t0);
  u.offered = stats.executions;
  u.completed = stats.executions;
  u.served = stats.executions - stats.violations;
  // Every execution starts at t = 0 and decides after the protocol's
  // rounds; with the service's round period of 1 that is its latency.
  u.latency_p50 = u.latency_p99 = u.latency_p99_high =
      static_cast<double>(da::core::byz_depth(config.m));
  std::uint64_t h = da::mix64(stats.executions, stats.weighted_executions);
  h = da::mix64(h, stats.shards);
  u.digest = da::mix64(h, violation.has_value() ? 1 : 0);
  if (violation.has_value()) {
    u.failure = "search: violation on a feasible config: " +
                violation->adversary;
  } else if (stats.executions !=
             da::faults::behavior_search_quotient_space(config)) {
    u.failure = "search: executions != behavior_search_quotient_space";
  } else if (stats.weighted_executions !=
             da::faults::behavior_search_space(config)) {
    u.failure = "search: weighted executions != behavior_search_space";
  }
  return u;
}

std::uint64_t Runner::frontend_serial_digest(int k) const {
  svc::ServiceFrontend serial(
      frontend_config(stream_seed(seed_, k), /*jobs=*/1, smoke_));
  return serial.run().digest();
}

}  // namespace perfbench
