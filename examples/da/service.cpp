// da service: drive the long-lived agreement service (src/service/): an
// open-loop arrival stream of BYZ/IC jobs admitted against a concurrency
// cap and executed in batched round ticks. The flags and their defaults
// are listed in the usage text (examples/da/main.cpp); `--inject` takes
// plan lines separated by ';', e.g. "seed 9;drop from=2 to=1".
//
// Prints a one-screen summary (throughput, latency quantiles, per-class
// shed counts, determinism digest; per-shard rows when --shards > 1).
// Exit status is 0 iff every completed job satisfied its applicable
// condition (D.1-D.4), and 2 on a usage error or a config that
// `ServiceConfig::validate()` rejects. docs/SERVICE.md walks through the
// output; `tools/docs_check.sh --da BIN` executes that walkthrough.

#include <array>
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "service/frontend.hpp"
#include "service/service.hpp"

namespace da::cli {
namespace {

/// Folds the per-job outcomes into one by-class table (offered /
/// completed / shed / deadline-missed per admission class).
void print_classes(const std::vector<service::JobRecord>& records) {
  struct ClassRow {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t missed = 0;
  };
  std::array<ClassRow, service::kAdmissionClassCount> by_class{};
  for (const service::JobRecord& rec : records) {
    ClassRow& row = by_class[static_cast<std::size_t>(index_of(rec.admission))];
    ++row.offered;
    if (rec.shed) {
      ++row.shed;
      if (rec.deadline_missed) ++row.missed;
    } else if (rec.completed >= 0.0) {
      ++row.completed;
    }
  }
  for (int c = 0; c < service::kAdmissionClassCount; ++c) {
    const ClassRow& row = by_class[static_cast<std::size_t>(c)];
    if (row.offered == 0) continue;
    std::printf("class      %-6s offered %llu  completed %llu  shed %llu  "
                "deadline_missed %llu\n",
                to_string(static_cast<service::AdmissionClass>(c)),
                static_cast<unsigned long long>(row.offered),
                static_cast<unsigned long long>(row.completed),
                static_cast<unsigned long long>(row.shed),
                static_cast<unsigned long long>(row.missed));
  }
}

}  // namespace

int service_cmd(const Args& args) {
  using namespace service;

  ServiceConfig config;
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 8.0;
  int shards = 1;
  RoutePolicy route = RoutePolicy::kHashJobId;
  double deadline = 0.0;
  bool dump_artifact = false;
  std::string spans_out;
  std::string metrics_out;
  const Args pos =
      Flags()
          .value("--model",
                 [&kind](std::string_view v) {
                   const auto parsed = parse_arrival_kind(v);
                   if (!parsed) {
                     throw UsageError("--model expects poisson|bursty|pareto");
                   }
                   kind = *parsed;
                 })
          .positive("--rate", rate)
          .integer("--offered", config.offered, std::uint64_t{1})
          .integer("--cap", config.cap, 1)
          .integer("--queue", config.queue_cap, std::size_t{1})
          .value("--policy",
                 [&config](std::string_view v) {
                   if (v != "shed" && v != "block") {
                     throw UsageError("--policy expects shed|block");
                   }
                   config.policy = v == "shed" ? OverloadPolicy::kShedOldest
                                               : OverloadPolicy::kBlock;
                 })
          .positive("--period", config.round_period)
          .integer("--seed", config.seed)
          .integer("--jobs", config.jobs)
          .integer("--shards", shards, 1)
          .value("--route",
                 [&route](std::string_view v) {
                   const auto parsed = parse_route_policy(v);
                   if (!parsed) {
                     throw UsageError("--route expects hash|least-loaded");
                   }
                   route = *parsed;
                 })
          .positive("--deadline", deadline)
          .toggle("--artifact", dump_artifact)
          .text("--spans-out", spans_out)
          .text("--metrics-out", metrics_out)
          .positive("--sample-every", config.sample_every)
          .value("--inject",
                 [&config](std::string_view v) {
                   // Plan lines separated by ';' (the multi-line text form
                   // of docs/INJECTION.md, flattened for the shell).
                   std::string text(v);
                   for (char& c : text) {
                     if (c == ';') c = '\n';
                   }
                   std::string error;
                   const auto plan = inject::FaultPlan::parse(text, &error);
                   if (!plan) throw UsageError("--inject: " + error);
                   config.fault_plan = *plan;
                 })
          .integer("--inject-every", config.inject_every, std::uint64_t{1})
          .parse(args);
  if (!pos.empty()) throw UsageError("unexpected argument " + pos[0]);
  config.record_spans = !spans_out.empty();

  switch (kind) {
    case ArrivalKind::kPoisson:
      config.arrivals = ArrivalSpec::poisson(rate);
      break;
    case ArrivalKind::kBursty:
      config.arrivals = ArrivalSpec::bursty(rate);
      break;
    case ArrivalKind::kPareto:
      config.arrivals = ArrivalSpec::pareto(rate);
      break;
  }

  // --deadline rides on the resolved default mix: every template gets the
  // same relative admission deadline.
  if (deadline > 0.0) {
    config.mix = default_mix();
    for (JobTemplate& tmpl : config.mix) tmpl.deadline = deadline;
  }
  if (const auto problem = config.validate()) {
    std::fprintf(stderr, "da service: %s\n", problem->c_str());
    return 2;
  }

  // The summary lines both paths print, before and after their own rows.
  const auto print_totals = [&](const auto& result) {
    std::printf("offered    %llu jobs\n",
                static_cast<unsigned long long>(config.offered));
    std::printf("completed  %llu   shed %llu   deadline_missed %llu   "
                "violations %llu\n",
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.deadline_missed),
                static_cast<unsigned long long>(result.violations));
    std::printf("makespan   %.3f time units over %llu ticks  (%.1f ms wall)\n",
                result.makespan, static_cast<unsigned long long>(result.ticks),
                result.wall_ms);
  };
  const auto finish = [&](const auto& result) {
    std::printf("digest     %016llx\n",
                static_cast<unsigned long long>(result.digest()));
    if (dump_artifact) std::fputs(result.artifact().c_str(), stdout);
    if (!spans_out.empty()) {
      if (!obs::write_spans_jsonl(result.spans, spans_out)) {
        std::fprintf(stderr, "da service: cannot write %s\n",
                     spans_out.c_str());
        return 1;
      }
      std::printf("spans      %zu -> %s\n", result.spans.size(),
                  spans_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (!obs::write_exposition(obs::MetricsRegistry::global().snapshot(),
                                 metrics_out)) {
        std::fprintf(stderr, "da service: cannot write %s\n",
                     metrics_out.c_str());
        return 1;
      }
      std::printf("metrics    -> %s\n", metrics_out.c_str());
    }
    if (config.sample_every > 0.0) {
      std::printf("samples    %zu (every %g time units)\n",
                  result.samples.size(), config.sample_every);
    }
    return result.violations == 0 ? 0 : 1;
  };

  if (shards > 1) {
    // Sharded front-end path: one global arrival stream and tick grid
    // over N independent service shards.
    FrontendConfig frontend_config;
    frontend_config.service = config;
    frontend_config.shards = shards;
    frontend_config.route = route;
    ServiceFrontend frontend(frontend_config);
    const FrontendResult result = frontend.run();
    std::printf("frontend: %s  shards=%d route=%s cap=%d queue=%zu "
                "policy=%s period=%g seed=%llu jobs=%d\n",
                config.arrivals.to_string().c_str(), shards,
                to_string(route), config.cap, config.queue_cap,
                to_string(config.policy), config.round_period,
                static_cast<unsigned long long>(config.seed), config.jobs);
    print_totals(result);
    std::printf("throughput %.3f jobs/time unit\n", result.throughput());
    std::printf("latency    p50 %.3f  p90 %.3f  p99 %.3f time units\n",
                result.latency_sketch.quantile(0.50),
                result.latency_sketch.quantile(0.90),
                result.latency_sketch.quantile(0.99));
    print_classes(result.records);
    for (std::size_t s = 0; s < result.shards.size(); ++s) {
      const FrontendShardSummary& shard = result.shards[s];
      std::printf("shard      %zu offered %llu  completed %llu  shed %llu  "
                  "peak_active %d\n",
                  s, static_cast<unsigned long long>(shard.offered),
                  static_cast<unsigned long long>(shard.completed),
                  static_cast<unsigned long long>(shard.shed),
                  shard.peak_active);
    }
    return finish(result);
  }

  AgreementService svc(config);
  const ServiceResult result = svc.run();
  std::printf("service: %s  cap=%d queue=%zu policy=%s period=%g seed=%llu "
              "jobs=%d\n",
              config.arrivals.to_string().c_str(), config.cap,
              config.queue_cap, to_string(config.policy), config.round_period,
              static_cast<unsigned long long>(config.seed), config.jobs);
  print_totals(result);
  std::printf("throughput %.3f jobs/time unit   peak_active %d slots\n",
              result.throughput(), result.peak_active);
  std::printf("latency    p50 %.3f  p90 %.3f  p99 %.3f time units\n",
              result.latency_quantile(0.50), result.latency_quantile(0.90),
              result.latency_quantile(0.99));
  print_classes(result.records);
  std::printf("slots      created %llu  reused %llu\n",
              static_cast<unsigned long long>(svc.slots_created()),
              static_cast<unsigned long long>(svc.slot_reuses()));
  return finish(result);
}

}  // namespace da::cli
