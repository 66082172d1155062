#include "service/frontend.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace da::service {

namespace {

const obs::Counter& routed_counter() {
  static const obs::Counter c("frontend.jobs_routed");
  return c;
}
const obs::Counter& frontend_ticks_counter() {
  static const obs::Counter c("frontend.ticks");
  return c;
}

constexpr double kNever = std::numeric_limits<double>::infinity();

}  // namespace

const char* to_string(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kHashJobId:
      return "hash";
    case RoutePolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

std::optional<RoutePolicy> parse_route_policy(std::string_view name) {
  if (name == "hash") return RoutePolicy::kHashJobId;
  if (name == "least-loaded") return RoutePolicy::kLeastLoaded;
  return std::nullopt;
}

ServiceFrontend::ServiceFrontend(FrontendConfig config)
    : config_(std::move(config)) {
  DA_EXPECTS(config_.shards >= 1);
  // The front-end walks the sample grid itself (its shards sample never).
  DA_EXPECTS(config_.service.sample_every_valid());
  mix_ = config_.service.mix.empty() ? default_mix() : config_.service.mix;
  const int jobs = sweep::resolve_jobs(config_.service.jobs);
  config_.service.jobs = jobs;
  // The cross-shard crew lives here; each shard runs single-threaded
  // inside its tick task (disjoint state, one task per shard). More
  // members than shards would never get a task.
  const int members = std::min(jobs, config_.shards);
  if (members > 1) crew_ = std::make_unique<sweep::TickCrew>(members);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    ServiceConfig shard = config_.service;
    shard.mix = mix_;  // resolved once, so all shards share one mix view
    shard.seed = shard_seed(s);
    shard.jobs = 1;          // parallelism is across shards, not within
    shard.sample_every = 0;  // the front-end owns the aggregated series
    shards_.push_back(std::make_unique<AgreementService>(std::move(shard)));
  }
}

ServiceFrontend::~ServiceFrontend() = default;

std::uint64_t ServiceFrontend::shard_seed(int s) const {
  return mix64(config_.service.seed, mix64(static_cast<std::uint64_t>(s),
                                           0xf2));
}

int ServiceFrontend::route(std::uint64_t id) const {
  if (config_.route == RoutePolicy::kHashJobId) {
    return static_cast<int>(mix64(config_.service.seed, mix64(id, 0x5d)) %
                            shards_.size());
  }
  // Deterministic least-loaded: the router runs on the event-loop thread
  // between ticks, so every shard's load figure is settled; ties break
  // to the lowest index.
  int best = 0;
  int best_load = shards_[0]->load();
  for (int s = 1; s < static_cast<int>(shards_.size()); ++s) {
    const int load = shards_[static_cast<std::size_t>(s)]->load();
    if (load < best_load) {
      best = s;
      best_load = load;
    }
  }
  return best;
}

void ServiceFrontend::push_sample(double at,
                                  std::vector<ServiceSample>& samples) const {
  ServiceSample sample;
  sample.time = at;
  obs::QuantileSketch merged;
  for (const auto& shard : shards_) {
    sample.active += shard->active_width();
    sample.queued += shard->queue_depth();
    sample.completed += shard->completed_so_far();
    sample.shed += shard->shed_so_far();
    sample.deadline_missed += shard->deadline_missed_so_far();
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      const auto cls = static_cast<AdmissionClass>(c);
      sample.completed_by_class[static_cast<std::size_t>(c)] +=
          shard->completed_of(cls);
      sample.queued_by_class[static_cast<std::size_t>(c)] +=
          shard->queued_of(cls);
    }
    merged.merge(shard->running_latency_sketch());
  }
  sample.latency_p50 = merged.quantile(0.5);
  sample.latency_p99 = merged.quantile(0.99);
  samples.push_back(sample);
}

FrontendResult ServiceFrontend::run() {
  const obs::MetricsScope metrics_scope;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t offered = config_.service.offered;
  DA_EXPECTS(offered >= 1);
  const double period = config_.service.round_period;
  const double sample_every = config_.service.sample_every;
  const std::size_t nshards = shards_.size();
  for (auto& shard : shards_) {
    shard->begin_run(offered / nshards + 1);
  }

  FrontendResult result;
  result.shard_of.assign(offered, 0);

  ArrivalGenerator gen(config_.service.arrivals, config_.service.seed);
  const std::size_t adversary_count = shards_.front()->adversary_count();
  std::uint64_t arrived = 0;
  std::uint64_t finished = 0;
  double next_arrival = gen.next();
  double next_tick = kNever;
  double next_sample = sample_every > 0.0 ? sample_every : kNever;
  double now = 0.0;

  const auto any_active = [this] {
    for (const auto& shard : shards_) {
      if (!shard->idle()) return true;
    }
    return false;
  };
  const auto total_finished = [this] {
    std::uint64_t n = 0;
    for (const auto& shard : shards_) n += shard->finished();
    return n;
  };

  // One global event loop over all shards: the same arrival-first
  // tie-break and the same persistent tick grid as the single service,
  // so an uncongested stream sees identical event instants either way.
  while (finished < offered) {
    const double next_event = std::min(next_arrival, next_tick);
    while (next_sample < next_event) {
      push_sample(next_sample, result.samples);
      next_sample += sample_every;
    }
    if (arrived < offered && next_arrival <= next_tick) {
      now = next_arrival;
      const std::uint64_t id = arrived++;
      next_arrival = arrived < offered ? gen.next() : kNever;
      JobOffer offer;
      offer.id = id;
      offer.template_index =
          draw_template_index(config_.service.seed, id, mix_.size());
      offer.adversary_index =
          draw_adversary_index(config_.service.seed, id, adversary_count);
      const int s = route(id);
      result.shard_of[id] = s;
      routed_counter().add();
      shards_[static_cast<std::size_t>(s)]->offer_job(offer, now);
      finished = total_finished();  // overload sheds settle immediately
      if (next_tick == kNever &&
          !shards_[static_cast<std::size_t>(s)]->idle()) {
        next_tick = now + period;
      }
      continue;
    }
    DA_EXPECTS(next_tick != kNever);  // else nothing active and no arrivals
    now = next_tick;
    frontend_ticks_counter().add();
    ++result.ticks;
    // Lockstep tick: every non-idle shard advances one round batch at
    // the same instant. Idle shards have empty queues (queue non-empty
    // implies active inside a shard), so skipping them loses nothing.
    // On the crew, shard s always steps on member s % threads, so its
    // slot pool and engines stay in one core's cache from tick to tick.
    const auto step_shard = [this, now](std::size_t s) {
      AgreementService& shard = *shards_[s];
      if (!shard.idle()) shard.step(now);
    };
    if (crew_ != nullptr) {
      crew_->run(nshards, step_shard);
    } else {
      for (std::size_t s = 0; s < nshards; ++s) step_shard(s);
    }
    finished = total_finished();
    next_tick = any_active() ? now + period : kNever;
  }

  // Close the aggregated series at the makespan.
  if (sample_every > 0.0) push_sample(now, result.samples);

  result.makespan = now;
  // Fold the shards back into one stream: exact sketch merges, record
  // concat + sort by global id, span concat + re-canonicalization.
  result.records.reserve(offered);
  for (std::size_t s = 0; s < nshards; ++s) {
    ServiceResult part = shards_[s]->end_run(now);
    FrontendShardSummary summary;
    summary.seed = shards_[s]->config().seed;
    summary.offered = part.records.size();
    summary.completed = part.completed;
    summary.shed = part.shed;
    summary.deadline_missed = part.deadline_missed;
    summary.peak_active = part.peak_active;
    result.shards.push_back(summary);
    result.completed += part.completed;
    result.shed += part.shed;
    result.deadline_missed += part.deadline_missed;
    result.violations += part.violations;
    result.latency_sketch.merge(part.latency_sketch);
    result.queue_sketch.merge(part.queue_sketch);
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      result.class_latency[static_cast<std::size_t>(c)].merge(
          part.class_latency[static_cast<std::size_t>(c)]);
    }
    result.records.insert(result.records.end(), part.records.begin(),
                          part.records.end());
    result.spans.insert(result.spans.end(), part.spans.begin(),
                        part.spans.end());
    obs::MetricsRegistry::global().set_gauge(
        "frontend.shard" + std::to_string(s) + ".completed",
        static_cast<double>(part.completed));
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  if (!result.spans.empty()) obs::canonicalize(result.spans);
  obs::MetricsRegistry::global().set_gauge("frontend.shards",
                                           static_cast<double>(nshards));
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

std::uint64_t FrontendResult::digest() const {
  // Everything deterministic about the run, excluding wall_ms: the merged
  // records plus each job's shard placement and the shard count.
  std::uint64_t h = mix64(0xf407e4d, records.size());
  h = mix64(h, static_cast<std::uint64_t>(shards.size()));
  for (const JobRecord& rec : records) {
    h = fold_job_record(h, rec);
    h = mix64(h, static_cast<std::uint64_t>(shard_of[rec.id]));
  }
  return h;
}

std::string FrontendResult::artifact() const {
  std::string out;
  out.reserve(records.size() * 112);
  for (const JobRecord& rec : records) append_record_line(out, rec);
  return out;
}

FrontendResult run_frontend(const FrontendConfig& config) {
  ServiceFrontend frontend(config);
  return frontend.run();
}

}  // namespace da::service
