// The layer ladder: per-layer metrics measured from outside the library.
//
// Nothing here instruments src/. Each rung times calls into one layer's
// public functions on the workload's own shapes, and the unit costs are
// multiplied by the exact counts the program returns (SweepStats,
// ServiceResult, FrontendResult, MetricsRegistry::counter_value). What
// the rungs do not account for is reported as an explicit `unattributed`
// residual with its share of the unit's wall time.
//
//   protocols  VOTE on a shape's root input; EigTree::resolve on trees
//              taken from real executions (EigProcess::tree()).
//   core       check_conditions on real decisions.
//   sim        RoundEngine::restore of the snapshot a unit forks from,
//              and one forked execution: restore -> remaining rounds ->
//              finish_into. Messages per execution, pinned exactly.
//   faults     the search's counts and its residual (search-612).
//   sweep      per-shard wall times and the pool hand-off (search-612).
//   service    run() replayed through the public driven mode, every
//              offer_job / step / end_run call timed (the services).
//   frontend   tick count, shard skew, jobs=1 vs jobs=2 (frontend-overload).
//
// Rung timings and unit wall times are floors (fastest batch, fastest
// unit) sampled over the same stretch of time, so they compare like with
// like on a host whose neighbours come and go (README.md, "Noise").
// Metrics of a layer the workload does not run are printed as 0, with a
// note saying so.

#include "ladder.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/byz.hpp"
#include "core/checker.hpp"
#include "faults/adversaries.hpp"
#include "faults/behavior_search.hpp"
#include "faults/canon.hpp"
#include "faults/search.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/eig.hpp"
#include "protocols/common/eig_process.hpp"
#include "protocols/common/vote.hpp"
#include "protocols/ic/interactive_consistency.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/round_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using da::NodeId;
using da::Value;
namespace svc = da::service;

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Untraced units per traced run: enough for a p90 with ten samples
/// above it.
constexpr std::size_t kMinUntraced = 100;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Per-call time, in ns, of one batch of `calls` calls.
template <typename Fn>
double batch_ns(int calls, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) fn(i);
  return ms_between(t0, Clock::now()) * 1e6 / calls;
}

/// Defeats dead-code elimination of timed calls whose result is unused.
std::uint64_t g_sink = 0;

std::uint64_t counter(const char* name) {
  return da::obs::MetricsRegistry::global().counter_value(name);
}

#ifdef DA_METRICS_DISABLED
constexpr bool kMetricsOn = false;
#else
constexpr bool kMetricsOn = true;
#endif

// --------------------------------------------------------------------
// The per-layer metric catalogue. Every traced run prints all of them
// (perfbench/run.py checks the set against BENCHMARK.json).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kMetrics[] = {
    {"protocols.vote_ns", "ns"},
    {"protocols.resolve_ns", "ns"},
    {"core.check_ns", "ns"},
    {"sim.restore_ns", "ns"},
    {"sim.fork_exec_us", "us"},
    {"sim.messages_per_exec", "count"},
    {"faults.executions", "count"},
    {"faults.weighted", "count"},
    {"faults.reduction", "ratio"},
    {"faults.forks", "count"},
    {"faults.rounds_replayed", "count"},
    {"faults.rounds_skipped", "count"},
    {"faults.us_per_exec", "us"},
    {"faults.unattributed_ms", "ms"},
    {"faults.unattributed_share", "ratio"},
    {"sweep.shards", "count"},
    {"sweep.shard_ms.p50", "ms"},
    {"sweep.shard_ms.max", "ms"},
    {"sweep.overhead_ms", "ms"},
    {"sweep.performed_ratio", "ratio"},
    {"service.offer_us.p50", "us"},
    {"service.offer_us.p99", "us"},
    {"service.offers", "count"},
    {"service.step_ms.p50", "ms"},
    {"service.step_ms.p99", "ms"},
    {"service.ticks", "count"},
    {"service.active_per_tick.mean", "count"},
    {"service.step_ns_per_instance", "ns"},
    {"service.end_run_ms", "ms"},
    {"service.unattributed_ms", "ms"},
    {"service.unattributed_share", "ratio"},
    {"service.slot_reuse_ratio", "ratio"},
    {"service.queue_wait_vt.p99", "vt"},
    {"service.messages_per_job", "count"},
    {"frontend.ticks", "count"},
    {"frontend.shard_skew", "ratio"},
    {"frontend.pool_speedup", "ratio"},
    {"run_ms.p50", "ms"},
    {"run_ms.p90", "ms"},
    {"trace.traced_ms.min", "ms"},
    {"trace.overhead_ms", "ms"},
};

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void note(const std::string& text) { std::printf("note: %s\n", text.c_str()); }
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
    std::printf("FAILED: %s\n", why.c_str());
  }
  /// Traced units run (searches, or replays of run()).
  void units(std::size_t n) { units_ = n; }

  /// Prints the metric table, then `out` (metrics added) as the last
  /// line; returns the exit code.
  int finish(const char* workload, JsonLine& out,
             const JsonLine& message_counts) {
    JsonLine metrics;
    std::string missing;
    for (const MetricDef& m : kMetrics) {
      const auto it = values_.find(m.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      if (it == values_.end()) {
        missing += missing.empty() ? "" : ", ";
        missing += m.name;
      }
      JsonLine entry;
      entry.num("value", v);
      entry.str("unit", m.unit);
      metrics.object(m.name, entry);
      std::printf("layer %-30s %16.6g %s\n", m.name, v, m.unit);
    }
    if (!missing.empty() && failure_.empty()) {
      note(std::string("0 = layer not run by ") + workload + ": " + missing);
    }
    out.count("units", units_);
    out.object("message_counts", message_counts);
    out.str("failure", failure_);
    out.object("metrics", metrics);
    std::printf("%s\n", out.text().c_str());
    return failure_.empty() ? 0 : 1;
  }

 private:
  std::map<std::string, double> values_;
  std::string failure_;
  std::size_t units_ = 0;
};

// --------------------------------------------------------------------
// Engine rungs, shared by the search and the services.

/// Adversary that rewrites selected (from, to) links to table values:
/// the search's behaviour table, rebuilt from public types.
class GridAdversary final : public da::sim::Adversary {
 public:
  GridAdversary(int n, const std::vector<std::pair<NodeId, NodeId>>& slots)
      : n_(static_cast<std::size_t>(n)),
        values_(n_ * n_, Value::def()),
        controlled_(n_ * n_, 0) {
    for (const auto& [from, to] : slots) {
      cells_.push_back(cell(from, to));
      controlled_[cells_.back()] = 1;
    }
  }

  [[nodiscard]] std::size_t slots() const { return cells_.size(); }
  void set(std::size_t slot, Value v) { values_[cells_[slot]] = v; }

  std::optional<da::sim::Message> corrupt(
      const da::sim::Message& msg) override {
    const std::size_t c = cell(msg.from, msg.to);
    if (controlled_[c] == 0) return msg;
    da::sim::Message out = msg;
    out.value = values_[c];
    return out;
  }

 private:
  [[nodiscard]] std::size_t cell(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }

  std::size_t n_;
  std::vector<Value> values_;
  std::vector<char> controlled_;
  std::vector<std::size_t> cells_;
};

/// Unit costs of one shape: the fastest batch seen of each rung.
struct Rungs {
  double restore_ns = kNever;
  double exec_us = kNever;
  double check_ns = kNever;
  double resolve_ns = kNever;
  double vote_ns = kNever;  // BYZ shapes only (VOTE is BYZ's resolve rule)
};

/// One shape on a live engine, forked the way its workload forks it: a
/// search segment from a post-round-0 checkpoint with a behaviour table
/// (`grid`, round-0 digits fixed, the rest drawn per behaviour), a
/// service slot from its round-0 pre-dispatch snapshot. `sample()` runs
/// one batch of every rung and keeps each rung's fastest batch.
class ShapeProbe {
 public:
  ShapeProbe(da::ScenarioSpec spec,
             std::vector<std::unique_ptr<da::sim::Process>> processes,
             da::sim::Adversary* adversary, std::unique_ptr<GridAdversary> grid,
             std::size_t round0_slots,
             std::shared_ptr<const da::protocols::Resolver> resolver,
             bool byz, int calls, da::Rng& rng)
      : spec_(std::move(spec)),
        grid_(std::move(grid)),
        resolver_(std::move(resolver)),
        byz_(byz),
        calls_(calls) {
    da::sim::RunOptions options;
    options.faulty = spec_.faulty;
    options.adversary = grid_ != nullptr ? grid_.get()
                        : spec_.faulty.empty() ? nullptr
                                               : adversary;
    engine_ =
        std::make_unique<da::sim::RoundEngine>(std::move(processes), options);
    engine_->begin();
    if (grid_ != nullptr) {
      const std::array<Value, 4> alphabet = {
          spec_.sender_value, Value::of(100001), Value::of(100002),
          Value::def()};
      for (std::size_t i = 0; i < round0_slots; ++i) {
        grid_->set(i, alphabet[rng.next() & 3]);
      }
      engine_->dispatch_pending();
      engine_->process_round();
      free_first_ = round0_slots;
      free_count_ = grid_->slots() - round0_slots;
      digits_.resize(static_cast<std::size_t>(calls_) * free_count_);
      for (Value& v : digits_) v = alphabet[rng.next() & 3];
    }
    fork_ = engine_->snapshot();

    // Untimed pass: the decisions the checker rung replays, the message
    // count of every behaviour, and trees for the resolve/VOTE rungs.
    decisions_.resize(static_cast<std::size_t>(calls_));
    bool constant = true;
    for (int i = 0; i < calls_; ++i) {
      execute(i);
      if (i == 0) messages_ = result_.messages_sent;
      constant = constant && result_.messages_sent == messages_;
      decisions_[static_cast<std::size_t>(i)] = result_.decisions;
    }
    if (!constant) messages_ = 0;
    const da::sim::RoundEngine::Snapshot done = engine_->snapshot();
    for (const auto& p : done.processes) {
      const auto* eig =
          dynamic_cast<const da::protocols::EigProcess*>(p.get());
      if (eig == nullptr || p->id() == spec_.sender ||
          spec_.is_faulty(p->id())) {
        continue;
      }
      trees_.push_back(eig->tree());
      // The root VOTE's input: the value heard from the sender first-hand,
      // then each other receiver's relay of it.
      std::vector<Value> w{eig->tree().get(da::Path{spec_.sender})};
      for (NodeId j : eig->tree().nodes()) {
        if (j == spec_.sender || j == p->id()) continue;
        w.push_back(eig->tree().get(da::Path{spec_.sender, j}));
      }
      roots_.push_back(std::move(w));
    }
  }

  void sample() {
    const auto keep = [](double& best, double v) { best = std::min(best, v); };
    keep(rungs_.restore_ns,
         batch_ns(calls_, [&](int) { engine_->restore(fork_); }));
    keep(rungs_.exec_us, batch_ns(calls_, [&](int i) { execute(i); }) / 1000.0);
    keep(rungs_.check_ns, batch_ns(calls_, [&](int i) {
           g_sink += da::check_conditions(
                         spec_, decisions_[static_cast<std::size_t>(i)])
                         .satisfied;
         }));
    if (trees_.empty()) return;
    keep(rungs_.resolve_ns, batch_ns(calls_, [&](int i) {
           g_sink += static_cast<std::uint64_t>(
               trees_[static_cast<std::size_t>(i) % trees_.size()]
                   .resolve(*resolver_)
                   .raw());
         }));
    if (!byz_) return;
    const std::size_t alpha =
        static_cast<std::size_t>(spec_.config.n - 1 - spec_.config.m);
    keep(rungs_.vote_ns, batch_ns(calls_ * 16, [&](int i) {
           g_sink += static_cast<std::uint64_t>(
               da::protocols::vote(
                   roots_[static_cast<std::size_t>(i) % roots_.size()], alpha)
                   .raw());
         }));
  }

  [[nodiscard]] const Rungs& rungs() const { return rungs_; }
  [[nodiscard]] bool byz() const { return byz_; }
  /// Messages per execution; 0 if they differ between behaviours.
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

  /// Executions (search) or instances (service) the shape stands for.
  double weight = 0.0;

 private:
  /// One execution from the fork point: behaviour `i`, the remaining
  /// rounds, the decisions.
  void execute(int i) {
    engine_->restore(fork_);
    const std::size_t row = static_cast<std::size_t>(i) * free_count_;
    for (std::size_t s = 0; s < free_count_; ++s) {
      grid_->set(free_first_ + s, digits_[row + s]);
    }
    while (!engine_->done()) {
      engine_->dispatch_pending();
      engine_->process_round();
    }
    engine_->finish_into(result_);
  }

  da::ScenarioSpec spec_;
  std::unique_ptr<GridAdversary> grid_;
  std::shared_ptr<const da::protocols::Resolver> resolver_;
  bool byz_;
  int calls_;
  std::unique_ptr<da::sim::RoundEngine> engine_;
  da::sim::RoundEngine::Snapshot fork_;
  std::size_t free_first_ = 0;  // behaviour slots: [free_first_, +free_count_)
  std::size_t free_count_ = 0;
  std::vector<Value> digits_;  // calls_ behaviours x free_count_ slots
  da::sim::RunResult result_;
  std::vector<da::sim::Decisions> decisions_;
  std::vector<da::protocols::EigTree> trees_;
  std::vector<std::vector<Value>> roots_;
  std::uint64_t messages_ = 0;
  Rungs rungs_;
};

using Probes = std::vector<std::unique_ptr<ShapeProbe>>;

void sample_all(Probes& probes) {
  for (auto& p : probes) p->sample();
}

/// Weight-averaged rung floors; VOTE averages over BYZ shapes only.
Rungs weighted_rungs(const Probes& probes) {
  Rungs mean{0.0, 0.0, 0.0, 0.0, 0.0};
  double total = 0.0;
  double byz_total = 0.0;
  for (const auto& p : probes) {
    const Rungs& r = p->rungs();
    mean.restore_ns += p->weight * r.restore_ns;
    mean.exec_us += p->weight * r.exec_us;
    mean.check_ns += p->weight * r.check_ns;
    mean.resolve_ns += p->weight * r.resolve_ns;
    total += p->weight;
    if (p->byz()) {
      mean.vote_ns += p->weight * r.vote_ns;
      byz_total += p->weight;
    }
  }
  mean.restore_ns /= total;
  mean.exec_us /= total;
  mean.check_ns /= total;
  mean.resolve_ns /= total;
  mean.vote_ns = byz_total > 0.0 ? mean.vote_ns / byz_total : 0.0;
  return mean;
}

void report_rungs(const Rungs& r, Report& report) {
  report.set("protocols.vote_ns", r.vote_ns);
  report.set("protocols.resolve_ns", r.resolve_ns);
  report.set("core.check_ns", r.check_ns);
  report.set("sim.restore_ns", r.restore_ns);
  report.set("sim.fork_exec_us", r.exec_us);
}

// --------------------------------------------------------------------
// search-612

/// One faulty subset's segment of the behaviour enumeration, in the
/// search's own scan order (f ascending, subsets lexicographic).
struct SearchSegment {
  std::vector<NodeId> faulty;
  std::vector<std::pair<NodeId, NodeId>> slots;
  std::size_t round0 = 0;  // leading slots: a faulty sender's broadcast
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// The links a faulty node controls in the search: its round-0
/// broadcast if it is the sender (node 0), else its round-1 relays to
/// everyone but the sender and itself.
std::vector<std::pair<NodeId, NodeId>> controlled_slots(
    int n, const std::vector<NodeId>& faulty) {
  std::vector<std::pair<NodeId, NodeId>> slots;
  for (NodeId from : faulty) {
    for (NodeId to = 0; to < n; ++to) {
      if (to == from || (from != 0 && to == 0)) continue;
      slots.emplace_back(from, to);
    }
  }
  return slots;
}

/// The segments the subset quotient keeps (one per conjugacy class).
std::vector<SearchSegment> representative_segments(const da::Config& config) {
  std::vector<SearchSegment> out;
  std::uint64_t base = 0;
  for (int f = 1; f <= config.u; ++f) {
    da::faults::for_each_subset(
        config.n, f, [&](const std::vector<NodeId>& faulty) {
          SearchSegment seg;
          seg.faulty = faulty;
          seg.slots = controlled_slots(config.n, faulty);
          seg.round0 = faulty.front() == 0
                           ? static_cast<std::size_t>(config.n - 1)
                           : 0;
          seg.base = base;
          seg.size = std::uint64_t{1} << (2 * seg.slots.size());
          base += seg.size;
          if (da::faults::is_subset_representative(config.n, 0, faulty)) {
            out.push_back(std::move(seg));
          }
        });
  }
  return out;
}

struct SearchSample {
  double wall_ms = 0.0;
  da::sweep::SweepStats stats;
  bool violation = false;
  std::uint64_t forks = 0;
  std::uint64_t rounds_replayed = 0;
  std::uint64_t rounds_skipped = 0;
  std::uint64_t messages = 0;
  std::uint64_t executions_counted = 0;
};

/// One search with its SweepStats and registry counter deltas.
SearchSample traced_search(const da::Config& config, std::uint64_t seed) {
  const std::uint64_t forks0 = counter("search.forks");
  const std::uint64_t replayed0 = counter("search.rounds_replayed");
  const std::uint64_t skipped0 = counter("search.rounds_skipped");
  const std::uint64_t messages0 = counter("protocol.byz.messages_sent");
  const std::uint64_t execs0 = counter("protocol.byz.executions");
  SearchSample s;
  da::sweep::SweepOptions sweep;
  sweep.jobs = 1;
  sweep.seed = seed;
  const auto t0 = Clock::now();
  s.violation = da::faults::exhaustive_behavior_search(
                    config, da::faults::BehaviorSearchOptions{}, sweep,
                    &s.stats)
                    .has_value();
  s.wall_ms = ms_between(t0, Clock::now());
  s.forks = counter("search.forks") - forks0;
  s.rounds_replayed = counter("search.rounds_replayed") - replayed0;
  s.rounds_skipped = counter("search.rounds_skipped") - skipped0;
  s.messages = counter("protocol.byz.messages_sent") - messages0;
  s.executions_counted = counter("protocol.byz.executions") - execs0;
  return s;
}

void trace_search(std::uint64_t seed, double seconds, bool smoke,
                  Report& report, JsonLine& message_counts) {
  const da::Config config = search_config(smoke);
  const auto start = Clock::now();
  Runner plain(Workload::kSearch612, seed, smoke);
  (void)plain.unit();  // warm the EigLayout cache like the untraced run

  const std::vector<SearchSegment> segments = representative_segments(config);
  da::Rng rng(da::mix64(seed, 0x1add));
  Probes probes;
  for (const SearchSegment& seg : segments) {
    da::ScenarioSpec spec;
    spec.config = config;
    spec.sender = 0;
    spec.sender_value = Value::of(7);  // the search's sender value
    spec.faulty = seg.faulty;
    probes.push_back(std::make_unique<ShapeProbe>(
        spec, da::core::make_byz_processes(config, 0, spec.sender_value),
        nullptr, std::make_unique<GridAdversary>(config.n, seg.slots),
        seg.round0, da::core::byz_resolver(config.m), /*byz=*/true,
        smoke ? 16 : 64, rng));
  }

  // Untraced units alternated with traced ones and one batch per rung.
  std::vector<double> plain_ms;
  std::vector<SearchSample> traced;
  const std::size_t min_pairs = smoke ? 3 : kMinUntraced;
  while (traced.size() < min_pairs ||
         ms_between(start, Clock::now()) < seconds * 1000.0) {
    const Unit u = plain.unit();
    plain_ms.push_back(u.wall_ms);
    if (!u.failure.empty()) return report.fail(u.failure);
    traced.push_back(traced_search(config, seed));
    sample_all(probes);
  }
  report.units(traced.size());
  const SearchSample& first = traced.front();
  for (const SearchSample& s : traced) {
    if (s.violation || s.stats.executions != first.stats.executions ||
        s.forks != first.forks || s.rounds_replayed != first.rounds_replayed ||
        s.messages != first.messages) {
      return report.fail("search results or counts differ between searches");
    }
  }

  // Weights: executions per representative segment, from per-shard stats.
  std::uint64_t mapped = 0;
  for (const auto& shard : first.stats.per_shard) {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const SearchSegment& seg = segments[i];
      if (shard.begin >= seg.base && shard.begin < seg.base + seg.size) {
        probes[i]->weight += static_cast<double>(shard.executions);
        mapped += shard.executions;
        break;
      }
    }
  }
  if (mapped != first.stats.executions) {
    return report.fail("per-shard executions do not map onto segments");
  }

  const std::uint64_t expected = da::core::byz_message_count(config.n, config.m);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::string subset;
    for (NodeId f : segments[i].faulty) subset += std::to_string(f);
    message_counts.count("search.faulty" + subset, probes[i]->messages());
    if (probes[i]->messages() != expected) {
      return report.fail("search: messages per execution != "
                         "core::byz_message_count");
    }
  }
  report.note("messages per (" + config.to_string() + ") execution = " +
              std::to_string(expected) +
              " = core::byz_message_count, every segment");
  if (kMetricsOn && first.messages != expected * first.executions_counted) {
    return report.fail("registry protocol.byz.messages_sent != executions x " +
                       std::to_string(expected));
  }

  const Rungs rungs = weighted_rungs(probes);
  report_rungs(rungs, report);
  report.set("sim.messages_per_exec", static_cast<double>(expected));

  const double wall = fastest(plain_ms);
  const double execs = static_cast<double>(first.stats.executions);
  const double attributed =
      execs * (rungs.exec_us / 1000.0 + rungs.check_ns / 1e6);
  report.set("faults.executions", execs);
  report.set("faults.weighted",
             static_cast<double>(first.stats.weighted_executions));
  report.set("faults.reduction",
             static_cast<double>(first.stats.weighted_executions) / execs);
  report.set("faults.forks", static_cast<double>(first.forks));
  report.set("faults.rounds_replayed",
             static_cast<double>(first.rounds_replayed));
  report.set("faults.rounds_skipped", static_cast<double>(first.rounds_skipped));
  if (!kMetricsOn) {
    report.note("faults.forks, faults.rounds_*: unavailable, registry "
                "counters read 0 under DA_METRICS=OFF");
  }
  report.set("faults.us_per_exec", wall * 1000.0 / execs);
  report.set("faults.unattributed_ms", wall - attributed);
  report.set("faults.unattributed_share", (wall - attributed) / wall);

  std::vector<double> traced_ms;
  std::vector<double> overhead;
  std::vector<double> shard_p50;
  std::vector<double> shard_max;
  for (const SearchSample& s : traced) {
    traced_ms.push_back(s.wall_ms);
    std::vector<double> shard_ms;
    double shard_sum = 0.0;
    for (const auto& shard : s.stats.per_shard) {
      shard_ms.push_back(shard.wall_ms);
      shard_sum += shard.wall_ms;
    }
    overhead.push_back(s.wall_ms - shard_sum);
    shard_p50.push_back(median(shard_ms));
    shard_max.push_back(*std::max_element(shard_ms.begin(), shard_ms.end()));
  }
  report.set("sweep.shards", static_cast<double>(first.stats.shards));
  report.set("sweep.shard_ms.p50", median(shard_p50));
  report.set("sweep.shard_ms.max", median(shard_max));
  report.set("sweep.overhead_ms", median(overhead));
  report.set("sweep.performed_ratio",
             static_cast<double>(first.stats.performed) / execs);
  report.set("run_ms.p50", median(plain_ms));
  report.set("run_ms.p90", quantile(plain_ms, 0.9));
  report.set("trace.traced_ms.min", fastest(traced_ms));
  report.set("trace.overhead_ms", fastest(traced_ms) - wall);
  char line[200];
  std::snprintf(line, sizeof line,
                "fastest search %.3f ms = %.0f executions x (%.3f us "
                "fork-exec + %.1f ns check) + %.3f ms unattributed (%.1f%%)",
                wall, execs, rungs.exec_us, rungs.check_ns, wall - attributed,
                100.0 * (wall - attributed) / wall);
  report.note(line);
}

// --------------------------------------------------------------------
// service-steady and frontend-overload

/// The service's stateless adversary family, rebuilt in the service's
/// order (draw_adversary_index indexes it).
std::vector<std::unique_ptr<da::sim::Adversary>> adversary_family() {
  std::vector<std::unique_ptr<da::sim::Adversary>> family;
  family.push_back(da::faults::silent());
  family.push_back(da::faults::default_spammer());
  family.push_back(da::faults::constant_liar(Value::of(5)));
  family.push_back(da::faults::equivocator(Value::of(17), Value::of(5)));
  family.push_back(
      da::faults::pivot_equivocator(Value::of(17), Value::of(5), 3));
  family.push_back(da::faults::crash_after(0));
  return family;
}

/// Sub-instance `sub` of a mix template, as the service shapes it.
da::ScenarioSpec sub_spec(const svc::JobTemplate& tmpl, int sub) {
  da::ScenarioSpec spec;
  spec.config = tmpl.config;
  spec.faulty = tmpl.faulty;
  if (tmpl.kind == svc::JobKind::kIc) {
    spec.config.u = tmpl.config.m;
    spec.sender = static_cast<NodeId>(sub);
    spec.sender_value = Value::of(tmpl.sender_value.raw() + sub);
  } else {
    spec.sender = tmpl.sender;
    spec.sender_value = tmpl.sender_value;
  }
  return spec;
}

int sub_count(const svc::JobTemplate& tmpl) {
  return tmpl.kind == svc::JobKind::kIc ? tmpl.config.n : 1;
}

std::vector<std::unique_ptr<da::sim::Process>> make_processes(
    const svc::JobTemplate& tmpl, const da::ScenarioSpec& spec) {
  if (tmpl.kind == svc::JobKind::kByz) {
    return da::core::make_byz_processes(spec.config, spec.sender,
                                        spec.sender_value);
  }
  return da::protocols::lamport::make_om_processes(
      spec.config.n, spec.config.m, spec.sender, spec.sender_value);
}

/// Messages of one of the template's jobs with no faulty node, summed
/// over its sub-instances.
std::uint64_t fault_free_messages(svc::JobTemplate tmpl) {
  tmpl.faulty.clear();
  std::uint64_t total = 0;
  for (int sub = 0; sub < sub_count(tmpl); ++sub) {
    const da::ScenarioSpec spec = sub_spec(tmpl, sub);
    da::sim::RoundEngine engine(make_processes(tmpl, spec), {});
    total += engine.run().messages_sent;
  }
  return total;
}

/// Timings of one driven-mode replay of a run().
struct Replay {
  std::vector<double> offer_us;
  std::vector<double> step_ms;
  double active_sum = 0.0;  // instances advanced, summed over step() calls
  double end_run_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t digest = 0;

  [[nodiscard]] double offers_ms() const {
    double total = 0.0;
    for (double us : offer_us) total += us / 1000.0;
    return total;
  }
  [[nodiscard]] double steps_ms() const {
    double total = 0.0;
    for (double ms : step_ms) total += ms;
    return total;
  }
  [[nodiscard]] double unattributed_ms() const {
    return wall_ms - offers_ms() - steps_ms() - end_run_ms;
  }
};

/// AgreementService::run()'s loop, rebuilt on begin_run / offer_job /
/// step / end_run with every call timed.
Replay replay_service(svc::AgreementService& service) {
  Replay r;
  const svc::ServiceConfig& config = service.config();
  const std::uint64_t offered = config.offered;
  r.offer_us.reserve(offered);
  const auto wall_start = Clock::now();
  service.begin_run(offered);
  svc::ArrivalGenerator gen(config.arrivals, config.seed);
  std::uint64_t arrived = 0;
  double next_arrival = gen.next();
  double next_tick = kNever;
  double now = 0.0;
  while (service.finished() < offered) {
    if (arrived < offered && next_arrival <= next_tick) {
      now = next_arrival;
      const std::uint64_t id = arrived++;
      next_arrival = arrived < offered ? gen.next() : kNever;
      svc::JobOffer offer;
      offer.id = id;
      offer.template_index =
          svc::draw_template_index(config.seed, id, service.mix().size());
      offer.adversary_index = svc::draw_adversary_index(
          config.seed, id, service.adversary_count());
      const auto t0 = Clock::now();
      service.offer_job(offer, now);
      r.offer_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      if (!service.idle() && next_tick == kNever) {
        next_tick = now + config.round_period;
      }
      continue;
    }
    now = next_tick;
    r.active_sum += service.active_width();
    const auto t0 = Clock::now();
    service.step(now);
    r.step_ms.push_back(ms_between(t0, Clock::now()));
    next_tick = service.idle() ? kNever : now + config.round_period;
  }
  const auto t0 = Clock::now();
  const svc::ServiceResult result = service.end_run(now);
  const auto t1 = Clock::now();
  r.end_run_ms = ms_between(t0, t1);
  r.wall_ms = ms_between(wall_start, t1);
  r.digest = result.digest();
  return r;
}

/// Shards configured exactly as ServiceFrontend configures its own.
std::vector<std::unique_ptr<svc::AgreementService>> frontend_shards(
    const svc::FrontendConfig& config) {
  std::vector<std::unique_ptr<svc::AgreementService>> shards;
  for (int s = 0; s < config.shards; ++s) {
    svc::ServiceConfig shard = config.service;
    shard.seed = da::mix64(config.service.seed,
                           da::mix64(static_cast<std::uint64_t>(s), 0xf2));
    shard.jobs = 1;
    shard.sample_every = 0;
    shards.push_back(std::make_unique<svc::AgreementService>(shard));
  }
  return shards;
}

/// ServiceFrontend::run()'s loop (hash routing, lockstep ticks driven
/// serially) on the shards' driven mode, every call timed.
Replay replay_frontend(
    const svc::FrontendConfig& config,
    std::vector<std::unique_ptr<svc::AgreementService>>& shards) {
  Replay r;
  const svc::ServiceConfig& sc = config.service;
  const std::uint64_t offered = sc.offered;
  const std::uint64_t nshards = shards.size();
  r.offer_us.reserve(offered);
  const auto wall_start = Clock::now();
  for (auto& shard : shards) shard->begin_run(offered / nshards + 1);
  svc::FrontendResult merged;
  merged.shard_of.assign(offered, 0);
  svc::ArrivalGenerator gen(sc.arrivals, sc.seed);
  const std::size_t adversaries = shards.front()->adversary_count();
  const std::size_t mix_size = shards.front()->mix().size();
  const auto finished = [&] {
    std::uint64_t n = 0;
    for (const auto& shard : shards) n += shard->finished();
    return n;
  };
  std::uint64_t arrived = 0;
  double next_arrival = gen.next();
  double next_tick = kNever;
  double now = 0.0;
  while (finished() < offered) {
    if (arrived < offered && next_arrival <= next_tick) {
      now = next_arrival;
      const std::uint64_t id = arrived++;
      next_arrival = arrived < offered ? gen.next() : kNever;
      svc::JobOffer offer;
      offer.id = id;
      offer.template_index = svc::draw_template_index(sc.seed, id, mix_size);
      offer.adversary_index =
          svc::draw_adversary_index(sc.seed, id, adversaries);
      const std::size_t s = da::mix64(sc.seed, da::mix64(id, 0x5d)) % nshards;
      merged.shard_of[id] = static_cast<int>(s);
      const auto t0 = Clock::now();
      shards[s]->offer_job(offer, now);
      r.offer_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      if (next_tick == kNever && !shards[s]->idle()) {
        next_tick = now + sc.round_period;
      }
      continue;
    }
    now = next_tick;
    bool any_active = false;
    for (auto& shard : shards) {
      if (shard->idle()) continue;
      r.active_sum += shard->active_width();
      const auto t0 = Clock::now();
      shard->step(now);
      r.step_ms.push_back(ms_between(t0, Clock::now()));
    }
    for (const auto& shard : shards) any_active = any_active || !shard->idle();
    next_tick = any_active ? now + sc.round_period : kNever;
  }
  const auto t0 = Clock::now();
  for (auto& shard : shards) {
    const svc::ServiceResult part = shard->end_run(now);
    merged.records.insert(merged.records.end(), part.records.begin(),
                          part.records.end());
    merged.shards.emplace_back();
  }
  std::sort(merged.records.begin(), merged.records.end(),
            [](const svc::JobRecord& a, const svc::JobRecord& b) {
              return a.id < b.id;
            });
  const auto t1 = Clock::now();
  r.end_run_ms = ms_between(t0, t1);
  r.wall_ms = ms_between(wall_start, t1);
  r.digest = merged.digest();
  return r;
}

void trace_service(Workload workload, std::uint64_t seed, double seconds,
                   bool smoke, Report& report, JsonLine& message_counts) {
  const bool frontend = workload == Workload::kFrontendOverload;
  const auto start = Clock::now();
  // The front-end is traced on its run's first arrival stream.
  const std::uint64_t fseed = stream_seed(seed, 0);
  const svc::FrontendConfig fconfig = frontend_config(fseed, 2, smoke);
  const svc::ServiceConfig sconfig =
      frontend ? fconfig.service : steady_config(seed, smoke);
  const std::vector<svc::JobTemplate>& mix = sconfig.mix;

  // The untraced objects, plus the replay's own warm shards.
  std::unique_ptr<svc::AgreementService> service;
  std::unique_ptr<svc::ServiceFrontend> front2;
  std::unique_ptr<svc::ServiceFrontend> front1;
  std::vector<std::unique_ptr<svc::AgreementService>> shards;
  if (frontend) {
    front2 = std::make_unique<svc::ServiceFrontend>(fconfig);
    front1 = std::make_unique<svc::ServiceFrontend>(
        frontend_config(fseed, 1, smoke));
    shards = frontend_shards(fconfig);
  } else {
    service = std::make_unique<svc::AgreementService>(sconfig);
  }
  const auto family = adversary_family();
  if (family.size() != (frontend ? shards.front()->adversary_count()
                                 : service->adversary_count())) {
    return report.fail("the service's adversary family changed size");
  }

  // One untraced unit: its records weight the rungs, and the registry's
  // message counter over it is checked against the shapes' exact counts.
  const std::uint64_t sent0 = counter("sim.messages_sent");
  svc::FrontendResult fres;
  svc::ServiceResult sres;
  const Unit reference =
      frontend ? frontend_unit(fres = front2->run(), sconfig.offered)
               : service_unit(sres = service->run(), sconfig.offered,
                              /*allow_shed=*/false);
  const std::uint64_t sent = counter("sim.messages_sent") - sent0;
  if (!reference.failure.empty()) return report.fail(reference.failure);
  const std::vector<svc::JobRecord>& records =
      frontend ? fres.records : sres.records;
  std::vector<std::vector<double>> jobs(
      mix.size(), std::vector<double>(family.size(), 0.0));
  double completed = 0.0;
  for (const svc::JobRecord& rec : records) {
    if (rec.completed < 0.0) continue;
    jobs[static_cast<std::size_t>(rec.template_index)]
        [static_cast<std::size_t>(rec.adversary_index)] += 1.0;
    completed += 1.0;
  }

  // Message pins, and one probe per (template, adversary, sub-instance)
  // weighted by the instances it ran.
  da::Rng rng(da::mix64(seed, 0x1add));
  Probes probes;
  double expected_messages = 0.0;
  for (std::size_t t = 0; t < mix.size(); ++t) {
    const svc::JobTemplate& tmpl = mix[t];
    const bool byz = tmpl.kind == svc::JobKind::kByz;
    const std::string tag = "t" + std::to_string(t);
    const std::uint64_t fault_free = fault_free_messages(tmpl);
    const std::uint64_t formula =
        byz ? da::core::byz_message_count(tmpl.config.n, tmpl.config.m)
            : da::protocols::ic::ic_message_count(tmpl.config.n,
                                                  tmpl.config.m);
    message_counts.count(tag + ".fault_free", fault_free);
    report.note(tag + " (" + tmpl.to_string() + "): fault-free messages " +
                std::to_string(fault_free) +
                (byz ? ", byz_message_count " : ", ic_message_count ") +
                std::to_string(formula));
    if (fault_free != formula) {
      return report.fail(tag + ": fault-free message count != formula");
    }
    const std::shared_ptr<const da::protocols::Resolver> resolver =
        byz ? da::core::byz_resolver(tmpl.config.m)
            : std::make_shared<const da::protocols::MajorityResolver>();
    for (std::size_t a = 0; a < family.size(); ++a) {
      std::uint64_t job_messages = 0;
      for (int sub = 0; sub < sub_count(tmpl); ++sub) {
        const da::ScenarioSpec spec = sub_spec(tmpl, sub);
        probes.push_back(std::make_unique<ShapeProbe>(
            spec, make_processes(tmpl, spec), family[a].get(), nullptr, 0,
            resolver, byz, smoke ? 8 : 32, rng));
        probes.back()->weight = jobs[t][a];
        if (probes.back()->messages() == 0) {
          return report.fail(tag + ": message count of a shape varies");
        }
        job_messages += probes.back()->messages();
      }
      message_counts.count(tag + ".a" + std::to_string(a), job_messages);
      expected_messages += jobs[t][a] * static_cast<double>(job_messages);
    }
  }
  if (kMetricsOn) {
    if (static_cast<double>(sent) != expected_messages) {
      return report.fail("registry sim.messages_sent (" +
                         std::to_string(sent) +
                         ") != sum of the shapes' exact counts");
    }
    report.note("registry sim.messages_sent over one run() = " +
                std::to_string(sent) + " = sum of the shapes' exact counts");
  } else {
    report.note("service.messages_per_job: registry counters read 0 under "
                "DA_METRICS=OFF; taken from the shapes' exact counts");
  }

  // Untraced run() units alternated with timed driven-mode replays, one
  // batch per rung, and on the front-end a jobs=1 run.
  std::vector<double> plain_ms;
  std::vector<double> serial_ms;
  std::vector<Replay> replays;
  // One extra round: the first replay is cold (empty slot pools) and is
  // dropped; the slot counters are read around the second.
  const std::size_t min_rounds = smoke ? 3 : kMinUntraced + 1;
  const auto slot_counts = [&] {
    std::pair<double, double> reuse_created{0.0, 0.0};
    for (const auto& s : shards) {
      reuse_created.first += static_cast<double>(s->slot_reuses());
      reuse_created.second += static_cast<double>(s->slots_created());
    }
    if (service != nullptr) {
      reuse_created = {static_cast<double>(service->slot_reuses()),
                       static_cast<double>(service->slots_created())};
    }
    return reuse_created;
  };
  std::pair<double, double> slots0;
  while (replays.size() < min_rounds ||
         ms_between(start, Clock::now()) < seconds * 1000.0) {
    // Each run() is timed alone; its digest is taken afterwards.
    std::uint64_t digest = 0;
    if (frontend) {
      auto t0 = Clock::now();
      const svc::FrontendResult parallel = front2->run();
      plain_ms.push_back(ms_between(t0, Clock::now()));
      digest = parallel.digest();
      t0 = Clock::now();
      const svc::FrontendResult serial = front1->run();
      serial_ms.push_back(ms_between(t0, Clock::now()));
      if (serial.digest() != reference.digest) {
        return report.fail("frontend digest differs between jobs=1 and 2");
      }
    } else {
      const auto t0 = Clock::now();
      const svc::ServiceResult result = service->run();
      plain_ms.push_back(ms_between(t0, Clock::now()));
      digest = result.digest();
    }
    if (digest != reference.digest) {
      return report.fail("run() digest differs between units");
    }
    if (replays.size() == 1) slots0 = slot_counts();
    replays.push_back(frontend ? replay_frontend(fconfig, shards)
                               : replay_service(*service));
    if (replays.back().digest != reference.digest) {
      return report.fail("driven-mode replay digest != run() digest");
    }
    if (replays.size() == 2) {
      const auto slots1 = slot_counts();
      const double reused = slots1.first - slots0.first;
      const double made = slots1.second - slots0.second;
      report.set("service.slot_reuse_ratio", reused / (reused + made));
    }
    sample_all(probes);
  }
  replays.erase(replays.begin());
  report.units(replays.size());
  report.note("driven-mode replay digest " + hex64(reference.digest) +
              " = run() digest, " + std::to_string(replays.size()) +
              " replays");

  const Rungs rungs = weighted_rungs(probes);
  report_rungs(rungs, report);
  double instances = 0.0;
  for (const auto& p : probes) instances += p->weight;
  report.set("sim.messages_per_exec", expected_messages / instances);
  report.set("service.messages_per_job", expected_messages / completed);

  std::vector<double> offer_us;
  std::vector<double> step_ms;
  std::vector<double> replay_ms;
  std::vector<double> offers_ms;
  std::vector<double> steps_ms;
  std::vector<double> end_run_ms;
  std::vector<double> unattributed;
  double active = 0.0;
  double step_total_ms = 0.0;
  for (const Replay& r : replays) {
    offer_us.insert(offer_us.end(), r.offer_us.begin(), r.offer_us.end());
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
    replay_ms.push_back(r.wall_ms);
    offers_ms.push_back(r.offers_ms());
    steps_ms.push_back(r.steps_ms());
    end_run_ms.push_back(r.end_run_ms);
    unattributed.push_back(r.unattributed_ms());
    active += r.active_sum;
    step_total_ms += r.steps_ms();
  }
  const Replay& first = replays.front();
  report.set("service.offer_us.p50", quantile(offer_us, 0.5));
  report.set("service.offer_us.p99", quantile(offer_us, 0.99));
  report.set("service.offers", static_cast<double>(first.offer_us.size()));
  report.set("service.step_ms.p50", quantile(step_ms, 0.5));
  report.set("service.step_ms.p99", quantile(step_ms, 0.99));
  report.set("service.ticks", static_cast<double>(first.step_ms.size()));
  report.set("service.active_per_tick.mean",
             first.active_sum / static_cast<double>(first.step_ms.size()));
  report.set("service.step_ns_per_instance", step_total_ms * 1e6 / active);
  report.set("service.end_run_ms", median(end_run_ms));
  report.set("service.unattributed_ms", median(unattributed));
  report.set("service.unattributed_share",
             median(unattributed) / median(replay_ms));
  std::vector<double> waits;
  for (const svc::JobRecord& rec : records) {
    if (rec.completed >= 0.0) waits.push_back(rec.queue_wait());
  }
  report.set("service.queue_wait_vt.p99", quantile(waits, 0.99));
  report.set("run_ms.p50", median(plain_ms));
  report.set("run_ms.p90", quantile(plain_ms, 0.9));
  // The replay drives the shards serially, so on the front-end it is
  // compared with the jobs=1 runs.
  const double untraced = fastest(frontend ? serial_ms : plain_ms);
  report.set("trace.traced_ms.min", fastest(replay_ms));
  report.set("trace.overhead_ms", fastest(replay_ms) - untraced);
  if (frontend) {
    double max_offered = 0.0;
    for (const auto& s : fres.shards) {
      max_offered = std::max(max_offered, static_cast<double>(s.offered));
    }
    report.set("frontend.ticks", static_cast<double>(fres.ticks));
    report.set("frontend.shard_skew",
               max_offered * static_cast<double>(fres.shards.size()) /
                   static_cast<double>(sconfig.offered));
    // Per-pair ratios: a jobs=1 run and the jobs=2 run just before it
    // share the host's load of that moment.
    std::vector<double> speedup;
    for (std::size_t i = 0; i < serial_ms.size(); ++i) {
      speedup.push_back(serial_ms[i] / plain_ms[i]);
    }
    report.set("frontend.pool_speedup", median(speedup));
  }
  char line[240];
  std::snprintf(line, sizeof line,
                "replay wall %.3f ms = offers %.3f + steps %.3f + end_run "
                "%.3f + unattributed %.3f ms (%.1f%%), medians",
                median(replay_ms), median(offers_ms), median(steps_ms),
                median(end_run_ms), median(unattributed),
                100.0 * median(unattributed) / median(replay_ms));
  report.note(line);
}

}  // namespace

int run_trace(Workload workload, std::uint64_t seed, double seconds,
              bool smoke, JsonLine& out) {
  Report report;
  JsonLine message_counts;
  if (workload == Workload::kSearch612) {
    trace_search(seed, seconds, smoke, report, message_counts);
  } else {
    trace_service(workload, seed, seconds, smoke, report, message_counts);
  }
  out.count("sink", g_sink % 2);  // keeps the timed calls' results live
  return report.finish(to_string(workload), out, message_counts);
}

}  // namespace perfbench
