#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/scenario.hpp"
#include "inject/fault_plan.hpp"
#include "obs/quantiles.hpp"
#include "obs/spans.hpp"
#include "service/admission.hpp"
#include "service/arrivals.hpp"
#include "sim/adversary.hpp"
#include "sim/round_engine.hpp"
#include "sweep/tick_crew.hpp"

namespace da::service {

/// Agreement as a service: a long-lived loop driving thousands of
/// concurrent BYZ/IC instances off one global virtual-time event queue,
/// built on `sim::RoundEngine` snapshots (docs/SERVICE.md).
///
/// The paper's protocols are exercised elsewhere one instance per `run()`
/// call; here a stream of agreement *jobs* arrives open-loop (Poisson,
/// bursty, heavy-tailed — `service/arrivals.hpp`), is admitted against a
/// concurrency cap with class-aware backpressure (`service/admission.hpp`:
/// priority classes, optional admission deadlines, shed-lowest-class-first
/// overload handling), and is executed in *batched round ticks*: every
/// `round_period` of virtual time, all co-scheduled instances advance one
/// synchronous round together, drained by the sweep engine's tick crew
/// (`sweep::TickCrew`, `jobs` threads counting the caller) when
/// `jobs > 1`.
///
/// Steady-state admission is allocation-free: per distinct scenario
/// *shape* (protocol, config, sender, value, faulty set) the service
/// keeps a template `RoundEngine::Snapshot` taken at the round-0
/// pre-dispatch boundary, and a pool of recycled `InstanceSlot`s whose
/// engines are rewound with `restore()` (which assigns over existing
/// buffers) instead of rebuilt. Because that boundary precedes every
/// adversary decision, `set_adversary()` per admission is sound — the
/// same argument the checkpointed searches rely on (docs/SEARCH.md §4).
///
/// Determinism contract: for a fixed (seed, arrival spec, cap, policy,
/// mix), the per-job records — arrival/admission/completion times,
/// verdicts, decision digests, shed dispositions — are identical for
/// every `jobs` value. Arrivals and admissions happen on the event-loop
/// thread only; workers touch disjoint engines; all adversary behaviour
/// is a pure function of message identity. `ServiceResult::digest()`
/// folds every record so tests can pin the contract in one comparison.
///
/// Besides the self-driving `run()`, the service exposes a *driven mode*
/// (`begin_run` / `offer_job` / `step` / `end_run`): the sharded
/// front-end (`service/frontend.hpp`) drives many services in lockstep
/// off one global event sequence through exactly the primitives `run()`
/// itself is built on, which is what makes an uncongested front-end
/// stream record-identical to the single-service baseline.

/// What kind of agreement one arriving job asks for.
enum class JobKind {
  /// One BYZ(m,m) instance: `config`, `sender`, `sender_value`.
  kByz,
  /// One interactive-consistency job: `config.n` parallel OM(m)
  /// instances, one per sender (node i's private value is
  /// `sender_value + i`); the job completes when the last coordinate
  /// decides. Occupies `config.n` slots while active.
  kIc,
};

[[nodiscard]] const char* to_string(JobKind kind);

/// One entry of the service's scenario mix. Each arriving job draws a
/// template (and an adversary from the service's stateless family) by a
/// pure function of (seed, job id).
struct JobTemplate {
  JobKind kind = JobKind::kByz;
  Config config{};
  NodeId sender = 0;
  Value sender_value = Value::of(17);
  std::vector<NodeId> faulty{};
  /// Priority class: admission order is (class, FIFO within class), and
  /// overload shedding consumes the lowest class first.
  AdmissionClass admission = AdmissionClass::kNormal;
  /// Relative admission deadline in virtual time: a job still queued
  /// when `arrival + deadline` passes is shed with the distinct
  /// `deadline_missed` disposition. <= 0 means no deadline.
  double deadline = 0.0;

  [[nodiscard]] std::string to_string() const;
};

/// The standard mix used by benches and the demo: three BYZ shapes
/// (n=7 1/4-degradable, n=4 1/1, n=7 2/2) and one n=4 IC job, faults
/// within budget so D.1-D.4 all hold and the stream stays clean. The
/// minimal-feasible BYZ shape rides in `kHigh`, the heavy 3-round shape
/// in `kLow`, the rest in `kNormal`; no template carries a deadline.
[[nodiscard]] std::vector<JobTemplate> default_mix();

/// What to do when arrivals outpace the cap.
enum class OverloadPolicy {
  /// Queue without bound; every job is eventually admitted in (class,
  /// FIFO) order. Latency absorbs the backlog.
  kBlock,
  /// Bound the admission queue at `queue_cap` jobs; when a new arrival
  /// would exceed it, the oldest job of the *lowest occupied class* is
  /// shed (dropped, counted, recorded with `shed = true`). High classes
  /// ride out bursts at the expense of low ones; with a single class
  /// this degenerates to the classic shed-oldest.
  kShedOldest,
};

[[nodiscard]] const char* to_string(OverloadPolicy policy);

struct ServiceConfig {
  ArrivalSpec arrivals = ArrivalSpec::poisson(8.0);
  /// Jobs the arrival process offers per `run()`.
  std::uint64_t offered = 1000;
  /// Concurrency cap, in slots (an IC job holds `n` slots at once).
  int cap = 256;
  /// Queue bound for kShedOldest, in jobs.
  std::size_t queue_cap = 1024;
  OverloadPolicy policy = OverloadPolicy::kShedOldest;
  /// Virtual time between round ticks (every active instance advances
  /// one synchronous round per tick).
  double round_period = 1.0;
  std::uint64_t seed = 1;
  /// Threads draining each round batch, the event-loop thread included:
  /// 1 drains inline, 0 or less uses every core.
  int jobs = 1;
  /// Scenario mix; `default_mix()` when empty.
  std::vector<JobTemplate> mix{};
  /// Record causal lifecycle spans (job/queue/inst/round/decide/recycle,
  /// obs/spans.hpp) into `ServiceResult::spans`. Ignored when the build's
  /// metrics kill switch (DA_METRICS=OFF) is on.
  bool record_spans = false;
  /// Emit a `ServiceSample` every this much virtual time (0 = off).
  double sample_every = 0.0;
  /// Fault plan routed through selected jobs' message transport via a
  /// per-slot `inject::InjectionNetwork` (inactive plan = reliable links).
  inject::FaultPlan fault_plan{};
  /// Every k-th job (id % k == 0) runs under `fault_plan`; 1 = every job.
  std::uint64_t inject_every = 1;

  /// The checks the `AgreementService` constructor enforces as contracts
  /// (cap, round period, injection stride, sample period, well-formed
  /// templates no wider than the cap), as a typed rejection: the first
  /// problem, or nullopt when the config is sound.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Outcome of one job, in virtual time. `admitted`/`completed` are
/// negative while not (yet) reached; a shed job never gets either.
struct JobRecord {
  std::uint64_t id = 0;
  int template_index = 0;
  int adversary_index = 0;
  AdmissionClass admission = AdmissionClass::kNormal;
  double arrival = 0.0;
  double admitted = -1.0;
  double completed = -1.0;
  bool shed = false;
  /// Shed because the admission deadline passed while queued (a subset
  /// of `shed`), as opposed to an overload-policy eviction.
  bool deadline_missed = false;
  /// Folded over all coordinates for kIc (worst coordinate wins:
  /// satisfied only if every coordinate satisfied).
  Condition applied = Condition::kNone;
  bool satisfied = true;
  /// mix64 fold of every (node, decision) pair, all coordinates.
  std::uint64_t decisions_digest = 0;
  /// Virtual time the job was shed (-1 when not shed; the deadline
  /// instant for deadline misses). Redundant with the event sequence, so
  /// excluded from `digest()`/`artifact()`; it closes the shed job's
  /// span.
  double shed_at = -1.0;

  [[nodiscard]] double queue_wait() const {
    return admitted < 0.0 ? 0.0 : admitted - arrival;
  }
  [[nodiscard]] double latency() const {
    return completed < 0.0 ? 0.0 : completed - arrival;
  }
};

/// Appends `rec`'s canonical one-line artifact form to `out` (shared by
/// `ServiceResult::artifact()` and `FrontendResult::artifact()`, so an
/// uncongested front-end stream can be compared to the single-service
/// baseline byte for byte).
void append_record_line(std::string& out, const JobRecord& rec);

/// mix64-folds every digest-relevant field of one record into `h` (shared
/// by `ServiceResult::digest()` and `FrontendResult::digest()`).
[[nodiscard]] std::uint64_t fold_job_record(std::uint64_t h,
                                            const JobRecord& rec);

/// One periodic time-series point, taken on the `sample_every` grid of
/// virtual time by the event loop — every field derives from deterministic
/// event-loop state, so the series is identical for every `jobs` value.
struct ServiceSample {
  double time = 0.0;
  int active = 0;          // occupied slots at this instant
  std::size_t queued = 0;  // jobs waiting for admission
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Deadline-missed sheds so far (subset of `shed`).
  std::uint64_t deadline_missed = 0;
  /// Per-class breakdowns, indexed by `index_of(AdmissionClass)`.
  std::array<std::uint64_t, kAdmissionClassCount> completed_by_class{};
  std::array<std::uint64_t, kAdmissionClassCount> queued_by_class{};
  /// Running decision-latency quantiles (sketch estimates; 0 until the
  /// first completion).
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
};

/// Aggregate of one `run()` call.
struct ServiceResult {
  std::vector<JobRecord> records;  // by job id, one per offered job
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  // all sheds, deadline misses included
  std::uint64_t deadline_missed = 0;
  std::uint64_t violations = 0;  // jobs whose D.1-D.4 verdict failed
  /// Virtual completion time of the last job.
  double makespan = 0.0;
  /// Wall-clock time the run took (the only nondeterministic field).
  double wall_ms = 0.0;
  /// Highest number of simultaneously active slots observed.
  int peak_active = 0;
  std::uint64_t ticks = 0;
  /// Causal spans in canonical order (when `record_spans`); empty
  /// otherwise and under DA_METRICS=OFF.
  std::vector<obs::Span> spans;
  /// Periodic time series (when `sample_every > 0`).
  std::vector<ServiceSample> samples;
  /// Streaming sketches over completed jobs — decision latency and queue
  /// wait in virtual time. Always recorded (independent of the registry
  /// kill switch); exact-merge determinism makes their `serialize()` form
  /// byte-identical across `jobs` values.
  obs::QuantileSketch latency_sketch{};
  obs::QuantileSketch queue_sketch{};
  /// Per-class decision-latency sketches, indexed by
  /// `index_of(AdmissionClass)`; same determinism guarantee.
  std::array<obs::QuantileSketch, kAdmissionClassCount> class_latency{};

  /// Exact latency quantile over completed jobs (q in [0,1]); 0 when
  /// nothing completed.
  [[nodiscard]] double latency_quantile(double q) const;
  /// Completed jobs per unit of virtual time.
  [[nodiscard]] double throughput() const {
    return makespan <= 0.0 ? 0.0
                           : static_cast<double>(completed) / makespan;
  }
  /// Order- and jobs-invariant fold of every record; the determinism pin.
  [[nodiscard]] std::uint64_t digest() const;
  /// Canonical one-line-per-job text artifact (byte-identical across
  /// `jobs` values for a fixed config).
  [[nodiscard]] std::string artifact() const;
};

/// Template / adversary draws for job `id`: pure functions of (seed, id),
/// shared verbatim by `AgreementService::run()` and the sharded front-end
/// so both see the same job stream for the same seed.
[[nodiscard]] int draw_template_index(std::uint64_t seed, std::uint64_t id,
                                      std::size_t mix_size);
[[nodiscard]] int draw_adversary_index(std::uint64_t seed, std::uint64_t id,
                                       std::size_t adversary_count);

/// One pre-drawn arriving job handed to a driven service: the caller
/// (the `run()` loop or the front-end router) owns the arrival stream
/// and the draws; the service owns admission, execution and records.
struct JobOffer {
  std::uint64_t id = 0;  // global job id (record identity, span ids)
  int template_index = 0;
  int adversary_index = 0;
};

/// The long-lived service. Construct once; `run()` may be called
/// repeatedly — slots, engines and queues persist across runs, so every
/// run after the first starts warm (no slot construction at all when the
/// mix is unchanged).
class AgreementService {
 public:
  /// Throws `UnsupportedConfig` when a mix template's config is outside
  /// what the engine can execute (`Config::engine_runnable()`).
  explicit AgreementService(ServiceConfig config);
  ~AgreementService();

  AgreementService(const AgreementService&) = delete;
  AgreementService& operator=(const AgreementService&) = delete;

  /// Offers `config().offered` jobs through the arrival model and drives
  /// the event loop until every job is completed or shed. Virtual time
  /// restarts at 0 each run; the arrival stream is re-seeded identically,
  /// so repeated runs of an unchanged service are identical.
  [[nodiscard]] ServiceResult run();

  // --- Driven mode -------------------------------------------------
  // The front-end (or a test) drives the service through the exact
  // primitives `run()` is built on: `begin_run` resets per-run state,
  // `offer_job` performs full arrival semantics (deadline sweep,
  // class-aware admit-or-queue, overload shedding), `step` is one
  // batched round tick plus deadline sweep plus queue drain, and
  // `end_run` folds the aggregates. All four must be called from one
  // thread (the caller's event loop).

  /// `expected` pre-sizes the record store (0 is fine).
  void begin_run(std::uint64_t expected);
  void offer_job(const JobOffer& offer, double now);
  void step(double now);
  [[nodiscard]] ServiceResult end_run(double makespan);

  /// True when no instance is active. Invariant: a non-empty admission
  /// queue implies an active instance, so an idle service has nothing
  /// to do until the next offer.
  [[nodiscard]] bool idle() const { return active_.empty(); }
  /// Jobs finished (completed + shed) since `begin_run`.
  [[nodiscard]] std::uint64_t finished() const { return finished_this_run_; }
  /// Occupied slots + queued slot width: the deterministic-least-loaded
  /// router's load figure.
  [[nodiscard]] int load() const {
    return active_width_ + admission_.queued_width();
  }
  [[nodiscard]] int active_width() const { return active_width_; }
  [[nodiscard]] std::size_t queue_depth() const { return admission_.size(); }
  [[nodiscard]] std::size_t queued_of(AdmissionClass cls) const {
    return admission_.size_of(cls);
  }
  [[nodiscard]] std::uint64_t completed_so_far() const {
    return completed_so_far_;
  }
  [[nodiscard]] std::uint64_t shed_so_far() const { return shed_so_far_; }
  [[nodiscard]] std::uint64_t deadline_missed_so_far() const {
    return deadline_missed_so_far_;
  }
  [[nodiscard]] std::uint64_t completed_of(AdmissionClass cls) const {
    return completed_by_class_[static_cast<std::size_t>(index_of(cls))];
  }
  /// Running decision-latency sketch (merged by the front-end per
  /// sample instant).
  [[nodiscard]] const obs::QuantileSketch& running_latency_sketch() const {
    return latency_sketch_;
  }

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  /// The resolved mix (`default_mix()` when the config left it empty).
  [[nodiscard]] const std::vector<JobTemplate>& mix() const { return mix_; }
  /// Size of the stateless adversary family (for `draw_adversary_index`).
  [[nodiscard]] std::size_t adversary_count() const {
    return adversaries_.size();
  }

  /// Slots constructed / recycled since construction (mirrors the
  /// `service.slots_created` / `service.slot_reuse` counters, readable
  /// without a registry snapshot).
  [[nodiscard]] std::uint64_t slots_created() const { return slots_created_; }
  [[nodiscard]] std::uint64_t slot_reuses() const { return slot_reuses_; }

 private:
  struct Shape;
  struct InstanceSlot;
  struct ActiveJob;

  void build_shapes();
  [[nodiscard]] InstanceSlot* acquire_slot(int shape_index);
  void release_slot(InstanceSlot* slot);
  [[nodiscard]] bool try_admit(std::uint64_t local, double now);
  void shed_job(std::uint64_t local, double at, bool deadline_missed);
  void expire_deadlines(double now);
  void drain_queue(double now);
  void tick(double now);
  void complete_sub_instance(InstanceSlot& slot, double now);
  [[nodiscard]] bool job_injected(std::uint64_t job_id) const;
  void flush_samples(double next_event);
  void push_sample(double at);

  ServiceConfig config_;
  std::vector<JobTemplate> mix_;
  /// Stateless adversary family shared by all concurrent instances.
  std::vector<std::unique_ptr<sim::Adversary>> adversaries_;
  std::vector<std::unique_ptr<Shape>> shapes_;
  /// mix_[t] -> indices into shapes_, one per sub-instance of a job.
  std::vector<std::vector<int>> template_shapes_;

  std::vector<std::unique_ptr<InstanceSlot>> slots_;   // owner
  std::vector<std::vector<InstanceSlot*>> free_slots_;  // per shape
  std::vector<InstanceSlot*> active_;
  std::vector<ActiveJob> jobs_;  // per offered job, by local index
  AdmissionQueue admission_;
  int active_width_ = 0;

  std::unique_ptr<sweep::TickCrew> crew_;  // null when jobs == 1
  std::uint64_t slots_created_ = 0;
  std::uint64_t slot_reuses_ = 0;

  // Per-run scratch (kept across runs to preserve capacity). Records and
  // job states are appended per offer; in `run()` the local index equals
  // the job id, under the front-end it is the shard-local offer ordinal
  // (`records_[local].id` holds the global id).
  std::vector<JobRecord> records_;
  std::uint64_t finished_this_run_ = 0;  // completed + shed jobs
  std::uint64_t ticks_this_run_ = 0;
  int peak_active_ = 0;
  sim::RunResult scratch_result_;

  // Observability scratch (spans/samples/sketches, reset per run).
  bool recording_ = false;        // record_spans, post kill-switch gate
  bool inject_enabled_ = false;   // fault_plan.active()
  std::vector<obs::Span> spans_;
  std::vector<ServiceSample> samples_;
  obs::QuantileSketch latency_sketch_;
  obs::QuantileSketch queue_sketch_;
  std::array<obs::QuantileSketch, kAdmissionClassCount> class_latency_{};
  double next_sample_ = 0.0;
  std::uint64_t completed_so_far_ = 0;
  std::uint64_t shed_so_far_ = 0;
  std::uint64_t deadline_missed_so_far_ = 0;
  std::array<std::uint64_t, kAdmissionClassCount> completed_by_class_{};
};

/// One-shot convenience: construct, run once, return the result.
[[nodiscard]] ServiceResult run_service(const ServiceConfig& config);

}  // namespace da::service
