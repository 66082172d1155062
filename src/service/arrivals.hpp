#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace da::service {

/// Open-loop arrival processes for the agreement service: the offered
/// load is a function of the model and the seed alone, never of how fast
/// the service drains it (the YAPS-style central-event-queue discipline).
/// All times are in the service's virtual time unit (one protocol round
/// is `ServiceConfig::round_period` of them).
enum class ArrivalKind {
  /// Memoryless: exponential inter-arrival gaps at `rate`.
  kPoisson,
  /// Two-state on/off (Markov-modulated): while ON, Poisson arrivals at
  /// `burst_rate`; while OFF, silence. ON/OFF holding times are
  /// exponential with means `on_period` / `off_period`.
  kBursty,
  /// Heavy-tailed renewal process: inter-arrival gaps drawn from a
  /// bounded Pareto with tail index `pareto_alpha`, truncated at
  /// `pareto_cap` times the minimum gap and rescaled so the long-run
  /// mean rate is `rate`. Most gaps are tiny; rare gaps are huge.
  kPareto,
};

[[nodiscard]] const char* to_string(ArrivalKind kind);

/// Parses "poisson" / "bursty" / "pareto" (the `da service --model`
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<ArrivalKind> parse_arrival_kind(
    std::string_view name);

/// Parameters of one arrival model. `rate` is the long-run mean arrival
/// rate (jobs per time unit) for every kind; the factory functions fill
/// the kind-specific fields with conventional shapes.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 1.0;

  // kBursty: ON-state arrival rate and the mean ON/OFF holding times.
  // The long-run mean rate is burst_rate * on_period/(on_period+off_period);
  // `bursty()` derives burst_rate from `rate` so the duty cycle burns the
  // same offered load as the other kinds.
  double burst_rate = 0.0;
  double on_period = 0.0;
  double off_period = 0.0;

  // kPareto: tail index (> 1 so the mean exists) and the truncation
  // point, as a multiple of the minimum gap.
  double pareto_alpha = 1.5;
  double pareto_cap = 1000.0;

  [[nodiscard]] static ArrivalSpec poisson(double rate);
  /// ON fraction = on_period/(on_period+off_period); arrivals inside a
  /// burst come `burstiness` times faster than the long-run rate.
  [[nodiscard]] static ArrivalSpec bursty(double rate, double burstiness = 4.0,
                                          double on_period = 5.0,
                                          double off_period = 15.0);
  [[nodiscard]] static ArrivalSpec pareto(double rate, double alpha = 1.5,
                                          double cap = 1000.0);

  [[nodiscard]] std::string to_string() const;
};

/// Sequential generator of arrival times for one spec. Deterministic for
/// a (spec, seed) pair: the k-th arrival time is independent of how the
/// service schedules work, so the offered trace is identical for every
/// `--jobs` value. Generation happens only on the service's event loop
/// thread — sequential state (the bursty on/off phase) is safe here.
class ArrivalGenerator {
 public:
  ArrivalGenerator(ArrivalSpec spec, std::uint64_t seed);

  /// Absolute time of the next arrival (strictly increasing).
  [[nodiscard]] double next();

  [[nodiscard]] const ArrivalSpec& spec() const { return spec_; }

  /// Phase-machine introspection for kBursty (meaningless for the other
  /// kinds): whether the generator currently sits in an ON phase, and the
  /// absolute end time of that phase. The stream *opens ON at t=0* — the
  /// constructor draws the first phase end from `on_period` with
  /// `on_ == true`, so the very first arrivals come at `burst_rate`, not
  /// after an OFF-length silence. `tests/test_service.cpp` pins both the
  /// opening state and the no-arrival-inside-an-OFF-phase invariant
  /// through these accessors.
  [[nodiscard]] bool bursty_on() const { return on_; }
  [[nodiscard]] double bursty_phase_end() const { return phase_end_; }
  /// Absolute time of the most recent arrival (0 before the first).
  [[nodiscard]] double now() const { return now_; }

 private:
  [[nodiscard]] double exponential(double mean);
  [[nodiscard]] double bounded_pareto_gap();

  ArrivalSpec spec_;
  Rng rng_;
  double now_ = 0.0;
  // kBursty phase machine.
  bool on_ = true;
  double phase_end_ = 0.0;
  // kPareto: mean of the unscaled bounded-Pareto draw, precomputed so
  // every gap is one draw plus one multiply.
  double pareto_mean_ = 1.0;
};

}  // namespace da::service
