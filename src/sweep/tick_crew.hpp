#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace da::sweep {

/// Persistent lockstep helpers for a short fan-out repeated many times:
/// the service's per-tick work (one shard step, or one slice of an
/// instance batch, tens of microseconds each, thousands of times a run).
///
/// The crew is `threads() - 1` helper threads plus the thread that calls
/// `run`. `run(tasks, fn)` calls `fn(i)` for every i in [0, tasks) and
/// runs task i on member `i % threads()` (member 0 is the caller), the
/// same member on every call, so a task's working set stays in one
/// core's cache from tick to tick. One epoch counter releases the
/// helpers; between runs an idle helper polls for `kSpinFor`, then parks.
///
/// Unlike `ThreadPool` there is no queue, no stealing and no per-task
/// allocation or wake-up. That suits many short, evenly sized tasks;
/// long, skewed work (the sweep's shards, where one shard can cost many
/// times another) keeps the pool, where stealing pays.
class TickCrew {
 public:
  /// How long an idle helper polls for the next run before it parks,
  /// and how long the caller polls for the helpers before it parks.
  /// Spans a slow tick's imbalance between members plus the admissions
  /// the caller runs between ticks, so members park only when the crew
  /// is idle: on a virtual machine, waking a parked thread can cost more
  /// than a whole front-end tick (on a loaded 4-vCPU VM, a 200 us bound
  /// left front-end runs about 12% slower than this one).
  static constexpr std::chrono::microseconds kSpinFor{1000};

  /// Spawns `threads - 1` helpers (values < 1 are clamped to 1).
  explicit TickCrew(int threads);

  /// Joins every helper, parked or polling.
  ~TickCrew();

  TickCrew(const TickCrew&) = delete;
  TickCrew& operator=(const TickCrew&) = delete;

  [[nodiscard]] int threads() const { return static_cast<int>(members_); }

  /// Runs `fn(i)` for every task i and returns once all have finished
  /// and every helper has flushed its thread-local metrics sink. If a
  /// task throws, its member skips the rest of its tasks, the other
  /// members finish theirs, and the first exception thrown is rethrown
  /// here; the crew stays usable. Call from one thread at a time, and
  /// never from inside a task.
  template <class Fn>
  void run(std::size_t tasks, const Fn& fn) {
    run_erased(
        tasks,
        [](const void* f, std::size_t i) { (*static_cast<const Fn*>(f))(i); },
        &fn);
  }

 private:
  using Call = void (*)(const void* fn, std::size_t task);

  void run_erased(std::size_t tasks, Call call, const void* fn);
  void run_member(std::size_t member);
  void helper_loop(std::size_t member);
  void stop_helpers();

  const std::size_t members_;  // helpers + the caller

  // The current run, written by the caller before it bumps `epoch_`
  // (release) and read by helpers after they observe the bump (acquire).
  std::size_t tasks_ = 0;
  Call call_ = nullptr;
  const void* fn_ = nullptr;
  bool stop_ = false;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};  // helpers finished with this epoch

  std::mutex mu_;  // guards the two waits below and `first_error_`
  std::condition_variable start_cv_;  // "epoch_ moved"
  std::condition_variable done_cv_;   // "done_ reached the helper count"
  std::exception_ptr first_error_;

  std::vector<std::thread> helpers_;  // last: joined before the rest dies
};

}  // namespace da::sweep
