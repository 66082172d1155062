#include "sweep/tick_crew.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace da::sweep {

namespace {

/// Polls `ready` for up to `TickCrew::kSpinFor` and reports whether it
/// came true. Yields between probes, so on a host with fewer free cores
/// than pollers the poller hands its core to the thread it waits for.
template <class Ready>
bool poll(const Ready& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + TickCrew::kSpinFor;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

TickCrew::TickCrew(int threads)
    : members_(static_cast<std::size_t>(std::max(1, threads))) {
  helpers_.reserve(members_ - 1);
  try {
    for (std::size_t m = 1; m < members_; ++m) {
      helpers_.emplace_back([this, m] { helper_loop(m); });
    }
  } catch (...) {
    stop_helpers();
    throw;
  }
}

TickCrew::~TickCrew() { stop_helpers(); }

void TickCrew::stop_helpers() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void TickCrew::run_erased(std::size_t tasks, Call call, const void* fn) {
  if (members_ == 1 || tasks <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) call(fn, i);
    return;
  }
  tasks_ = tasks;
  call_ = call;
  fn_ = fn;
  done_.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  run_member(0);

  const std::size_t helpers = members_ - 1;
  const auto all_done = [this, helpers] {
    return done_.load(std::memory_order_acquire) == helpers;
  };
  if (!poll(all_done)) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, all_done);
  }
  // Every helper is done with this epoch, so none writes `first_error_`
  // until the next one: it is the caller's alone here.
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
}

void TickCrew::run_member(std::size_t member) {
  try {
    for (std::size_t i = member; i < tasks_; i += members_) call_(fn_, i);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void TickCrew::helper_loop(std::size_t member) {
  std::uint64_t seen = 0;
  const auto released = [this, &seen] {
    return epoch_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!poll(released)) {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, released);
    }
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_) return;
    if (member < tasks_) {
      // Flushed per run, not per task: the caller may read the registry
      // as soon as `run` returns.
      const obs::MetricsScope metrics_scope;
      run_member(member);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (done_.fetch_add(1, std::memory_order_release) + 1 == members_ - 1) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace da::sweep
