#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/runner.hpp"

namespace da::sim {

/// `RoundEngine::process_round` times one round in this many per thread
/// into the `sim.round_ms` sketch, starting with the thread's first: two
/// clock reads per round would cost a forked search execution more than a
/// tenth of its time.
inline constexpr std::uint32_t kRoundTimerEvery = 64;

/// Resumable synchronous-round executor: `SyncRunner`'s loop, unrolled
/// into explicit phases so a search can checkpoint an execution at a round
/// boundary and fork cheap copies that continue under different adversary
/// decisions.
///
/// A round has two phases, and the engine alternates them:
///
///   1. *collect* — `begin()` gathers every process's round-0 sends;
///      `process_round()` delivers the pending inboxes for the current
///      round (canonical `sort_inbox` order), runs `on_round`, and gathers
///      the resulting next-round outboxes. Collected outboxes are *held*,
///      not yet sent.
///   2. *dispatch* — `dispatch_pending()` pushes the held outboxes through
///      the adversary (`rewrite`/`fabricate`) and the network model into
///      the receivers' inboxes.
///
/// The split matters because all adversary influence happens at dispatch:
/// a snapshot taken between collect and dispatch (the *pre-dispatch
/// boundary*) captures an execution prefix that is independent of any
/// adversary decision not yet applied. `snapshot()` copies the full state
/// at such a boundary — `Process::clone()` of every node (plain vector
/// copies for the flat EIG arena), the held outboxes, the result counters,
/// and the trace prefix when a trace is attached — and `restore()` rewinds
/// an engine to it, reusing the engine's existing buffers so steady-state
/// forking allocates nothing. `set_adversary()` swaps the adversary
/// between forks; the prefix stays valid as long as the swapped-in
/// adversary would have made the same (absent) round-0..k decisions, which
/// docs/SEARCH.md's checkpoint-engine section spells out.
///
/// An engine keeps resident only its processes and held outboxes. The
/// in-flight inboxes, which hold messages only between a dispatch and the
/// delivery that follows it, are per-thread scratch shared by every
/// engine stepped on that thread: `dispatch_pending()` claims them and
/// `process_round()` consumes the claim. So the two calls must run back
/// to back on one thread, with no other engine dispatching in between;
/// `process_round()` rejects anything else as a contract violation. A
/// throw inside either call leaves the scratch usable by the next engine.
///
/// `run()` drives the phases to completion and is exactly `SyncRunner`'s
/// loop — `SyncRunner::run()` now delegates here, so the two cannot drift.
class RoundEngine {
 public:
  RoundEngine(std::vector<std::unique_ptr<Process>> processes,
              RunOptions options);

  /// Collects round-0 sends. Must be the first phase call; counts one
  /// `sim.executions`.
  void begin();

  /// Dispatches the held outboxes (adversary, network, routing) into the
  /// receivers' next-round inboxes, which are this thread's scratch.
  void dispatch_pending();

  /// Delivers the current round's inboxes, runs `on_round`, holds the
  /// next-round outboxes. After the final round there is nothing left to
  /// dispatch and `done()` is true. Must follow this engine's
  /// `dispatch_pending()` on the same thread, with no other engine's
  /// dispatch in between.
  void process_round();

  /// True once every round has been processed.
  [[nodiscard]] bool done() const { return rounds_processed_ == rounds_; }

  /// Decisions + logical message counters of the execution so far.
  [[nodiscard]] RunResult finish() const;

  /// Reuse-friendly `finish()`: overwrites `out`, keeping its capacity.
  void finish_into(RunResult& out) const;

  /// Drives begin (unless already begun) / dispatch / process to
  /// completion and returns the result. One-shot equivalent of SyncRunner.
  RunResult run();

  [[nodiscard]] int total_rounds() const { return rounds_; }
  /// Rounds fully processed so far (= the next round to process).
  [[nodiscard]] int rounds_processed() const { return rounds_processed_; }

  /// Swap the adversary applied to future dispatches (forks install their
  /// own table); faulty-set, network and process topology stay fixed.
  void set_adversary(Adversary* adversary) { options_.adversary = adversary; }

  /// Swap the network model applied to future dispatches. Like
  /// `set_adversary`, this is sound at a pre-dispatch boundary: no
  /// dispatch of the current prefix consulted the old model after that
  /// boundary. The agreement service uses it to attach a per-slot
  /// fault-injection network on admission (docs/SERVICE.md).
  void set_network(NetworkModel* network) { options_.network = network; }

  /// Full engine state at a pre-dispatch boundary: the processes, the
  /// held outboxes and the counters (plus the trace prefix). There is no
  /// in-flight state at that boundary, so none is captured. Opaque to
  /// callers; create with `snapshot()`, consume with `restore()`.
  struct Snapshot {
    std::vector<std::unique_ptr<Process>> processes;
    std::vector<std::vector<Message>> pending;
    int pending_round = 0;
    int rounds_processed = 0;
    bool begun = false;
    std::size_t messages_sent = 0;
    std::size_t messages_delivered = 0;
    Trace trace;  // prefix transcript; meaningful iff trace_attached
    bool trace_attached = false;
  };

  /// Captures the state. Legal only at a pre-dispatch boundary (after
  /// `begin()` or `process_round()`, before `dispatch_pending()`).
  [[nodiscard]] Snapshot snapshot() const;

  /// Rewinds this engine to `snap` (which must come from an engine over
  /// the same process set). Buffers are assigned over, not reallocated, so
  /// repeated restore/replay cycles are allocation-free at steady state.
  void restore(const Snapshot& snap);

 private:
  void dispatch(std::vector<Message>& outbox, std::size_t i, int round,
                bool fabricated, std::vector<std::vector<Message>>& inboxes);

  std::vector<std::unique_ptr<Process>> processes_;
  RunOptions options_;
  NodeIndex index_;
  int rounds_ = 0;

  // Held outboxes (one per process) for round `pending_round_`, collected
  // but not yet dispatched. `begun_` flips on begin(); `dispatched_`
  // tracks which phase is next.
  std::vector<std::vector<Message>> pending_;
  int pending_round_ = 0;
  bool begun_ = false;
  bool dispatched_ = false;
  // Number of this engine's dispatches; tags its claim on the thread's
  // inboxes so `process_round()` can tell its latest dispatch apart.
  std::uint64_t claim_ = 0;
  int rounds_processed_ = 0;

  std::size_t messages_sent_ = 0;
  std::size_t messages_delivered_ = 0;
};

}  // namespace da::sim
