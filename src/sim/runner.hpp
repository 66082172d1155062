#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/decisions.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"
#include "util/ids.hpp"

namespace da::obs {
class SpanSink;
}  // namespace da::obs

namespace da::sim {

/// Everything a runner needs besides the processes themselves.
struct RunOptions {
  /// Ids of Byzantine nodes. Must be process ids.
  std::vector<NodeId> faulty{};
  /// Controls all faulty nodes. May be null iff `faulty` is empty.
  Adversary* adversary = nullptr;
  /// Link model; null means reliable delivery.
  NetworkModel* network = nullptr;
  /// Optional transcript capture (delivered messages per receiver).
  Trace* trace = nullptr;
  /// Optional per-round phase tallies (send/deliver/resolve spans, see
  /// obs/spans.hpp). The runtimes call it from their serialized dispatch
  /// sections, so one sink observes one execution at a time.
  obs::SpanSink* spans = nullptr;
};

/// Outcome of one protocol execution.
struct RunResult {
  /// Every node's decision (including the sender's, which for fault-free
  /// senders is its own value by construction of the protocols). A flat
  /// sorted vector under a map-like surface — see sim/decisions.hpp.
  Decisions decisions;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  int rounds = 0;
};

/// Deterministic, single-threaded synchronous-round executor. Rounds are
/// global: all messages produced in round r are delivered together at the
/// start of processing for round r, in a canonical order (sender id, then
/// relay path), so executions are exactly reproducible. The loop itself
/// lives in `RoundEngine` (sim/round_engine.hpp), which additionally
/// supports checkpoint/fork replay; `run()` is the one-shot form.
class SyncRunner {
 public:
  SyncRunner(std::vector<std::unique_ptr<Process>> processes,
             RunOptions options);

  [[nodiscard]] RunResult run();

 private:
  std::vector<std::unique_ptr<Process>> processes_;
  RunOptions options_;
};

/// The single normalization path used by all three runtimes' dispatch
/// loops: `corrupt_in_place` (skipped for fabricated messages, which
/// already carry adversarial content), then the network model's
/// transit_fanout. The round engine's reliable-link fast path inlines the
/// same steps without the fan-out vector. A duplicating
/// network (src/inject/) may return several copies; a dropping one, none.
[[nodiscard]] std::vector<Message> filter_fanout(const Message& msg,
                                                 const RunOptions& options,
                                                 bool from_is_faulty,
                                                 bool fabricated);

/// Dense NodeId -> process-index table shared by the three runtimes'
/// indexed inbox buffers: `at(id)` is the process position, or npos for
/// ids no process owns. Honest senders and the normalized adversary
/// `rewrite` hook can only target participants, but `fabricate` may aim
/// anywhere — runtimes must *drop* (and count) fabricated messages whose
/// target is unknown instead of growing a map or writing out of bounds.
///
/// The table also carries each position's faulty flag, built once from
/// `RunOptions::faulty` (every faulty id must be a process id), so the
/// runtimes' per-dispatch "is the sender Byzantine?" test is one load.
class NodeIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  NodeIndex(const std::vector<std::unique_ptr<Process>>& processes,
            const std::vector<NodeId>& faulty);

  [[nodiscard]] std::size_t at(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < index_.size()
               ? index_[static_cast<std::size_t>(id)]
               : npos;
  }

  /// True if the process at position `i` is in `RunOptions::faulty`.
  [[nodiscard]] bool faulty(std::size_t i) const { return faulty_[i] != 0; }

  [[nodiscard]] std::size_t size() const { return faulty_.size(); }

 private:
  std::vector<std::size_t> index_;    // NodeId -> position, npos when unknown
  std::vector<std::uint8_t> faulty_;  // position -> 1 when faulty
};

/// Canonical inbox order used by all three runtimes: (from, path, value,
/// aux). Inboxes that already arrive in that order — every honest
/// depth <= 3 round — are only checked, not re-sorted.
void sort_inbox(std::vector<Message>& inbox);

}  // namespace da::sim
