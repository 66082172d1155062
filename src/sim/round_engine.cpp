#include "sim/round_engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/contracts.hpp"

namespace da::sim {

namespace {

const obs::Counter& executions_counter() {
  static const obs::Counter c("sim.executions");
  return c;
}
const obs::Counter& rounds_counter() {
  static const obs::Counter c("sim.rounds");
  return c;
}
const obs::Counter& sent_counter() {
  static const obs::Counter c("sim.messages_sent");
  return c;
}
const obs::Counter& delivered_counter() {
  static const obs::Counter c("sim.messages_delivered");
  return c;
}
const obs::Counter& wire_bytes_counter() {
  static const obs::Counter c("sim.wire_bytes");
  return c;
}
const obs::Counter& fabrications_dropped_counter() {
  static const obs::Counter c("sim.fabrications_dropped");
  return c;
}
#ifndef DA_METRICS_DISABLED
const obs::Quantile& round_ms_sketch() {
  static const obs::Quantile q("sim.round_ms");
  return q;
}

/// True for the rounds `sim.round_ms` times on this thread: its first,
/// then one in every `kRoundTimerEvery`.
bool round_sampled() {
  thread_local std::uint32_t rounds = 0;
  return rounds++ % kRoundTimerEvery == 0;
}
#endif

/// The in-flight inboxes of one thread, shared by every engine stepped on
/// it. `dispatch_pending()` claims them (`owner`), and the
/// `process_round()` that follows on the same thread consumes the claim.
struct InboxScratch {
  std::vector<std::vector<Message>> inboxes;  // sized to the largest n seen
  std::vector<Message> final_sends;           // final-round sends, discarded
  const RoundEngine* owner = nullptr;  // engine whose dispatch filled them
  std::uint64_t claim = 0;             // ... and which of its dispatches
  bool delivering = false;             // a process_round is reading them
};

InboxScratch& inbox_scratch() {
  thread_local InboxScratch scratch;
  return scratch;
}

}  // namespace

RoundEngine::RoundEngine(std::vector<std::unique_ptr<Process>> processes,
                         RunOptions options)
    : processes_(std::move(processes)),
      options_(std::move(options)),
      index_(processes_, options_.faulty) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
  rounds_ = processes_[0]->total_rounds();
  for (const auto& p : processes_) DA_EXPECTS(p->total_rounds() == rounds_);
  const std::size_t n = processes_.size();
  pending_.resize(n);
}

void RoundEngine::begin() {
  DA_EXPECTS(!begun_);
  executions_counter().add();
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    pending_[i] = processes_[i]->start();
  }
  pending_round_ = 0;
  begun_ = true;
  dispatched_ = false;
}

void RoundEngine::dispatch(std::vector<Message>& outbox, std::size_t i,
                           int round, bool fabricated,
                           std::vector<std::vector<Message>>& inboxes) {
  const NodeId from = processes_[i]->id();
  const bool faulty = index_.faulty(i);
  // Metric deltas are batched per dispatch call — identical totals, one
  // thread-local add per metric instead of three per message.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t wire_bytes = 0;
  const auto deliver = [&](const Message& copy) {
    const std::size_t to = index_.at(copy.to);
    if (to == NodeIndex::npos) {
      // Only fabricate() can aim at a non-participant (rewrite() is
      // normalized, honest processes address peers): drop and count.
      DA_EXPECTS(fabricated);
      fabrications_dropped_counter().add();
      return;
    }
    ++messages_delivered_;
    ++delivered;
    wire_bytes += wire_size_bytes(copy);
    if (options_.trace != nullptr) options_.trace->record(copy);
    inboxes[to].push_back(copy);
  };

  for (Message& msg : outbox) {
    DA_EXPECTS(msg.from == from);
    msg.round = round;
    ++messages_sent_;
    ++sent;
    if (options_.network == nullptr) {
      // Reliable-link fast path: no per-message fan-out vector, and the
      // adversary rewrites the held message in place (the outbox is
      // cleared after this dispatch, and snapshots copied it before).
      // Semantics identical to filter_fanout.
      if (fabricated || !faulty) {
        deliver(msg);
        continue;
      }
      DA_EXPECTS(options_.adversary != nullptr);
      if (corrupt_in_place(*options_.adversary, msg)) deliver(msg);
    } else {
      // Fabricated messages already carry adversarial content; they skip
      // the adversary but still traverse the network model.
      for (const Message& copy :
           filter_fanout(msg, options_, faulty, fabricated)) {
        deliver(copy);
      }
    }
  }
  if (sent != 0) sent_counter().add(sent);
  if (delivered != 0) delivered_counter().add(delivered);
  if (wire_bytes != 0) wire_bytes_counter().add(wire_bytes);
  if (options_.spans != nullptr) {
    options_.spans->note_send(round, sent);
    options_.spans->note_deliver(round, delivered);
  }
}

void RoundEngine::dispatch_pending() {
  DA_EXPECTS(begun_ && !dispatched_ && !done());
  InboxScratch& scratch = inbox_scratch();
  // Nested stepping (a process or adversary driving another engine on
  // this thread) would overwrite inboxes still being read.
  DA_EXPECTS(!scratch.delivering);
  // Claim the thread's inboxes. Clearing them drops whatever an earlier
  // engine left behind when a dispatch or process_round threw, or when
  // its dispatch was never processed; the claim is recorded only once
  // the inboxes are full.
  scratch.owner = nullptr;
  const std::size_t n = processes_.size();
  if (scratch.inboxes.size() < n) scratch.inboxes.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.inboxes[i].clear();
  for (std::size_t i = 0; i < n; ++i) {
    dispatch(pending_[i], i, pending_round_, /*fabricated=*/false,
             scratch.inboxes);
    pending_[i].clear();  // keep capacity for the next collect
    if (index_.faulty(i)) {
      std::vector<Message> fabricated =
          options_.adversary->fabricate(processes_[i]->id(), pending_round_);
      dispatch(fabricated, i, pending_round_, /*fabricated=*/true,
               scratch.inboxes);
    }
  }
  scratch.owner = this;
  scratch.claim = ++claim_;
  dispatched_ = true;
}

void RoundEngine::process_round() {
  DA_EXPECTS(begun_ && dispatched_ && !done());
  rounds_counter().add();
#ifndef DA_METRICS_DISABLED
  std::optional<obs::ScopedTimer> round_timer;
  if (round_sampled()) round_timer.emplace(round_ms_sketch());
#endif
  InboxScratch& scratch = inbox_scratch();
  // The inboxes must hold this engine's latest dispatch: another engine
  // dispatching on this thread in between, or a dispatch made on another
  // thread, would deliver someone else's messages.
  DA_EXPECTS(scratch.owner == this && scratch.claim == claim_ &&
             !scratch.delivering);
  scratch.owner = nullptr;  // the claim is consumed, even if on_round throws
  scratch.delivering = true;
  struct DeliveringGuard {
    bool& flag;
    ~DeliveringGuard() { flag = false; }
  } const guard{scratch.delivering};
  const int r = rounds_processed_;
  const bool last = r + 1 == rounds_;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    std::vector<Message>& inbox = scratch.inboxes[i];
    sort_inbox(inbox);
    // Outboxes collect straight into the held buffers (emptied by the
    // last dispatch, capacity kept). Sends of the final round are
    // discarded, uncounted, so they go to the thread's scratch buffer.
    std::vector<Message>& out = last ? scratch.final_sends : pending_[i];
    processes_[i]->on_round(r, inbox, out);
    scratch.final_sends.clear();
    inbox.clear();  // keep capacity for the next engine on this thread
  }
  rounds_processed_ = r + 1;
  pending_round_ = r + 1;
  dispatched_ = false;
  if (options_.spans != nullptr) {
    options_.spans->note_resolve(r, processes_.size());
    if (done()) options_.spans->note_done(rounds_);
  }
}

RunResult RoundEngine::finish() const {
  RunResult result;
  finish_into(result);
  return result;
}

void RoundEngine::finish_into(RunResult& out) const {
  DA_EXPECTS(done());
  out.decisions.clear();
  for (const auto& p : processes_) out.decisions[p->id()] = p->decide();
  out.messages_sent = messages_sent_;
  out.messages_delivered = messages_delivered_;
  out.rounds = rounds_;
}

RunResult RoundEngine::run() {
  const obs::MetricsScope metrics_scope;
  if (!begun_) begin();
  while (!done()) {
    dispatch_pending();
    process_round();
  }
  return finish();
}

RoundEngine::Snapshot RoundEngine::snapshot() const {
  DA_EXPECTS(begun_ && !dispatched_);
  Snapshot snap;
  snap.processes.reserve(processes_.size());
  for (const auto& p : processes_) snap.processes.push_back(p->clone());
  snap.pending = pending_;
  snap.pending_round = pending_round_;
  snap.rounds_processed = rounds_processed_;
  snap.begun = begun_;
  snap.messages_sent = messages_sent_;
  snap.messages_delivered = messages_delivered_;
  if (options_.trace != nullptr) {
    snap.trace = *options_.trace;
    snap.trace_attached = true;
  }
  return snap;
}

void RoundEngine::restore(const Snapshot& snap) {
  DA_EXPECTS(snap.processes.size() == processes_.size());
  DA_EXPECTS((options_.trace != nullptr) == snap.trace_attached);
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    processes_[i]->assign_from(*snap.processes[i]);
  }
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pending_[i] = snap.pending[i];  // copy-assign: reuses capacity
  }
  pending_round_ = snap.pending_round;
  rounds_processed_ = snap.rounds_processed;
  begun_ = snap.begun;
  dispatched_ = false;
  messages_sent_ = snap.messages_sent;
  messages_delivered_ = snap.messages_delivered;
  if (snap.trace_attached) *options_.trace = snap.trace;
}

}  // namespace da::sim
