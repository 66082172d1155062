#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sim/message.hpp"

namespace da::sim {

/// A Byzantine adversary controls every faulty node at once (collusion is
/// the worst case and subsumes independent faults).
///
/// The runtimes pass each outgoing message of a faulty node through
/// `rewrite`, which edits it in place; the adversary may rewrite the
/// value, or return false to suppress the message (which fault-free
/// receivers observe as an absent message, i.e. the default value V_d —
/// assumption (b) of Section 4). `corrupt` is the same decision in copying
/// form: it returns the rewritten message, or nullopt to omit. Either hook
/// may be the one an adversary writes: `rewrite` defaults to forwarding to
/// `corrupt`, and `RewritingAdversary` derives `corrupt` from `rewrite`.
///
/// Receivers validate message structure (correct round, well-formed path,
/// matching `from`), so an adversary forging *metadata* is equivalent to one
/// omitting the message; the runtimes restore `from`, `to` and `round`
/// after `rewrite` (`sim::corrupt_in_place`), so forging the *value* is the
/// full Byzantine power for the protocols studied here. `fabricate`
/// additionally lets an adversary send messages a correct node never would
/// (e.g. a faulty node "echoing" a value it never received); fabricated
/// messages are validated by receivers like any others.
///
/// Implementations must derive all randomness from the message identity
/// (via `da::mix64`), never from call order: both runtimes must observe
/// identical behaviour.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Transform an outgoing message of a faulty node. nullopt = omit.
  [[nodiscard]] virtual std::optional<Message> corrupt(
      const Message& original) = 0;

  /// In-place form of `corrupt`, the one the runtimes call: rewrites
  /// `msg` and returns true, or returns false to omit it (`msg` is then
  /// unspecified). The default forwards to `corrupt`.
  [[nodiscard]] virtual bool rewrite(Message& msg) {
    std::optional<Message> out = corrupt(msg);
    if (!out) return false;
    msg = std::move(*out);
    return true;
  }

  /// Extra messages the faulty `node` injects in round `round` (these are
  /// in addition to — not instead of — its protocol sends).
  [[nodiscard]] virtual std::vector<Message> fabricate(NodeId node,
                                                       int round) {
    (void)node;
    (void)round;
    return {};
  }
};

/// Base of adversaries written once, in place: implement `rewrite`, and
/// the copying `corrupt` is derived from it.
class RewritingAdversary : public Adversary {
 public:
  [[nodiscard]] bool rewrite(Message& msg) override = 0;

  [[nodiscard]] std::optional<Message> corrupt(
      const Message& original) final {
    Message out = original;
    if (!rewrite(out)) return std::nullopt;
    return out;
  }
};

/// The identity adversary: faulty nodes follow the protocol. Useful as a
/// control and for "crashed but honest" baselines.
class HonestAdversary final : public RewritingAdversary {
 public:
  [[nodiscard]] bool rewrite(Message&) override { return true; }
};

/// Passes an outgoing message of a faulty node through `adversary` in
/// place; false means it is omitted. The adversary may rewrite content
/// but not impersonate other nodes or time-travel — receivers would
/// reject those — so `from`, `to` and `round` are restored afterwards.
/// Every runtime's dispatch goes through here.
[[nodiscard]] inline bool corrupt_in_place(Adversary& adversary,
                                           Message& msg) {
  const NodeId from = msg.from;
  const NodeId to = msg.to;
  const int round = msg.round;
  if (!adversary.rewrite(msg)) return false;
  msg.from = from;
  msg.to = to;
  msg.round = round;
  return true;
}

}  // namespace da::sim
