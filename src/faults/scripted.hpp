#pragma once

#include <memory>
#include <vector>

#include "sim/adversary.hpp"
#include "util/ids.hpp"
#include "util/path.hpp"
#include "util/value.hpp"

namespace da::faults {

/// One rewrite rule of a scripted adversary. A field left at its wildcard
/// default matches anything. `path_prefix` matches messages whose relay
/// path begins with the given node sequence.
struct Rule {
  NodeId from = kNoNode;   // kNoNode = any faulty sender
  int round = -1;          // -1 = any round
  Path path_prefix{};      // empty = any path
  NodeId to = kNoNode;     // kNoNode = any destination

  enum class Action { kReplace, kOmit, kPass };
  Action action = Action::kPass;
  Value value{};  // used by kReplace

  [[nodiscard]] bool matches(const sim::Message& msg) const;
};

/// Replays an exact fault script: the first matching rule decides each
/// message's fate; unmatched messages pass through unmodified. This is how
/// the Figure 2 proof scenarios ("node A pretends to have received alpha
/// from sender S") are reproduced verbatim.
class ScriptedAdversary final : public sim::RewritingAdversary {
 public:
  explicit ScriptedAdversary(std::vector<Rule> rules);

  [[nodiscard]] bool rewrite(sim::Message& msg) override;

 private:
  std::vector<Rule> rules_;
};

[[nodiscard]] std::unique_ptr<sim::Adversary> scripted(
    std::vector<Rule> rules);

}  // namespace da::faults
