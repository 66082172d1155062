#include "faults/scripted.hpp"

#include <algorithm>

namespace da::faults {

bool Rule::matches(const sim::Message& msg) const {
  if (from != kNoNode && msg.from != from) return false;
  if (round >= 0 && msg.round != round) return false;
  if (to != kNoNode && msg.to != to) return false;
  if (!path_prefix.empty()) {
    if (msg.path.size() < path_prefix.size()) return false;
    if (!std::equal(path_prefix.begin(), path_prefix.end(),
                    msg.path.begin())) {
      return false;
    }
  }
  return true;
}

ScriptedAdversary::ScriptedAdversary(std::vector<Rule> rules)
    : rules_(std::move(rules)) {}

bool ScriptedAdversary::rewrite(sim::Message& msg) {
  for (const Rule& rule : rules_) {
    if (!rule.matches(msg)) continue;
    switch (rule.action) {
      case Rule::Action::kOmit:
        return false;
      case Rule::Action::kReplace:
        msg.value = rule.value;
        return true;
      case Rule::Action::kPass:
        return true;
    }
  }
  return true;
}

std::unique_ptr<sim::Adversary> scripted(std::vector<Rule> rules) {
  return std::make_unique<ScriptedAdversary>(std::move(rules));
}

}  // namespace da::faults
