#include "core/scenario.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace da {

std::string Config::to_string() const {
  return std::to_string(m) + "/" + std::to_string(u) + "-degradable, n=" +
         std::to_string(n);
}

UnsupportedConfig::UnsupportedConfig(const Config& config)
    : std::invalid_argument(
          "unsupported config: " + config.to_string() +
          " needs n >= 2m+1 = " + std::to_string(2 * config.m + 1) +
          " for the engine's deepest VOTE quorum to be non-empty"),
      config_(config) {}

UnsupportedConfig::UnsupportedConfig(const Config& config,
                                     const std::string& reason)
    : std::invalid_argument("unsupported config: " + config.to_string() +
                            ": " + reason),
      config_(config) {}

bool ScenarioSpec::sender_faulty() const { return is_faulty(sender); }

bool ScenarioSpec::is_faulty(NodeId id) const {
  return std::binary_search(faulty.begin(), faulty.end(), id);
}

std::vector<NodeId> ScenarioSpec::fault_free_receivers() const {
  std::vector<NodeId> out;
  for_each_fault_free_receiver([&out](NodeId id) { out.push_back(id); });
  return out;
}

void ScenarioSpec::validate() const {
  DA_EXPECTS(config.valid());
  DA_EXPECTS(sender >= 0 && sender < config.n);
  DA_EXPECTS(!sender_value.is_default());
  DA_EXPECTS(std::is_sorted(faulty.begin(), faulty.end()));
  DA_EXPECTS(std::adjacent_find(faulty.begin(), faulty.end()) ==
             faulty.end());
  for (NodeId id : faulty) DA_EXPECTS(id >= 0 && id < config.n);
}

std::string ScenarioSpec::to_string() const {
  std::string s = config.to_string() + ", sender=" + std::to_string(sender) +
                  " value=" + sender_value.to_string() + ", faulty={";
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(faulty[i]);
  }
  return s + "}";
}

}  // namespace da
