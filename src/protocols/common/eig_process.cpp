#include "protocols/common/eig_process.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace da::protocols {

EigProcess::EigProcess(Params params)
    : params_(std::move(params)),
      tree_(params_.self, params_.sender, params_.nodes, params_.depth) {
  DA_EXPECTS(params_.resolver != nullptr);
  DA_EXPECTS(params_.depth >= 1);
  if (params_.self == params_.sender) {
    DA_EXPECTS(!params_.input.is_default());
  }
}

std::vector<sim::Message> EigProcess::start() {
  std::vector<sim::Message> out;
  if (params_.self != params_.sender) return out;
  Path root;
  root.push_back(params_.sender);
  for (NodeId to : tree_.nodes()) {
    if (to == params_.self) continue;
    out.push_back(sim::Message{.from = params_.self,
                               .to = to,
                               .round = 0,
                               .path = root,
                               .value = params_.input});
  }
  return out;
}

void EigProcess::on_round(int round, const std::vector<sim::Message>& inbox,
                          std::vector<sim::Message>& out) {
  // The final round stores without relaying (as does the sender, which
  // admits nothing).
  const bool relay = round + 1 < params_.depth;
  const std::size_t length = static_cast<std::size_t>(round) + 1;
  const std::vector<NodeId>& nodes = tree_.nodes();
  const EigLayout& layout = tree_.layout();
  for (const sim::Message& msg : inbox) {
    // Per-message checks; everything about the path itself — rooted at
    // the sender, distinct participant hops, not through this receiver —
    // is checked by admit() in the same walk that locates its slot.
    if (msg.to != params_.self || msg.path.size() != length ||
        msg.path.back() != msg.from) {
      continue;
    }
    const std::uint32_t ord = tree_.admit(msg.path);
    if (ord == EigTree::kReject) continue;
    // Duplicate deliveries lose to the first write.
    if (!tree_.set_if_absent(ord, msg.value) || !relay) continue;
    // Relay the value just stored with our id appended, to every node not
    // on the extended path (ascending id = ascending rank). Omitted
    // incoming messages are not re-materialized: the downstream receiver
    // observes our silence for that path as V_d, exactly as we did.
    const Path extended = msg.path.extended(params_.self);
    const std::uint64_t skip = layout.hop_mask(ord) | tree_.self_bit();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      if (((skip >> k) & 1u) != 0) continue;
      out.push_back(sim::Message{.from = params_.self,
                                 .to = nodes[k],
                                 .round = round + 1,
                                 .path = extended,
                                 .value = msg.value});
    }
  }
}

Value EigProcess::decide() const {
  if (params_.self == params_.sender) return params_.input;
  return tree_.resolve(*params_.resolver);
}

std::unique_ptr<sim::Process> EigProcess::clone() const {
  auto copy = std::make_unique<EigProcess>(params_);
  copy->tree_ = tree_;
  return copy;
}

void EigProcess::assign_from(const sim::Process& other) {
  // The tree checks that both processes share a shape (layout, sender,
  // receiver) and copies only its values: no layout refcount traffic.
  tree_.assign_values_from(dynamic_cast<const EigProcess&>(other).tree_);
}

std::vector<std::unique_ptr<sim::Process>> make_eig_processes(
    int n, NodeId sender, Value input, int depth,
    std::shared_ptr<const Resolver> resolver) {
  DA_EXPECTS(n >= 2);
  static const obs::Counter instances("protocol.eig.instances");
  instances.add();
  DA_EXPECTS(sender >= 0 && sender < n);
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (NodeId self = 0; self < n; ++self) {
    procs.push_back(std::make_unique<EigProcess>(EigProcess::Params{
        .self = self,
        .sender = sender,
        .nodes = nodes,
        .depth = depth,
        .input = self == sender ? input : Value::def(),
        .resolver = resolver}));
  }
  return procs;
}

}  // namespace da::protocols
