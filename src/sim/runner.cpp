#include "sim/runner.hpp"

#include <algorithm>
#include <utility>

#include "sim/round_engine.hpp"
#include "util/contracts.hpp"

namespace da::sim {

NodeIndex::NodeIndex(const std::vector<std::unique_ptr<Process>>& processes,
                     const std::vector<NodeId>& faulty) {
  NodeId max_id = -1;
  for (const auto& p : processes) {
    DA_EXPECTS(p->id() >= 0);
    max_id = std::max(max_id, p->id());
  }
  index_.assign(static_cast<std::size_t>(max_id) + 1, npos);
  for (std::size_t i = 0; i < processes.size(); ++i) {
    std::size_t& slot = index_[static_cast<std::size_t>(processes[i]->id())];
    DA_EXPECTS(slot == npos);  // ids unique
    slot = i;
  }
  faulty_.assign(processes.size(), 0);
  for (NodeId f : faulty) {
    const std::size_t i = at(f);
    DA_EXPECTS(i != npos);  // faulty ids must be process ids
    faulty_[i] = 1;
  }
}

std::vector<Message> filter_fanout(const Message& msg,
                                   const RunOptions& options,
                                   bool from_is_faulty, bool fabricated) {
  Message out = msg;
  if (!fabricated && from_is_faulty) {
    DA_EXPECTS(options.adversary != nullptr);
    if (!corrupt_in_place(*options.adversary, out)) return {};
  }
  if (options.network != nullptr) {
    return options.network->transit_fanout(out);
  }
  return {std::move(out)};
}

void sort_inbox(std::vector<Message>& inbox) {
  // Total order: a fabricating adversary may inject duplicates of a
  // (from, path) slot with different contents, and every runtime must
  // present them to the process in the same order.
  const auto before = [](const Message& a, const Message& b) {
    if (a.from != b.from) return a.from < b.from;
    if (!(a.path == b.path)) return a.path < b.path;
    if (a.value != b.value) return a.value < b.value;
    return a.aux < b.aux;
  };
  // Dispatch walks senders in position order and each sender emits in
  // path order, so most inboxes are already canonical; one linear check
  // then replaces the sort. The order seen by processes is the same.
  if (std::is_sorted(inbox.begin(), inbox.end(), before)) return;
  std::sort(inbox.begin(), inbox.end(), before);
}

SyncRunner::SyncRunner(std::vector<std::unique_ptr<Process>> processes,
                       RunOptions options)
    : processes_(std::move(processes)), options_(std::move(options)) {
  DA_EXPECTS(!processes_.empty());
  DA_EXPECTS(options_.faulty.empty() || options_.adversary != nullptr);
  for (NodeId f : options_.faulty) {
    const bool known = std::any_of(
        processes_.begin(), processes_.end(),
        [f](const auto& p) { return p->id() == f; });
    DA_EXPECTS(known);
  }
}

RunResult SyncRunner::run() {
  return RoundEngine(std::move(processes_), std::move(options_)).run();
}

}  // namespace da::sim
