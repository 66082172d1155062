// da trace: inspect, diff and explain JSONL trace exports.
//
// `dump` prints a per-node summary (and optionally one node's canonical
// transcript). `diff` is the machine-checkable form of the paper's
// indistinguishability argument: for each node it reports whether the two
// executions delivered byte-identical transcripts, and where they first
// diverge otherwise. `fig2` generates the three Theorem 2 scenarios,
// writes their exports next to each other, and runs both diffs — the
// pivotal fault-free node must come out IDENTICAL in each pair. `schema`
// prints one annotated event record.
//
//   $ da trace fig2 --out /tmp/fig2
//   $ da trace diff /tmp/fig2/scenario_a.jsonl /tmp/fig2/scenario_b.jsonl

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "core/agreement.hpp"
#include "faults/figure2.hpp"
#include "obs/trace_export.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"

namespace da::cli {
namespace {

std::optional<std::vector<obs::TraceEvent>> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "da trace: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto events = obs::read_trace_jsonl(text.str(), &error);
  if (!events.has_value()) {
    std::fprintf(stderr, "da trace: %s: %s\n", path.c_str(), error.c_str());
  }
  return events;
}

std::string path_to_string(const std::vector<NodeId>& path) {
  std::string out;
  for (NodeId id : path) {
    out += (out.empty() ? "" : ".") + std::to_string(id);
  }
  return out.empty() ? "-" : out;
}

void print_events(const std::vector<obs::TraceEvent>& events) {
  Table table({"to", "round", "from", "path", "value", "aux", "bytes"});
  for (const auto& e : events) {
    table.row(e.to, e.round, e.from, path_to_string(e.path),
              e.value_default ? std::string("V_d") : std::to_string(e.value),
              e.aux, static_cast<std::int64_t>(e.wire_bytes));
  }
  table.print();
}

int cmd_dump(const std::string& path, NodeId node) {
  const auto events = load(path);
  if (!events.has_value()) return 1;

  if (node != kNoNode) {
    std::vector<obs::TraceEvent> selected;
    for (const auto& e : *events) {
      if (e.to == node) selected.push_back(e);
    }
    std::printf("%s: node %d, %zu events (canonical order)\n", path.c_str(),
                node, selected.size());
    print_events(selected);
    return 0;
  }

  std::size_t bytes = 0;
  for (const auto& e : *events) bytes += e.wire_bytes;
  std::printf("%s: %zu events, %zu wire bytes\n", path.c_str(), events->size(),
              bytes);
  Table table({"node", "events", "rounds", "wire_bytes"});
  NodeId current = kNoNode;
  std::size_t count = 0, node_bytes = 0;
  int max_round = 0;
  const auto flush = [&] {
    if (count > 0) {
      table.row(current, static_cast<std::int64_t>(count), max_round + 1,
                static_cast<std::int64_t>(node_bytes));
    }
    count = node_bytes = 0;
    max_round = 0;
  };
  for (const auto& e : *events) {  // events arrive sorted by node
    if (e.to != current) {
      flush();
      current = e.to;
    }
    ++count;
    node_bytes += e.wire_bytes;
    if (e.round > max_round) max_round = e.round;
  }
  flush();
  table.print();
  return 0;
}

/// Prints the per-node verdict table; returns the diff for the caller to
/// inspect (exit status, pivot checks).
obs::TraceDiff print_diff(const std::vector<obs::TraceEvent>& a,
                              const std::vector<obs::TraceEvent>& b) {
  const auto diff = obs::diff_traces(a, b);
  Table table(
      {"node", "events_a", "events_b", "transcript", "first_divergence"});
  for (const auto& n : diff.nodes) {
    table.row(n.node, static_cast<std::int64_t>(n.events_a),
              static_cast<std::int64_t>(n.events_b),
              n.identical ? "IDENTICAL" : "differs",
              n.identical ? std::string("-")
                          : std::to_string(n.first_divergence));
  }
  table.print();
  return diff;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             NodeId node) {
  const auto a = load(path_a);
  const auto b = load(path_b);
  if (!a.has_value() || !b.has_value()) return 1;

  std::printf("diff %s %s\n", path_a.c_str(), path_b.c_str());
  const auto diff = print_diff(*a, *b);

  if (node != kNoNode) {
    for (const auto& n : diff.nodes) {
      if (n.node != node) continue;
      std::printf(
          "\nnode %d: %s — a node with an identical transcript cannot\n"
          "distinguish the two executions, so it must decide identically\n"
          "in both (the paper's indistinguishability argument).\n",
          node, n.identical ? "IDENTICAL" : "DIFFERS");
      return n.identical ? 0 : 1;
    }
    std::fprintf(stderr, "da trace: node %d not present in either trace\n",
                 node);
    return 1;
  }
  return diff.identical() ? 0 : 1;
}

sim::Trace run_scenario(const faults::figure2::Scenario& scenario) {
  sim::Trace trace;
  const DegradableAgreement protocol(scenario.spec.config);
  RunExtras extras;
  extras.trace = &trace;
  (void)protocol.run(scenario.spec, scenario.adversary.get(), extras);
  return trace;
}

int cmd_fig2(int n, const std::string& out_dir) {
  std::error_code dir_error;
  std::filesystem::create_directories(out_dir, dir_error);
  const auto sa = faults::figure2::scenario_a(n);
  const auto sb = faults::figure2::scenario_b(n);
  const auto sc = faults::figure2::scenario_c(n);
  const sim::Trace ta = run_scenario(sa);
  const sim::Trace tb = run_scenario(sb);
  const sim::Trace tc = run_scenario(sc);

  const std::string pa = out_dir + "/scenario_a.jsonl";
  const std::string pb = out_dir + "/scenario_b.jsonl";
  const std::string pc = out_dir + "/scenario_c.jsonl";
  for (const auto& [trace, path] :
       {std::pair<const sim::Trace&, const std::string&>{ta, pa},
        {tb, pb},
        {tc, pc}}) {
    if (!obs::write_trace_jsonl(trace, path)) {
      std::fprintf(stderr, "da trace: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  const auto ea = obs::trace_events(ta);
  const auto eb = obs::trace_events(tb);
  const auto ec = obs::trace_events(tc);

  bool ok = true;
  const auto check_pair = [&](const char* label, const char* pair_files,
                              const std::vector<obs::TraceEvent>& x,
                              const std::vector<obs::TraceEvent>& y,
                              NodeId pivot) {
    std::printf("\n%s  (%s)\n", label, pair_files);
    const auto diff = print_diff(x, y);
    bool pivot_identical = false;
    for (const auto& node : diff.nodes) {
      if (node.node == pivot) pivot_identical = node.identical;
    }
    std::printf("pivot node %d: %s\n", pivot,
                pivot_identical
                    ? "IDENTICAL — it cannot tell the scenarios apart, so "
                      "its decision is forced"
                    : "DIFFERS (unexpected: the lower-bound argument needs "
                      "an identical view)");
    ok = ok && pivot_identical;
  };
  check_pair("scenario (a) vs (b), pivot B", "scenario_a.jsonl vs _b.jsonl",
             ea, eb, sb.pivot_node);
  check_pair("scenario (b) vs (c), pivot A", "scenario_b.jsonl vs _c.jsonl",
             eb, ec, sc.pivot_node);

  std::printf(
      "\n%s\n",
      ok ? "Both indistinguishability pairs hold: with N = 2m+u the chain "
           "(a)->(b)->(c) forces node A into a D.3 violation (Theorem 2)."
         : "??? an indistinguishability pair failed; the export or the "
           "scenarios are broken.");
  return ok ? 0 : 1;
}

int cmd_schema() {
  obs::TraceEvent event;
  event.to = 2;
  event.from = 3;
  event.round = 1;
  event.path = {0, 3};
  event.value_default = false;
  event.value = 101;
  event.wire_bytes = 17;
  std::printf("%s\n", event.to_json().dump(2).c_str());
  std::puts(
      "\nfields:\n"
      "  to            receiving node (transcripts are grouped by `to`)\n"
      "  from          immediate sender\n"
      "  round         protocol round the message was delivered in\n"
      "  path          EIG relay path: nodes the value passed through\n"
      "  value         payload; `null` encodes the default value V_d\n"
      "  aux           protocol-specific tag (omitted when 0)\n"
      "  wire_bytes    serialized size under sim::wire_size_bytes\n"
      "\norder: events are canonical — sorted by (to, round, from, path) —\n"
      "so exports of indistinguishable executions are byte-identical.");
  return 0;
}

}  // namespace

int trace_cmd(const Args& args) {
  NodeId node = kNoNode;
  int n = 4;
  std::string out_dir = ".";
  const Args pos = Flags()
                       .integer("--node", node)
                       .integer("--n", n, 4, 64)
                       .text("--out", out_dir)
                       .parse(args);
  const std::string verb = pos.empty() ? "" : pos[0];
  if (verb == "dump" && pos.size() == 2) return cmd_dump(pos[1], node);
  if (verb == "diff" && pos.size() == 3) return cmd_diff(pos[1], pos[2], node);
  if (verb == "fig2" && pos.size() == 1) return cmd_fig2(n, out_dir);
  if (verb == "schema" && pos.size() == 1) return cmd_schema();
  throw UsageError(verb.empty() ? "missing verb"
                                : "bad arguments for " + verb);
}

}  // namespace da::cli
