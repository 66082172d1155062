#include "obs/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <tuple>

#include "sim/message.hpp"

namespace da::obs {

namespace {

TraceEvent event_from_message(const sim::Message& msg) {
  TraceEvent ev;
  ev.to = msg.to;
  ev.from = msg.from;
  ev.round = msg.round;
  ev.path.assign(msg.path.begin(), msg.path.end());
  ev.value_default = msg.value.is_default();
  ev.value = msg.value.raw();
  ev.aux = msg.aux;
  ev.wire_bytes = sim::wire_size_bytes(msg);
  return ev;
}

auto event_key(const TraceEvent& ev) {
  // value/aux tiebreak keeps the order total even when an adversary or a
  // duplicating network produces several events in one (to, round, from,
  // path) slot — without it, same-slot events would keep their (runtime-
  // dependent) insertion order and byte-identity across runtimes would be
  // a coin flip.
  return std::tie(ev.to, ev.round, ev.from, ev.path, ev.value_default,
                  ev.value, ev.aux);
}

}  // namespace

Json TraceEvent::to_json() const {
  Json path_json = Json::array();
  for (const da::NodeId id : path) path_json.push_back(id);
  Json j = Json::object();
  j.set("to", to)
      .set("from", from)
      .set("round", round)
      .set("path", std::move(path_json))
      .set("value", value_default ? Json(nullptr) : Json(value))
      .set("aux", aux)
      .set("wire_bytes", wire_bytes);
  return j;
}

std::optional<TraceEvent> TraceEvent::from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  const Json* to = j.find("to");
  const Json* from = j.find("from");
  const Json* round = j.find("round");
  const Json* path = j.find("path");
  const Json* value = j.find("value");
  const Json* aux = j.find("aux");
  const Json* wire = j.find("wire_bytes");
  if (to == nullptr || !to->is_integer() || from == nullptr ||
      !from->is_integer() || round == nullptr || !round->is_integer() ||
      path == nullptr || !path->is_array() || value == nullptr ||
      aux == nullptr || !aux->is_integer() || wire == nullptr ||
      !wire->is_integer()) {
    return std::nullopt;
  }
  TraceEvent ev;
  ev.to = static_cast<da::NodeId>(to->as_int());
  ev.from = static_cast<da::NodeId>(from->as_int());
  ev.round = static_cast<int>(round->as_int());
  for (const Json& hop : path->as_array()) {
    if (!hop.is_integer() || !da::Path::holds(hop.as_int())) {
      return std::nullopt;
    }
    ev.path.push_back(static_cast<da::NodeId>(hop.as_int()));
  }
  if (value->is_null()) {
    ev.value_default = true;
  } else if (value->is_integer()) {
    ev.value_default = false;
    ev.value = value->as_int();
  } else {
    return std::nullopt;
  }
  ev.aux = aux->as_int();
  ev.wire_bytes = static_cast<std::size_t>(wire->as_int());
  return ev;
}

std::vector<TraceEvent> trace_events(const sim::Trace& trace) {
  std::vector<TraceEvent> events;
  events.reserve(trace.total_messages());
  for (const da::NodeId node : trace.nodes()) {
    for (const sim::Message& msg : trace.received(node)) {
      events.push_back(event_from_message(msg));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return event_key(a) < event_key(b);
            });
  return events;
}

std::string trace_to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& ev : events) {
    out += ev.to_json().dump();
    out += '\n';
  }
  return out;
}

std::string trace_to_jsonl(const sim::Trace& trace) {
  return trace_to_jsonl(trace_events(trace));
}

bool write_trace_jsonl(const sim::Trace& trace, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << trace_to_jsonl(trace);
  return static_cast<bool>(out);
}

std::optional<std::vector<TraceEvent>> read_trace_jsonl(
    const std::string& text, std::string* error) {
  std::vector<TraceEvent> events;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    std::string parse_error;
    const std::optional<Json> j = Json::parse(line, &parse_error);
    if (!j) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + parse_error;
      }
      return std::nullopt;
    }
    std::optional<TraceEvent> ev = TraceEvent::from_json(*j);
    if (!ev) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": not a trace event";
      }
      return std::nullopt;
    }
    events.push_back(std::move(*ev));
  }
  return events;
}

TraceDiff diff_traces(const std::vector<TraceEvent>& a,
                      const std::vector<TraceEvent>& b) {
  std::map<da::NodeId, std::pair<std::vector<const TraceEvent*>,
                                 std::vector<const TraceEvent*>>>
      by_node;
  for (const TraceEvent& ev : a) by_node[ev.to].first.push_back(&ev);
  for (const TraceEvent& ev : b) by_node[ev.to].second.push_back(&ev);

  const auto canonical = [](std::vector<const TraceEvent*>& events) {
    std::sort(events.begin(), events.end(),
              [](const TraceEvent* x, const TraceEvent* y) {
                return event_key(*x) < event_key(*y);
              });
  };

  TraceDiff diff;
  for (auto& [node, sides] : by_node) {
    canonical(sides.first);
    canonical(sides.second);
    NodeDiff nd;
    nd.node = node;
    nd.events_a = sides.first.size();
    nd.events_b = sides.second.size();
    const std::size_t common = std::min(nd.events_a, nd.events_b);
    std::size_t i = 0;
    while (i < common && *sides.first[i] == *sides.second[i]) ++i;
    nd.first_divergence = i;
    nd.identical = i == nd.events_a && i == nd.events_b;
    diff.nodes.push_back(nd);
  }
  return diff;
}

}  // namespace da::obs
