#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/critical_path.h"
#include "obs/recorder.h"

namespace replidb::obs {

namespace {
std::atomic<uint64_t> g_next_trace_id{1};
}  // namespace

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void ResetTraceIds() {
  g_next_trace_id.store(1, std::memory_order_relaxed);
}

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// Lane identity: (group, number), ordered client < replica.<n> < node.<n>.
enum LaneGroup : int { kClientLane = 0, kReplicaLane = 1, kNodeLane = 2 };
using LaneKey = std::pair<int, int64_t>;

std::string LaneName(const LaneKey& lane) {
  switch (lane.first) {
    case kClientLane: return "client";
    case kReplicaLane: return "replica." + std::to_string(lane.second);
    default: return "node." + std::to_string(lane.second);
  }
}

LaneKey ChainLane(const ChainSummary& c) {
  if (c.kind == ChainKind::kApply) {
    return {kReplicaLane, static_cast<int64_t>(c.sub)};
  }
  return {kClientLane, 0};
}

/// One trace event before formatting. Names point at static strings.
struct Event {
  char phase;                  ///< 'X' span or 'i' instant.
  int64_t ts_us;
  int64_t dur_us;              ///< Spans only.
  int tid;
  const char* name;
  const char* outcome;         ///< Window spans: "<name>.<outcome>".
  uint64_t txn;                ///< Spans only.
  const std::string* detail;   ///< Instants only.
};

}  // namespace

std::string RenderChromeTrace(const std::vector<ChainSummary>& chains,
                              const std::vector<FlightEvent>& flight_events) {
  std::map<LaneKey, int> lanes;
  for (const ChainSummary& c : chains) lanes.emplace(ChainLane(c), 0);
  for (const FlightEvent& e : flight_events) {
    lanes.emplace(LaneKey{kNodeLane, e.node}, 0);
  }
  int next_tid = 0;
  for (auto& [lane, tid] : lanes) tid = next_tid++;

  std::vector<Event> events;
  for (const ChainSummary& c : chains) {
    int tid = lanes.at(ChainLane(c));
    events.push_back({'X', c.open_us, std::max<int64_t>(0, c.TotalUs()), tid,
                      ChainKindName(c.kind), ChainOutcomeName(c.outcome),
                      c.id, nullptr});
    for (const PathSegment& s :
         SegmentWaitEdges(c.edges, c.open_us, c.close_us, nullptr)) {
      events.push_back({'X', s.start_us, s.end_us - s.start_us, tid,
                        WaitStateName(s.state), nullptr, c.id, nullptr});
    }
  }
  std::vector<const FlightEvent*> flight;
  flight.reserve(flight_events.size());
  for (const FlightEvent& e : flight_events) flight.push_back(&e);
  std::sort(flight.begin(), flight.end(),
            [](const FlightEvent* a, const FlightEvent* b) {
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->seq < b->seq;
            });
  for (const FlightEvent* e : flight) {
    events.push_back({'i', e->ts_us, 0, lanes.at(LaneKey{kNodeLane, e->node}),
                      FlightEventKindName(e->kind), nullptr, 0, &e->detail});
  }
  // A chain's window precedes its first segment at the same timestamp,
  // so the stable sort keeps segments nested inside their window.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });

  std::string out;
  out.reserve(events.size() * 96 + lanes.size() * 80 + 32);
  out += "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const auto& [lane, tid] : lanes) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"",
                  tid);
    out += buf;
    AppendJsonEscaped(&out, LaneName(lane));
    out += "\"}}";
  }
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += e.name;
    if (e.outcome != nullptr) {
      out += '.';
      out += e.outcome;
    }
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%lld,"
                    "\"dur\":%lld,\"args\":{\"txn\":%llu}}",
                    e.tid, static_cast<long long>(e.ts_us),
                    static_cast<long long>(e.dur_us),
                    static_cast<unsigned long long>(e.txn));
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%lld,\"args\":{\"detail\":\"",
                    e.tid, static_cast<long long>(e.ts_us));
      out += buf;
      AppendJsonEscaped(&out, *e.detail);
      out += "\"}}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace replidb::obs
