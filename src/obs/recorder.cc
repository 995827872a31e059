#include "obs/recorder.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace replidb::obs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kViewChange:
      return "view_change";
    case FlightEventKind::kSuspicion:
      return "suspicion";
    case FlightEventKind::kCreditStall:
      return "credit_stall";
    case FlightEventKind::kCreditResume:
      return "credit_resume";
    case FlightEventKind::kCertAbort:
      return "cert_abort";
    case FlightEventKind::kResyncPhase:
      return "resync_phase";
    case FlightEventKind::kFailover:
      return "failover";
    case FlightEventKind::kBinlog:
      return "binlog";
    case FlightEventKind::kDivergence:
      return "divergence";
    case FlightEventKind::kOther:
      return "other";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t per_node_capacity)
    : per_node_capacity_(per_node_capacity == 0 ? 1 : per_node_capacity) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

namespace {
void DumpGlobalOnCheckFailure() { FlightRecorder::Global().Dump(stderr); }
}  // namespace

void FlightRecorder::InstallCheckHook() {
  SetCheckFailureHook(&DumpGlobalOnCheckFailure);
}

void FlightRecorder::Record(int64_t ts_us, int node, FlightEventKind kind,
                            std::string detail) {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  std::deque<FlightEvent>& ring = rings_[node];
  if (ring.size() >= per_node_capacity_) ring.pop_front();
  FlightEvent ev;
  ev.ts_us = ts_us;
  ev.node = node;
  ev.kind = kind;
  ev.detail = std::move(detail);
  ev.seq = seq_++;
  ring.push_back(std::move(ev));
  ++recorded_;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return recorded_;
}

size_t FlightRecorder::size() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  size_t n = 0;
  for (const auto& [node, ring] : rings_) {
    (void)node;
    n += ring.size();
  }
  return n;
}

std::vector<FlightEvent> FlightRecorder::NodeEvents(int node) const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  auto it = rings_.find(node);
  if (it == rings_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<FlightEvent> FlightRecorder::MergedEvents() const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<common::OrderedMutex> lock(mu_);
    for (const auto& [node, ring] : rings_) {
      (void)node;
      out.insert(out.end(), ring.begin(), ring.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.seq < b.seq;
            });
  return out;
}

std::string FlightRecorder::Render() const {
  std::string out;
  char buf[64];
  for (const FlightEvent& ev : MergedEvents()) {
    std::snprintf(buf, sizeof(buf), "t=%.6fs node=%d kind=%s",
                  static_cast<double>(ev.ts_us) / 1e6, ev.node,
                  FlightEventKindName(ev.kind));
    out += buf;
    if (!ev.detail.empty()) {
      out += ' ';
      out += ev.detail;
    }
    out += '\n';
  }
  return out;
}

void FlightRecorder::Dump(std::FILE* out) const {
  if (out == nullptr) out = stderr;
  std::string body = Render();
  char head[128];
  std::snprintf(head, sizeof(head),
                "--- flight recorder (%llu events recorded, %zu retained) "
                "---\n",
                static_cast<unsigned long long>(recorded()), size());
  // replicheck:allow(raw-io) post-mortem dump to a live stream, not durable state
  std::fwrite(head, 1, std::strlen(head), out);
  // replicheck:allow(raw-io) post-mortem dump to a live stream, not durable state
  std::fwrite(body.data(), 1, body.size(), out);
  const char tail[] = "--- end flight recorder ---\n";
  // replicheck:allow(raw-io) post-mortem dump to a live stream, not durable state
  std::fwrite(tail, 1, sizeof(tail) - 1, out);
  std::fflush(out);
}

void FlightRecorder::Reset() {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  rings_.clear();
  recorded_ = 0;
  seq_ = 0;
}

}  // namespace replidb::obs
