#include "net/failure_detector.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace replidb::net {
namespace {
/// Modeled size of a heartbeat/keepalive probe or ack frame.
constexpr int64_t kProbeWireBytes = 64;
}  // namespace

namespace {
struct PingBody {
  uint64_t seq = 0;
};
struct AckBody {
  uint64_t seq = 0;
};

constexpr char kHbPing[] = "hb.ping";
constexpr char kHbAck[] = "hb.ack";
constexpr char kKaProbe[] = "ka.probe";
constexpr char kKaAck[] = "ka.ack";

/// Shared suspicion bookkeeping for both detector flavors: counters plus a
/// flight event on the watcher, so the trace shows each suspicion timeline.
void RecordSuspicion(const char* detector, NodeId watcher, NodeId target,
                     bool suspect, sim::Simulator* sim) {
  auto& r = obs::MetricsRegistry::Global();
  static obs::Counter* raised = r.GetCounter("net.detector.suspicions_raised");
  static obs::Counter* cleared =
      r.GetCounter("net.detector.suspicions_cleared");
  (suspect ? raised : cleared)->Increment();
  obs::FlightRecorder::Global().Record(
      sim->Now(), watcher, obs::FlightEventKind::kSuspicion,
      std::string(detector) + " target=" + std::to_string(target) +
          (suspect ? " suspect" : " cleared"));
}
}  // namespace

// ---------------------------------------------------------------------------
// HeartbeatResponder

HeartbeatResponder::HeartbeatResponder(sim::Simulator* sim,
                                       Dispatcher* dispatcher)
    : sim_(sim), dispatcher_(dispatcher) {
  dispatcher_->On<PingBody>(kHbPing, [this](const Message& m,
                                            const PingBody& body) {
    NodeId from = m.from;
    uint64_t seq = body.seq;
    if (response_delay_ > 0) {
      sim_->Schedule(response_delay_, [this, from, seq] {
        dispatcher_->Send(from, kHbAck, AckBody{seq}, kProbeWireBytes);
      });
    } else {
      dispatcher_->Send(from, kHbAck, AckBody{seq}, kProbeWireBytes);
    }
  });
}

// ---------------------------------------------------------------------------
// HeartbeatDetector

HeartbeatDetector::HeartbeatDetector(sim::Simulator* sim,
                                     Dispatcher* dispatcher,
                                     HeartbeatOptions options)
    : sim_(sim), dispatcher_(dispatcher), options_(options) {
  dispatcher_->On<AckBody>(kHbAck, [this](const Message& m,
                                          const AckBody& body) {
    HandleAck(m.from, body.seq);
  });
  ticker_ = std::make_unique<sim::PeriodicTask>(sim_, options_.period,
                                                [this] { Tick(); });
  ticker_->StartAfter(0);
}

HeartbeatDetector::~HeartbeatDetector() { ticker_->Stop(); }

void HeartbeatDetector::Watch(NodeId target) { watched_.emplace(target, Watched{}); }

void HeartbeatDetector::Unwatch(NodeId target) { watched_.erase(target); }

bool HeartbeatDetector::IsSuspect(NodeId target) const {
  auto it = watched_.find(target);
  return it != watched_.end() && it->second.suspect;
}

void HeartbeatDetector::Tick() {
  for (auto& [target, st] : watched_) {
    uint64_t seq = ++st.ping_seq;
    dispatcher_->Send(target, kHbPing, PingBody{seq}, kProbeWireBytes);
    NodeId t = target;
    sim_->Schedule(options_.timeout, [this, t, seq] {
      auto it = watched_.find(t);
      if (it == watched_.end()) return;
      Watched& w = it->second;
      if (w.acked_seq >= seq) return;  // Answered in time.
      ++w.consecutive_misses;
      if (w.consecutive_misses >= options_.miss_threshold && !w.suspect) {
        SetSuspect(t, true);
      }
    });
  }
}

void HeartbeatDetector::HandleAck(NodeId from, uint64_t seq) {
  auto it = watched_.find(from);
  if (it == watched_.end()) return;
  Watched& w = it->second;
  if (seq > w.acked_seq) w.acked_seq = seq;
  w.consecutive_misses = 0;
  if (w.suspect) SetSuspect(from, false);
}

void HeartbeatDetector::SetSuspect(NodeId target, bool suspect) {
  auto it = watched_.find(target);
  if (it == watched_.end()) return;
  it->second.suspect = suspect;
  if (suspect &&
      dispatcher_->network()->Reachable(dispatcher_->node(), target)) {
    ++false_positives_;  // Target was actually reachable: load misread.
    obs::MetricsRegistry::Global()
        .GetCounter("net.detector.false_positives")
        ->Increment();
  }
  RecordSuspicion("hb", dispatcher_->node(), target, suspect, sim_);
  if (callback_) callback_(target, suspect);
}

// ---------------------------------------------------------------------------
// TcpKeepAliveResponder

TcpKeepAliveResponder::TcpKeepAliveResponder(Dispatcher* dispatcher)
    : dispatcher_(dispatcher) {
  // The kernel answers instantly regardless of application load.
  dispatcher_->On<PingBody>(kKaProbe, [this](const Message& m,
                                             const PingBody& body) {
    dispatcher_->Send(m.from, kKaAck, AckBody{body.seq}, kProbeWireBytes);
  });
}

// ---------------------------------------------------------------------------
// TcpKeepAliveDetector

TcpKeepAliveDetector::TcpKeepAliveDetector(sim::Simulator* sim,
                                           Dispatcher* dispatcher,
                                           TcpKeepAliveOptions options)
    : sim_(sim), dispatcher_(dispatcher), options_(options) {
  dispatcher_->On(kKaAck, [this](const Message& m) { HandleAck(m); });
}

TcpKeepAliveDetector::~TcpKeepAliveDetector() {
  for (auto& [id, st] : conns_) {
    (void)id;
    if (st.timer) sim_->Cancel(st.timer);
  }
}

void TcpKeepAliveDetector::Watch(NodeId target) {
  ConnState st;
  st.last_activity = sim_->Now();
  conns_[target] = st;
  ArmIdleTimer(target);
}

void TcpKeepAliveDetector::Unwatch(NodeId target) {
  auto it = conns_.find(target);
  if (it != conns_.end()) {
    if (it->second.timer) sim_->Cancel(it->second.timer);
    conns_.erase(it);
  }
}

bool TcpKeepAliveDetector::IsSuspect(NodeId target) const {
  auto it = conns_.find(target);
  return it != conns_.end() && it->second.suspect;
}

void TcpKeepAliveDetector::NoteActivity(NodeId target) {
  auto it = conns_.find(target);
  if (it == conns_.end()) return;
  ConnState& st = it->second;
  st.last_activity = sim_->Now();
  if (st.probing) {
    st.probing = false;
    st.probes_outstanding = 0;
    if (st.timer) sim_->Cancel(st.timer);
    ArmIdleTimer(target);
  }
  if (st.suspect) SetSuspect(target, false);
}

void TcpKeepAliveDetector::ArmIdleTimer(NodeId target) {
  auto it = conns_.find(target);
  if (it == conns_.end()) return;
  ConnState& st = it->second;
  sim::TimePoint deadline = st.last_activity + options_.idle;
  st.timer = sim_->ScheduleAt(deadline, [this, target] {
    auto it2 = conns_.find(target);
    if (it2 == conns_.end()) return;
    ConnState& s = it2->second;
    if (sim_->Now() - s.last_activity >= options_.idle) {
      StartProbing(target);
    } else {
      ArmIdleTimer(target);  // Activity happened meanwhile; re-arm.
    }
  });
}

void TcpKeepAliveDetector::StartProbing(NodeId target) {
  auto it = conns_.find(target);
  if (it == conns_.end()) return;
  it->second.probing = true;
  it->second.probes_outstanding = 0;
  SendProbe(target);
}

void TcpKeepAliveDetector::SendProbe(NodeId target) {
  auto it = conns_.find(target);
  if (it == conns_.end()) return;
  ConnState& st = it->second;
  if (!st.probing) return;
  ++st.probes_outstanding;
  uint64_t seq = ++st.probe_seq;
  dispatcher_->Send(target, kKaProbe, PingBody{seq}, kProbeWireBytes);
  st.timer = sim_->Schedule(options_.probe_interval, [this, target] {
    auto it2 = conns_.find(target);
    if (it2 == conns_.end()) return;
    ConnState& s = it2->second;
    if (!s.probing) return;  // An ack arrived and reset us.
    if (s.probes_outstanding >= options_.probe_count) {
      s.probing = false;
      if (!s.suspect) SetSuspect(target, true);
    } else {
      SendProbe(target);
    }
  });
}

void TcpKeepAliveDetector::HandleAck(const Message& m) { NoteActivity(m.from); }

void TcpKeepAliveDetector::SetSuspect(NodeId target, bool suspect) {
  auto it = conns_.find(target);
  if (it == conns_.end()) return;
  it->second.suspect = suspect;
  if (!suspect) {
    it->second.last_activity = sim_->Now();
    ArmIdleTimer(target);
  }
  RecordSuspicion("ka", dispatcher_->node(), target, suspect, sim_);
  if (callback_) callback_(target, suspect);
}

}  // namespace replidb::net
