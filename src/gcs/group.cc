#include "gcs/group.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace replidb::gcs {

namespace {

/// Modeled size of a gap-repair NACK frame.
constexpr int64_t kNackWireBytes = 64;

/// Group-communication registry handles, resolved once (aggregated across
/// members; the sequencer backlog gauge tracks whoever currently holds the
/// sequencer role).
struct GcsMetrics {
  obs::Counter* multicasts;
  obs::Counter* ordered;
  obs::Counter* delivered;
  obs::Counter* view_changes;
  obs::Counter* nacks;
  obs::Gauge* sequencer_backlog_us;
  obs::HistogramMetric* order_latency_ms;

  static GcsMetrics& Get() {
    static GcsMetrics m;
    return m;
  }

 private:
  GcsMetrics() {
    auto& r = obs::MetricsRegistry::Global();
    multicasts = r.GetCounter("gcs.member.multicasts");
    ordered = r.GetCounter("gcs.sequencer.ordered");
    delivered = r.GetCounter("gcs.member.delivered");
    view_changes = r.GetCounter("gcs.member.view_changes");
    nacks = r.GetCounter("gcs.member.nacks");
    sequencer_backlog_us = r.GetGauge("gcs.sequencer.backlog_us");
    order_latency_ms = r.GetHistogram("gcs.order.latency_ms");
  }
};

constexpr char kFwd[] = "gcs.fwd";
constexpr char kOrd[] = "gcs.ord";
constexpr char kNack[] = "gcs.nack";

}  // namespace

struct GroupMember::FwdBody {
  uint64_t msg_id;
  std::any payload;
  int64_t size_bytes;
};
struct GroupMember::OrdBody {
  uint64_t seq;
  net::NodeId origin;
  uint64_t msg_id;
  std::any payload;
  int64_t size_bytes;
};
struct GroupMember::NackBody {
  uint64_t from_seq;
  uint64_t to_seq;
};

GroupMember::GroupMember(sim::Simulator* sim, net::Dispatcher* dispatcher,
                         std::vector<net::NodeId> members, GroupOptions options)
    : sim_(sim),
      dispatcher_(dispatcher),
      options_(options),
      all_members_(std::move(members)) {
  std::sort(all_members_.begin(), all_members_.end());

  dispatcher_->On<FwdBody>(
      kFwd, [this](const net::Message& m, const FwdBody& body) {
        HandleForward(m, body);
      });
  dispatcher_->On<OrdBody>(
      kOrd, [this](const net::Message&, const OrdBody& body) {
        HandleOrdered(body);
      });
  dispatcher_->On<NackBody>(
      kNack, [this](const net::Message& m, const NackBody& body) {
        HandleNack(m, body);
      });

  hb_responder_ =
      std::make_unique<net::HeartbeatResponder>(sim_, dispatcher_);
  hb_detector_ = std::make_unique<net::HeartbeatDetector>(sim_, dispatcher_,
                                                          options_.heartbeat);
  for (net::NodeId m : all_members_) {
    if (m != id()) hb_detector_->Watch(m);
  }
  hb_detector_->OnSuspicionChange([this](net::NodeId node, bool suspect) {
    if (suspect) {
      suspected_.insert(node);
    } else {
      suspected_.erase(node);
    }
    RecomputeView();
  });

  RecomputeView();

  ticker_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.nack_interval, [this] { Tick(); });
  ticker_->StartAfter(options_.nack_interval);
}

GroupMember::~GroupMember() {
  if (ticker_) ticker_->Stop();
}

void GroupMember::RecomputeView() {
  View next;
  next.view_id = view_.view_id;
  for (net::NodeId m : all_members_) {
    if (!suspected_.count(m)) next.members.push_back(m);
  }
  next.sequencer = next.members.empty() ? -1 : next.members.front();
  if (next.members == view_.members && next.sequencer == view_.sequencer) {
    return;
  }
  bool sequencer_changed = next.sequencer != view_.sequencer;
  next.view_id = view_.view_id + 1;
  view_ = next;
  GcsMetrics::Get().view_changes->Increment();
  obs::FlightRecorder::Global().Record(
      sim_->Now(), id(), obs::FlightEventKind::kViewChange,
      "gcs view=" + std::to_string(view_.view_id) +
          " members=" + std::to_string(view_.members.size()) +
          " sequencer=" + std::to_string(view_.sequencer));

  if (sequencer_changed) {
    // Receivers drop buffered out-of-order messages: the old sequencer's
    // assignments beyond our delivery point may be reassigned. Origins
    // resend; the nack path repairs any gap from the new sequencer's
    // history. (A member that delivered a seq the new sequencer never saw
    // is a documented rare double-fault window, as in real sequencer
    // protocols without full view synchrony.)
    out_of_order_.clear();
    if (IsSequencer()) {
      uint64_t max_seen = next_expected_ - 1;
      if (!history_.empty()) {
        max_seen = std::max(max_seen, history_.rbegin()->first);
      }
      next_seq_to_assign_ = std::max(next_seq_to_assign_, max_seen + 1);
      sequencer_busy_until_ = sim_->Now();
    }
    // Re-send unordered own messages to the new sequencer immediately.
    for (auto& [msg_id, pending] : pending_own_) {
      (void)msg_id;
      pending.last_sent = 0;
    }
    Tick();
  }
  if (view_change_) view_change_(view_);
}

void GroupMember::Multicast(std::any payload, int64_t size_bytes) {
  ++multicasts_sent_;
  GcsMetrics::Get().multicasts->Increment();
  PendingOwn pending;
  pending.msg_id = next_msg_id_++;
  pending.payload = payload;
  pending.size_bytes = size_bytes;
  pending.last_sent = sim_->Now();
  pending.submitted = sim_->Now();
  uint64_t msg_id = pending.msg_id;
  pending_own_.emplace(msg_id, std::move(pending));
  if (view_.sequencer >= 0) {
    dispatcher_->Send(view_.sequencer, kFwd,
                      FwdBody{msg_id, std::move(payload), size_bytes},
                      size_bytes + 32);
  }
}

void GroupMember::HandleForward(const net::Message& m, const FwdBody& body) {
  if (!IsSequencer()) return;  // Stale view at the origin; it will resend.
  auto key = std::make_pair(m.from, body.msg_id);
  auto it = assigned_.find(key);
  uint64_t seq;
  if (it != assigned_.end()) {
    seq = it->second;  // Duplicate forward: re-announce the assignment.
    auto hit = history_.find(seq);
    if (hit != history_.end()) {
      dispatcher_->Send(m.from, kOrd,
                        OrdBody{seq, hit->second.origin, hit->second.msg_id,
                                hit->second.payload, hit->second.size_bytes},
                        hit->second.size_bytes + 48);
    }
    return;
  }
  seq = next_seq_to_assign_++;
  assigned_[key] = seq;
  GcsMetrics::Get().ordered->Increment();
  OrderedMsg om{m.from, body.msg_id, body.payload, body.size_bytes};
  history_[seq] = om;

  // Queueing at the sequencer: ordering + fan-out take CPU, which is the
  // total-order throughput ceiling (§4.3.4.1).
  sim::Duration cost =
      options_.sequencer_process +
      options_.per_member_send *
          static_cast<sim::Duration>(view_.members.size());
  sequencer_busy_until_ = std::max(sequencer_busy_until_, sim_->Now()) + cost;
  GcsMetrics::Get().sequencer_backlog_us->Set(
      sequencer_busy_until_ > sim_->Now() ? sequencer_busy_until_ - sim_->Now()
                                          : 0);
  std::vector<net::NodeId> targets = all_members_;
  sim_->ScheduleAt(sequencer_busy_until_, [this, seq, om, targets] {
    for (net::NodeId member : targets) {
      dispatcher_->Send(member, kOrd,
                        OrdBody{seq, om.origin, om.msg_id, om.payload,
                                om.size_bytes},
                        om.size_bytes + 48);
    }
  });
}

void GroupMember::HandleOrdered(const OrdBody& body) {
  if (body.seq < next_expected_) return;  // Duplicate.
  if (!out_of_order_.count(body.seq)) {
    out_of_order_[body.seq] =
        OrderedMsg{body.origin, body.msg_id, body.payload, body.size_bytes};
  }
  MaybeDeliver();
}

void GroupMember::MaybeDeliver() {
  while (true) {
    auto it = out_of_order_.find(next_expected_);
    if (it == out_of_order_.end()) break;
    OrderedMsg msg = std::move(it->second);
    out_of_order_.erase(it);
    history_[next_expected_] = msg;
    if (msg.origin == id()) {
      auto own = pending_own_.find(msg.msg_id);
      if (own != pending_own_.end()) {
        GcsMetrics::Get().order_latency_ms->Observe(
            sim::ToMillis(sim_->Now() - own->second.submitted));
        pending_own_.erase(own);
      }
    }
    ++delivered_count_;
    GcsMetrics::Get().delivered->Increment();
    uint64_t seq = next_expected_++;
    if (deliver_) deliver_(msg.origin, seq, msg.payload);
  }
}

void GroupMember::HandleNack(const net::Message& m, const NackBody& body) {
  for (uint64_t seq = body.from_seq; seq <= body.to_seq; ++seq) {
    auto it = history_.find(seq);
    if (it == history_.end()) continue;
    dispatcher_->Send(m.from, kOrd,
                      OrdBody{seq, it->second.origin, it->second.msg_id,
                              it->second.payload, it->second.size_bytes},
                      it->second.size_bytes + 48);
  }
}

void GroupMember::Tick() {
  // Resend unordered own messages to the current sequencer.
  if (view_.sequencer >= 0) {
    for (auto& [msg_id, pending] : pending_own_) {
      if (sim_->Now() - pending.last_sent >= options_.resend_interval ||
          pending.last_sent == 0) {
        pending.last_sent = sim_->Now();
        dispatcher_->Send(view_.sequencer, kFwd,
                          FwdBody{msg_id, pending.payload, pending.size_bytes},
                          pending.size_bytes + 32);
      }
    }
    // Gap repair.
    if (!out_of_order_.empty() &&
        out_of_order_.begin()->first > next_expected_ &&
        sim_->Now() - last_gap_nack_ >= options_.nack_interval) {
      last_gap_nack_ = sim_->Now();
      GcsMetrics::Get().nacks->Increment();
      dispatcher_->Send(view_.sequencer, kNack,
                        NackBody{next_expected_,
                                 out_of_order_.begin()->first - 1},
                        kNackWireBytes);
    }
  }
}

}  // namespace replidb::gcs
