#ifndef REPLIDB_GCS_GROUP_H_
#define REPLIDB_GCS_GROUP_H_

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/dispatcher.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace replidb::gcs {

/// \brief A membership view: the members this node currently believes are
/// alive, plus the sequencer among them.
struct View {
  uint64_t view_id = 0;
  std::vector<net::NodeId> members;  ///< Sorted, suspected nodes excluded.
  net::NodeId sequencer = -1;        ///< Lowest-id live member.
};

/// \brief Options for the group communication layer.
struct GroupOptions {
  /// Sequencer processing cost per multicast: ordering + fan-out. This is
  /// the intrinsic scalability limit the paper attributes to group
  /// communication (§4.3.4.1): cost grows with group size.
  sim::Duration sequencer_process = 20 * sim::kMicrosecond;
  sim::Duration per_member_send = 10 * sim::kMicrosecond;

  /// Sender-side retransmission to the sequencer if no ordered copy of an
  /// own message arrives in time (covers message loss / sequencer change).
  sim::Duration resend_interval = 200 * sim::kMillisecond;

  /// Receiver-side gap repair: ask the sequencer for missing sequence
  /// numbers after this long.
  sim::Duration nack_interval = 100 * sim::kMillisecond;

  /// Heartbeat settings used for membership/failure detection.
  net::HeartbeatOptions heartbeat;
};

/// \brief One member of a reliable totally-ordered multicast group
/// (sequencer-based, in the style the paper's systems layer on Spread).
///
/// Guarantees (within the model): every message multicast by a live member
/// is eventually delivered exactly once, in the same total order, at every
/// member that stays live and connected to the sequencer's partition side.
/// On sequencer failure the next-lowest live member takes over; members
/// re-send unordered messages to the new sequencer.
class GroupMember {
 public:
  /// Delivery callback: ordered messages arrive exactly once, in sequence.
  using DeliverFn = std::function<void(net::NodeId origin, uint64_t seq,
                                       const std::any& payload)>;
  using ViewFn = std::function<void(const View&)>;

  GroupMember(sim::Simulator* sim, net::Dispatcher* dispatcher,
              std::vector<net::NodeId> members, GroupOptions options = {});
  ~GroupMember();
  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  net::NodeId id() const { return dispatcher_->node(); }
  const View& view() const { return view_; }
  bool IsSequencer() const { return view_.sequencer == id(); }

  void OnDeliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void OnViewChange(ViewFn fn) { view_change_ = std::move(fn); }

  /// Reliably multicasts `payload` to the group in total order (the sender
  /// also delivers its own message, when ordered).
  void Multicast(std::any payload, int64_t size_bytes = 512);

  /// Highest sequence number delivered so far (0 = none).
  uint64_t last_delivered() const { return next_expected_ - 1; }

  /// Messages this member originated that are not yet ordered.
  size_t unordered_backlog() const { return pending_own_.size(); }

  /// Total multicasts this member originated.
  uint64_t multicasts_sent() const { return multicasts_sent_; }
  /// Total ordered messages delivered here.
  uint64_t delivered_count() const { return delivered_count_; }

 private:
  struct PendingOwn {
    uint64_t msg_id;
    std::any payload;
    int64_t size_bytes;
    sim::TimePoint last_sent;
    /// When Multicast() was called (ordering-latency measurement).
    sim::TimePoint submitted = 0;
  };
  struct OrderedMsg {
    net::NodeId origin;
    uint64_t msg_id;
    std::any payload;
    int64_t size_bytes;
  };

  // Wire bodies (group.cc).
  struct FwdBody;
  struct OrdBody;
  struct NackBody;

  void HandleForward(const net::Message& m, const FwdBody& body);
  void HandleOrdered(const OrdBody& body);
  void HandleNack(const net::Message& m, const NackBody& body);
  void MaybeDeliver();
  void RecomputeView();
  void Tick();

  sim::Simulator* sim_;
  net::Dispatcher* dispatcher_;
  GroupOptions options_;
  std::vector<net::NodeId> all_members_;
  View view_;

  DeliverFn deliver_;
  ViewFn view_change_;

  std::unique_ptr<net::HeartbeatResponder> hb_responder_;
  std::unique_ptr<net::HeartbeatDetector> hb_detector_;
  std::set<net::NodeId> suspected_;

  // Sender state.
  uint64_t next_msg_id_ = 1;
  std::map<uint64_t, PendingOwn> pending_own_;  // msg_id -> message.
  uint64_t multicasts_sent_ = 0;

  // Sequencer state.
  uint64_t next_seq_to_assign_ = 1;
  sim::TimePoint sequencer_busy_until_ = 0;
  std::map<std::pair<net::NodeId, uint64_t>, uint64_t> assigned_;  // dedup.
  std::map<uint64_t, OrderedMsg> history_;  // For gap repair.

  // Receiver state.
  uint64_t next_expected_ = 1;
  std::map<uint64_t, OrderedMsg> out_of_order_;
  uint64_t delivered_count_ = 0;
  sim::TimePoint last_gap_nack_ = 0;

  std::unique_ptr<sim::PeriodicTask> ticker_;
};

}  // namespace replidb::gcs

#endif  // REPLIDB_GCS_GROUP_H_
