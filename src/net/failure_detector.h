#ifndef REPLIDB_NET_FAILURE_DETECTOR_H_
#define REPLIDB_NET_FAILURE_DETECTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/dispatcher.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace replidb::net {

/// Invoked when a watched node's suspicion state changes.
/// `suspect == true` means the detector now believes the node failed.
using SuspicionCallback = std::function<void(NodeId node, bool suspect)>;

/// \brief Abstract failure detector interface (paper §4.3.4).
class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  /// Starts monitoring `target`.
  virtual void Watch(NodeId target) = 0;
  /// Stops monitoring `target`.
  virtual void Unwatch(NodeId target) = 0;
  /// Current belief about `target`.
  virtual bool IsSuspect(NodeId target) const = 0;
  /// Registers the state-change callback (single subscriber).
  virtual void OnSuspicionChange(SuspicionCallback cb) = 0;
};

/// \brief Echoes heartbeat pings so a node can be monitored.
///
/// `response_delay` models server load: a busy node answers late, which a
/// too-aggressive heartbeat detector misreads as a failure — the
/// false-positive phenomenon the paper warns about for short timeouts.
class HeartbeatResponder {
 public:
  HeartbeatResponder(sim::Simulator* sim, Dispatcher* dispatcher);

  void set_response_delay(sim::Duration d) { response_delay_ = d; }
  sim::Duration response_delay() const { return response_delay_; }

 private:
  sim::Simulator* sim_;
  Dispatcher* dispatcher_;
  sim::Duration response_delay_ = 0;
};

/// \brief Options for the application-level heartbeat detector.
struct HeartbeatOptions {
  sim::Duration period = 500 * sim::kMillisecond;  ///< Ping interval.
  sim::Duration timeout = 500 * sim::kMillisecond; ///< Per-ping reply deadline.
  int miss_threshold = 3;  ///< Consecutive misses before declaring failure.
};

/// \brief Application-level heartbeat failure detector (paper's recommended
/// mechanism: "built-in heartbeat for reliable and timely detection").
///
/// Pings every watched node each period; a node missing `miss_threshold`
/// consecutive replies is declared suspect. A later reply clears the
/// suspicion (failback detection). Detection latency is roughly
/// `period * miss_threshold + timeout`, versus minutes-to-hours for TCP
/// keep-alive defaults.
class HeartbeatDetector : public FailureDetector {
 public:
  HeartbeatDetector(sim::Simulator* sim, Dispatcher* dispatcher,
                    HeartbeatOptions options = {});
  ~HeartbeatDetector() override;

  void Watch(NodeId target) override;
  void Unwatch(NodeId target) override;
  bool IsSuspect(NodeId target) const override;
  void OnSuspicionChange(SuspicionCallback cb) override { callback_ = std::move(cb); }

  /// Count of suspicions raised against nodes that were actually up
  /// (needs the omniscient network view; used by benches/tests).
  uint64_t false_positives() const { return false_positives_; }

 private:
  struct Watched {
    int consecutive_misses = 0;
    bool suspect = false;
    uint64_t ping_seq = 0;
    uint64_t acked_seq = 0;
  };

  void Tick();
  void HandleAck(NodeId from, uint64_t seq);
  void SetSuspect(NodeId target, bool suspect);

  sim::Simulator* sim_;
  Dispatcher* dispatcher_;
  HeartbeatOptions options_;
  SuspicionCallback callback_;
  // Iterated to emit pings: must be ordered, or probe order (and thus
  // the whole simulated message schedule) would depend on hash order.
  std::map<NodeId, Watched> watched_;
  std::unique_ptr<sim::PeriodicTask> ticker_;
  uint64_t false_positives_ = 0;
};

/// \brief Options mirroring the OS TCP keep-alive knobs the paper calls
/// "system-wide settings" nobody tunes. Defaults follow Linux:
/// 2 h idle, 75 s probe interval, 9 probes.
struct TcpKeepAliveOptions {
  sim::Duration idle = 2 * sim::kHour;
  sim::Duration probe_interval = 75 * sim::kSecond;
  int probe_count = 9;
};

/// \brief TCP keep-alive style detector (paper §4.3.4.2).
///
/// Models a driver that relies on the kernel: silence from the peer is only
/// investigated after `idle`, then `probe_count` probes at `probe_interval`
/// must all fail. Application traffic acked by the peer resets the idle
/// clock. With defaults, detecting a crashed peer takes
/// 2 h + 9 * 75 s — the "unacceptably long failure detection (30 seconds to
/// 2 hours)" range from the paper when the knobs are swept.
class TcpKeepAliveDetector : public FailureDetector {
 public:
  TcpKeepAliveDetector(sim::Simulator* sim, Dispatcher* dispatcher,
                       TcpKeepAliveOptions options = {});
  ~TcpKeepAliveDetector() override;

  void Watch(NodeId target) override;
  void Unwatch(NodeId target) override;
  bool IsSuspect(NodeId target) const override;
  void OnSuspicionChange(SuspicionCallback cb) override { callback_ = std::move(cb); }

  /// Informs the detector that application traffic from `target` arrived
  /// (resets the idle clock, as real TCP does).
  void NoteActivity(NodeId target);

 private:
  struct ConnState {
    sim::TimePoint last_activity = 0;
    int probes_outstanding = 0;
    bool probing = false;
    bool suspect = false;
    uint64_t probe_seq = 0;
    sim::EventId timer = 0;
  };

  void ArmIdleTimer(NodeId target);
  void StartProbing(NodeId target);
  void SendProbe(NodeId target);
  void HandleAck(const Message& m);
  void SetSuspect(NodeId target, bool suspect);

  sim::Simulator* sim_;
  Dispatcher* dispatcher_;
  TcpKeepAliveOptions options_;
  SuspicionCallback callback_;
  // Iterated to emit keepalive probes: ordered for the same reason as
  // watched_ above.
  std::map<NodeId, ConnState> conns_;
};

/// \brief Responder half of the TCP keep-alive model: the peer's kernel
/// answers probes as long as the host is up (no application involvement).
class TcpKeepAliveResponder {
 public:
  explicit TcpKeepAliveResponder(Dispatcher* dispatcher);

 private:
  Dispatcher* dispatcher_;
};

}  // namespace replidb::net

#endif  // REPLIDB_NET_FAILURE_DETECTOR_H_
