#ifndef REPLIDB_OBS_RECORDER_H_
#define REPLIDB_OBS_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/locks.h"

namespace replidb::obs {

/// \brief Flight recorder: the last N structured control-plane events per
/// node, dumped on assertion failure or on demand.
///
/// The failures worth debugging in a replicated middleware are rarely about
/// the instruction that tripped the assert — they are about the view change
/// three virtual seconds earlier, the credit stall that backed up the
/// writeset pipe, the resync that never finished. The recorder keeps a
/// bounded ring of such events per node (so one chatty replica cannot evict
/// everyone else's history) and renders them merged in virtual-time order.
///
/// It is a process-global singleton: recording sites in the controller and
/// ship pipeline call `FlightRecorder::Global().Record(...)` and a
/// REPLIDB_CHECK failure hook dumps the tail automatically (see
/// InstallCheckHook). Benches write the tail to flight.txt under
/// REPLIDB_OBS_DIR, and RenderChromeTrace (obs/trace.h) draws each
/// retained event as an instant.

/// Kinds of control-plane events worth replaying post-mortem.
enum class FlightEventKind {
  kViewChange,    ///< Membership/epoch change (incl. initial view).
  kSuspicion,     ///< A replica suspected by a failure detector or the
                  ///< controller, or cleared again.
  kCreditStall,   ///< Writeset shipping blocked on the credit window.
  kCreditResume,  ///< Shipping resumed after a stall.
  kCertAbort,     ///< Certification aborted a transaction.
  kResyncPhase,   ///< Recovering replica entered a resync phase.
  kFailover,      ///< Master promotion.
  kBinlog,        ///< Durable-log lifecycle: checkpoint, truncate, recover.
  kDivergence,    ///< The online auditor found a replica's table diverged.
  kOther,         ///< Anything else a subsystem finds noteworthy.
};

const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  int64_t ts_us = 0;  ///< Virtual time of the event.
  int node = 0;       ///< Node id (replica/controller/driver).
  FlightEventKind kind = FlightEventKind::kOther;
  std::string detail;
  uint64_t seq = 0;  ///< Global record order; ties broken by this in dumps.
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultPerNodeCapacity = 256;

  explicit FlightRecorder(size_t per_node_capacity = kDefaultPerNodeCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide instance used by the recording sites and the check hook.
  static FlightRecorder& Global();

  /// Registers the REPLIDB_CHECK failure hook that dumps Global() to
  /// stderr before abort. Idempotent; called by middleware::Cluster.
  static void InstallCheckHook();

  void Record(int64_t ts_us, int node, FlightEventKind kind,
              std::string detail);

  /// Total events ever recorded (including since-evicted ones).
  uint64_t recorded() const;
  /// Events currently retained across all nodes.
  size_t size() const;
  /// Retained events for one node, oldest first.
  std::vector<FlightEvent> NodeEvents(int node) const;
  /// All retained events merged in (ts_us, seq) order.
  std::vector<FlightEvent> MergedEvents() const;

  /// Renders the merged tail, one line per event:
  ///   t=12.345s node=3 kind=credit_stall detail...
  std::string Render() const;

  /// Writes a banner plus Render() to `out` (stderr by default).
  void Dump(std::FILE* out = nullptr) const;

  /// Drops all events (per-configuration bench isolation).
  void Reset();

 private:
  const size_t per_node_capacity_;
  mutable common::OrderedMutex mu_{common::LockRank::kFlightRecorder};
  std::map<int, std::deque<FlightEvent>> rings_;
  uint64_t recorded_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace replidb::obs

#endif  // REPLIDB_OBS_RECORDER_H_
