#ifndef REPLIDB_OBS_CRITICAL_PATH_H_
#define REPLIDB_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/locks.h"
#include "common/rng.h"

#include <mutex>

namespace replidb::obs {

/// \brief Causal critical-path profiler: per-transaction wait-state
/// attribution over simulator virtual time.
///
/// The paper's lag story (§2.2) is timeline-visible via TimeSeriesHub, but
/// a timeline cannot say *why one transaction was slow*: queued at the
/// controller, waiting for certification order, stalled on a credit
/// window, in flight on the network, or parked behind the replica apply
/// backlog. The collector here records typed *wait edges* at the existing
/// instrumentation sites and, when a transaction's chain closes, segments
/// the edges along the chain's virtual-time window into a per-stage
/// attribution that sums exactly to the measured end-to-end latency.
///
/// Two chain kinds cover the two latencies the paper cares about:
///  - kClient: driver Submit -> reply/timeout. Its window *is* the
///    client-observed latency (TxnResult.latency).
///  - kApply:  master commit (origin_commit_us) -> replica apply
///    completion. Its window *is* that replica's per-transaction lag, the
///    quantity a serial-apply slave lets grow without bound.

/// Typed wait states. kService marks productive work (execution/apply
/// cost); everything the segmentation cannot attribute lands in kOther so
/// the per-stage sums always equal the chain window exactly.
enum class WaitState : int {
  kQueue = 0,        ///< Queued: controller/exec worker or binlog dwell.
  kCertOrder = 1,    ///< Waiting for certification/total-order delivery.
  kCreditStall = 2,  ///< Ship pipeline blocked on the credit window.
  kNetTransit = 3,   ///< On the wire (incl. 2-safe ack round trips).
  kApplyBacklog = 4, ///< Behind the replica's ordered apply backlog.
  kLock = 5,         ///< Conflicting-key apply serialization.
  kGroupCommit = 6,  ///< Held for in-order (group) completion release.
  kService = 7,      ///< Productive execution / apply work.
  kOther = 8,        ///< Unattributed remainder of the chain window.
  kDepWait = 9,      ///< Apply-scheduler dependency wait: a conflicting
                     ///< predecessor (or whole-stream barrier) must
                     ///< finish before this entry may start.
};
inline constexpr int kNumWaitStates = 10;
const char* WaitStateName(WaitState s);

enum class ChainKind : int {
  kClient = 0,  ///< Driver-observed end-to-end transaction latency.
  kApply = 1,   ///< Master-commit -> replica-apply replication latency.
};
inline constexpr int kNumChainKinds = 2;
const char* ChainKindName(ChainKind k);

enum class ChainOutcome : int {
  kCommit = 0,
  kAbort = 1,
  kGaveUp = 2,   ///< Client timeout (failover gap).
  kApplied = 3,  ///< Apply chains always complete by applying.
};
inline constexpr int kNumChainOutcomes = 4;
const char* ChainOutcomeName(ChainOutcome o);

/// One recorded wait interval, in virtual microseconds.
struct WaitEdge {
  WaitState state;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

/// A contiguous attributed slice of a chain's window.
struct PathSegment {
  WaitState state;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

/// Clips `edges` to [open_us, close_us], resolves overlaps first-come
/// (earlier start wins; later edges attribute only their uncovered tail),
/// and charges uncovered gaps to kOther. When `stage_us` is non-null its
/// kNumWaitStates entries receive the per-stage sums; by construction
/// they total exactly close_us - open_us.
std::vector<PathSegment> SegmentWaitEdges(std::vector<WaitEdge> edges,
                                          int64_t open_us, int64_t close_us,
                                          int64_t* stage_us);

/// A finished chain: window, outcome, its segmented attribution and the
/// raw edges it was segmented from.
struct ChainSummary {
  ChainKind kind = ChainKind::kClient;
  uint64_t id = 0;    ///< Trace id (client) or version (apply).
  uint64_t sub = 0;   ///< Replica node id for apply chains, else 0.
  int64_t open_us = 0;
  int64_t close_us = 0;
  ChainOutcome outcome = ChainOutcome::kCommit;
  int64_t stage_us[kNumWaitStates] = {};
  std::vector<WaitEdge> edges;

  int64_t TotalUs() const { return close_us - open_us; }
};

/// Aggregated per-(chain,outcome,stage) statistics for status surfaces.
struct PathStageStat {
  ChainKind kind = ChainKind::kClient;
  ChainOutcome outcome = ChainOutcome::kCommit;
  WaitState state = WaitState::kOther;
  uint64_t chains = 0;    ///< Chains in this (kind,outcome) group.
  double share_pct = 0;   ///< Stage total / group window total.
  double p50_ms = 0;      ///< Reservoir p50 of per-chain stage time.
  double p99_ms = 0;      ///< Reservoir p99 of per-chain stage time.
  double total_ms = 0;    ///< Stage total across the group.
};

/// \brief Process-global online critical-path analyzer.
///
/// Disabled by default (instrumentation sites pay one branch). Chains and
/// reservoirs live behind an OrderedMutex (LockRank::kCriticalPath); all
/// timestamps are caller-supplied virtual time, and the reservoir
/// subsampling runs off a fixed-seed replidb::Rng, so every rendered
/// table is byte-identical across runs regardless of REPLIDB_HASH_SEED.
class CriticalPathCollector {
 public:
  CriticalPathCollector();
  CriticalPathCollector(const CriticalPathCollector&) = delete;
  CriticalPathCollector& operator=(const CriticalPathCollector&) = delete;

  static CriticalPathCollector& Global();

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  /// Replication mode label stamped on dumps/tables (set by the bench or
  /// the controller; free-form, e.g. "master_slave_async").
  void SetMode(const std::string& mode);
  std::string mode() const;

  /// Opens a chain at `open_us` (may lie in the past for apply chains,
  /// whose window starts at the master-side commit time). Reopening an
  /// open chain is a no-op.
  void OpenChain(ChainKind kind, uint64_t id, uint64_t sub, int64_t open_us);

  /// Records a typed wait interval on an open chain. Edges for unknown
  /// chains are dropped (the chain may have been capped or never opened).
  void RecordWait(ChainKind kind, uint64_t id, uint64_t sub, WaitState state,
                  int64_t start_us, int64_t end_us);

  /// Closes a chain: segments its edges over [open_us, close_us],
  /// accumulates per-stage attribution, and feeds the tail-exemplar
  /// store. Closing an unknown chain is a no-op.
  void CloseChain(ChainKind kind, uint64_t id, uint64_t sub, int64_t close_us,
                  ChainOutcome outcome);

  /// Drops all chains/aggregates (keeps enabled state and mode). Benches
  /// call this alongside MetricsRegistry::Reset() between configurations.
  void Reset();

  size_t open_chains() const;
  uint64_t closed_chains() const;
  uint64_t dropped_chains() const;  ///< Chains refused at the open cap.

  /// Closed-chain summaries with their edges (capped at
  /// kMaxRetainedChains; oldest kept): the sidecar's stage lines and the
  /// chains RenderChromeTrace draws.
  std::vector<ChainSummary> RetainedChains() const;

  /// Slowest chains by window length (up to kMaxExemplars), slowest
  /// first, each with its full edge list.
  std::vector<ChainSummary> Exemplars() const;

  /// Per-(chain,outcome,stage) aggregates, deterministic order, stages
  /// with zero attribution and empty groups omitted.
  std::vector<PathStageStat> StageStats() const;

  /// Fixed-layout per-stage p50/p99 attribution table — the same layout
  /// tools/txnpath prints offline. Byte-identical across runs.
  std::string RenderAttributionTable() const;

  /// The slowest chain's annotated path (one line per segment).
  std::string RenderWorstExemplar() const;

  /// JSONL sidecar: one chain summary per line (exemplars with edges),
  /// consumed by tools/txnpath.
  std::string RenderWaitEdgesJsonl() const;

  static constexpr size_t kMaxExemplars = 64;
  static constexpr size_t kMaxOpenChains = 1u << 16;
  static constexpr size_t kMaxRetainedChains = 1u << 18;
  static constexpr size_t kReservoirCapacity = 4096;

 private:
  struct OpenChain_ {
    int64_t open_us = 0;
    std::vector<WaitEdge> edges;
  };
  struct Key {
    int kind;
    uint64_t id;
    uint64_t sub;
    bool operator<(const Key& o) const {
      if (kind != o.kind) return kind < o.kind;
      if (id != o.id) return id < o.id;
      return sub < o.sub;
    }
  };
  /// Algorithm-R reservoir of per-chain stage durations (microseconds).
  struct Reservoir {
    std::vector<int64_t> samples;
    uint64_t seen = 0;
    int64_t sum = 0;
    void Add(int64_t v, Rng* rng);
    double PercentileMs(double p) const;
  };
  struct Group {
    uint64_t chains = 0;
    int64_t window_sum = 0;
    Reservoir total;
    Reservoir stage[kNumWaitStates];
    int64_t stage_sum[kNumWaitStates] = {};
  };

  void AppendChainJson(const ChainSummary& c, bool with_edges,
                       std::string* out) const;

  bool enabled_ = false;
  mutable common::OrderedMutex mu_{common::LockRank::kCriticalPath};
  std::string mode_;
  Rng rng_;
  std::map<Key, OpenChain_> open_;
  Group groups_[kNumChainKinds][kNumChainOutcomes];
  std::vector<ChainSummary> retained_;
  std::vector<ChainSummary> exemplars_;  // Sorted slowest-first.
  uint64_t closed_ = 0;
  uint64_t dropped_ = 0;
};

/// One-branch check used by instrumentation call sites.
inline bool CriticalPathEnabled() {
  return CriticalPathCollector::Global().enabled();
}

}  // namespace replidb::obs

#endif  // REPLIDB_OBS_CRITICAL_PATH_H_
