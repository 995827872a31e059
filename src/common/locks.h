#ifndef REPLIDB_COMMON_LOCKS_H_
#define REPLIDB_COMMON_LOCKS_H_

#include <mutex>

namespace replidb::common {

/// \brief Declared lock-order table and the ordered mutex that enforces it.
///
/// The paper's middleware-state hazards (§3.2) extend to our own process:
/// once real parallelism lands, an undeclared lock ordering is a latent
/// deadlock and an unsynchronized one is silent divergence. Every mutex in
/// the tree is therefore an `OrderedMutex` carrying a rank from the table
/// below, and a thread may only acquire a mutex whose rank is *strictly
/// greater* than every mutex it already holds — so low ranks are outermost
/// and high ranks are innermost (leaf) locks. replicheck statically
/// verifies (a) no raw `std::mutex` is declared outside this file,
/// (b) every `OrderedMutex` construction names a rank declared here,
/// (c) the whole-tree static lock graph is acyclic and consistent with
/// these values (`lock-graph`), and (d) every declared rank is actually
/// used (`dead-rank`); the runtime recorder turns an out-of-order
/// acquisition into an abort.
///
/// To add a lock: pick the widest-scope point it can be held across, give
/// it a rank between its outer-most and inner-most neighbours (gaps of 10
/// leave room), document the guarded state, and construct the mutex with
/// the new rank.
///
/// The table is an X-macro so the enum, the runtime name table, and the
/// static analyzer all read one source of truth (same pattern as
/// REPLIDB_WIRE_MESSAGES). Keep one entry per line: replicheck anchors
/// dead-rank findings to the entry's line.
#define REPLIDB_LOCK_RANKS(X)                                               \
  /* obs/metrics.cc — MetricsRegistry name -> entry map. May be taken      \
     while no other replidb lock is held (registration is cold-path). */   \
  X(MetricsRegistry, 20)                                                    \
  /* obs/metrics.h — per-HistogramMetric sample buffer. Inner to the       \
     registry lock (Snapshot() walks entries while holding it). */         \
  X(MetricHistogram, 30)                                                    \
  /* obs/timeseries.cc — TimeSeriesHub series/probe maps. Held while       \
     probes run, so probes must not take any replidb lock. */              \
  X(TimeSeriesHub, 50)                                                      \
  /* obs/timeseries.h — per-Series sample ring. Inner to the hub lock      \
     (SampleProbes appends while holding it). */                           \
  X(TimeSeriesData, 60)                                                     \
  /* obs/recorder.cc — FlightRecorder event ring. Taken from control-path  \
     call sites that hold no other replidb lock. */                        \
  X(FlightRecorder, 70)                                                     \
  /* obs/slo.cc — SloTracker window state. Leaf. */                        \
  X(Slo, 80)                                                                \
  /* obs/critical_path.cc — CriticalPathCollector chain/reservoir state.   \
     Taken from instrumentation sites that hold no other replidb lock. */  \
  X(CriticalPath, 90)                                                       \
  /* common/logging.cc — process log-clock registration. Innermost leaf:   \
     log lines may be emitted while any other lock is held, so this rank   \
     sits above every other. */                                            \
  X(LogClock, 200)

enum class LockRank : int {
#define REPLIDB_LOCK_RANK_ENUM(name, value) k##name = value,
  REPLIDB_LOCK_RANKS(REPLIDB_LOCK_RANK_ENUM)
#undef REPLIDB_LOCK_RANK_ENUM
};

const char* LockRankName(LockRank rank);

/// Runtime lock-order checking. On by default in debug builds (!NDEBUG)
/// or when REPLIDB_LOCK_CHECK is set in the environment; tests can force
/// it regardless of build type. Checking costs a thread-local vector
/// push/pop per acquisition.
bool LockCheckEnabled();
void SetLockCheckEnabled(bool enabled);

/// A mutex with a declared position in the global lock order. Satisfies
/// BasicLockable, so `std::lock_guard<common::OrderedMutex>` works.
class OrderedMutex {
 public:
  explicit OrderedMutex(LockRank rank) : rank_(rank) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  /// Aborts (after printing both ranks) if this thread already holds a
  /// mutex of equal or greater rank and checking is enabled.
  void lock();
  void unlock();

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  LockRank rank_;
};

/// Ranks currently held by the calling thread (test introspection).
int HeldLockCount();

}  // namespace replidb::common

#endif  // REPLIDB_COMMON_LOCKS_H_
