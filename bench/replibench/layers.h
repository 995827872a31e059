#ifndef REPLIBENCH_LAYERS_H_
#define REPLIBENCH_LAYERS_H_

// Interface between the harness and the per-layer trace hooks. The traced
// binary links layers_traced.cc, which wraps each layer's entry points with
// GNU ld --wrap; the untraced binary links layers_off.cc, whose Available()
// is false and whose counters stay zero.

#include <time.h>

#include <cstdint>
#include <vector>

namespace replibench::layers {

/// The wrapped boundaries, in report order. Each is "<layer>.<fn>"; the
/// metric names append ".calls_per_txn", ".self_pct" and ".allocs_per_txn".
inline constexpr const char* kBoundaryNames[] = {
    "engine.backup",          // Rdbms::Backup
    "binlog.checkpoint",      // SegmentedBinlog::AppendCheckpoint
    "sql.parse",              // sql::Parse
    "sql.rewrite",            // sql::RewriteForStatementReplication
    "engine.execute",         // Rdbms::Execute
    "engine.apply_writeset",  // Rdbms::ApplyWriteset
    "middleware.apply_scheduler",  // ApplyScheduler::Schedule
    "ship.enqueue",           // ShipPipeline::Enqueue
    "ship.encode",            // ship::EncodeBatch
    "ship.decode",            // ship::DecodeBatch
    "binlog.append",          // SegmentedBinlog::Append
    "binlog.writeset_table",  // WritesetTable::Add
    "middleware.recovery_log",  // RecoveryLog::Append
    "net.send",               // Network::Send
    "sim.schedule",           // Simulator::Schedule / ScheduleAt / Cancel
    "client.submit",          // Driver::Submit
    "obs.slo",                // SloTracker::Observe
};
inline constexpr int kBoundaryCount =
    static_cast<int>(sizeof(kBoundaryNames) / sizeof(kBoundaryNames[0]));

/// One wrapped entry point: `name` is "<layer>.<fn>".
struct Boundary {
  const char* name;
  uint64_t calls = 0;
  uint64_t self_ns = 0;   ///< CLOCK_MONOTONIC, minus wrapped children.
  uint64_t allocs = 0;    ///< operator new calls, minus wrapped children.
};

/// True in the traced binary.
bool Available();

/// Starts/stops recording. Toggle only outside any wrapped call.
void Arm(bool on);

/// Zeroes every counter.
void Reset();

/// Every boundary in a fixed order, whether or not it was called.
std::vector<Boundary> Snapshot();

/// Encoded wire bytes returned by the wrapped ship encoder while armed.
uint64_t WireBytes();

/// operator new calls while armed, wrapped or not.
uint64_t TotalAllocs();

/// CLOCK_MONOTONIC in ns — the clock the hooks time spans with (a vDSO
/// call, far cheaper than the thread-CPU clock).
inline uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace replibench::layers

#endif  // REPLIBENCH_LAYERS_H_
