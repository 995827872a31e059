#ifndef REPLIDB_OBS_TRACE_H_
#define REPLIDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace replidb::obs {

struct ChainSummary;
struct FlightEvent;

/// \brief Per-transaction trace identity, carried on a TxnRequest from the
/// client driver through the controller and down to replica apply. Every
/// wait edge recorded for one transaction carries the id, so its client
/// chain collects the whole path across subsystems.
struct TraceContext {
  uint64_t id = 0;  ///< 0 = not traced.
};

/// Allocates a fresh process-unique trace id (never 0).
uint64_t NextTraceId();

/// Restarts the trace-id counter at 1. Only for determinism harnesses
/// that compare two in-process runs byte-for-byte: ids must be
/// run-relative, or the second run's traces/sidecars differ trivially.
void ResetTraceIds();

/// \brief Renders a chrome://tracing / Perfetto JSON document from what
/// the critical-path collector and the flight recorder already hold;
/// nothing is recorded for the trace itself.
///
///  - Each chain becomes one window span named "<kind>.<outcome>" plus
///    one span per SegmentWaitEdges() segment, named after its wait
///    state. The segments tile the window exactly. All of a chain's
///    spans carry `args.txn` = the chain id. Client chains go on lane
///    "client", apply chains on lane "replica.<sub>".
///  - Each flight event becomes an instant named after its kind, on lane
///    "node.<id>", with the event's detail in `args.detail`.
///
/// Lanes are announced as thread_name metadata in a fixed order (client,
/// replica lanes, node lanes, each by number). Events are emitted in
/// virtual-time order, ties in input order (flight events by seq), so
/// timestamps never decrease within a lane. All timestamps are virtual
/// microseconds, so the output is a pure function of its inputs.
std::string RenderChromeTrace(const std::vector<ChainSummary>& chains,
                              const std::vector<FlightEvent>& flight_events);

}  // namespace replidb::obs

#endif  // REPLIDB_OBS_TRACE_H_
