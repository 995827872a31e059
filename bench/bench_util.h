#ifndef REPLIDB_BENCH_BENCH_UTIL_H_
#define REPLIDB_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/report.h"
#include "middleware/cluster.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb::bench {

using metrics::TablePrinter;
using middleware::Cluster;
using middleware::ClusterOptions;
using workload::RunStats;

/// Engine/replica cost calibration shared by the scenario benches:
/// ~1 ms point queries and ~2 ms durable commits on 4-worker replicas —
/// OLTP numbers of the paper's era, so saturation appears at realistic
/// scales without burning wall-clock time.
inline ClusterOptions BenchDefaults() {
  ClusterOptions o;
  o.engine.cost_model.base_us = 800;
  o.engine.cost_model.per_row_scanned_us = 2.0;
  o.engine.cost_model.per_row_written_us = 40.0;
  o.engine.cost_model.commit_us = 1500;
  o.replica.capacity = 4;
  o.replica.apply_workers = 2;
  o.replica.ship_interval = 10 * sim::kMillisecond;
  o.replica.apply_base_us = 400;
  o.replica.apply_per_op_us = 60;
  return o;
}

/// True when REPLIDB_BENCH_SHORT is set (non-empty): scenario benches
/// shrink their run times so CI can smoke-test them in seconds.
inline bool BenchShortMode() {
  const char* v = std::getenv("REPLIDB_BENCH_SHORT");
  return v != nullptr && *v != '\0';
}

/// CPU seconds this thread has used. The benches are single-threaded, so
/// it is the testbed's own cost; the simulated cluster never reads it.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Thread CPU time at each cluster's construction (MakeCluster), so a
/// report charges a cluster only the CPU spent since it was built — not
/// process start-up or the clusters a bench ran before it.
inline std::unordered_map<const Cluster*, double>& ClusterCpuStart() {
  static std::unordered_map<const Cluster*, double> start;
  return start;
}

/// Builds a cluster, loads the workload's schema, starts it.
inline std::unique_ptr<Cluster> MakeCluster(ClusterOptions opts,
                                            workload::Workload* workload) {
  double cpu_start = ThreadCpuSeconds();
  auto c = std::make_unique<Cluster>(std::move(opts));
  ClusterCpuStart()[c.get()] = cpu_start;
  c->Setup(workload->SetupStatements());
  c->Start();
  // Let heartbeats settle before traffic.
  c->sim.RunFor(sim::kSecond);
  return c;
}

/// Runs an open-loop load against driver 0 and returns the stats.
inline RunStats RunOpenLoop(Cluster* c, workload::Workload* workload,
                            double rate_tps, sim::Duration duration,
                            uint64_t seed = 7) {
  workload::OpenLoopGenerator gen(&c->sim, c->driver(), workload, rate_tps,
                                  seed);
  gen.Run(duration);
  return gen.stats();
}

/// Runs a closed loop of `clients` against driver 0.
inline RunStats RunClosedLoop(Cluster* c, workload::Workload* workload,
                              int clients, sim::Duration duration,
                              sim::Duration think = 0, uint64_t seed = 7) {
  workload::ClosedLoopGenerator gen(&c->sim, c->driver(), workload, clients,
                                    think, seed);
  gen.Run(duration);
  return gen.stats();
}

/// \brief Baseline client that talks to a single replica directly, with no
/// replication middleware in the path (the "single database" baseline the
/// paper compares against in §4.4.5). One outstanding transaction at a
/// time (synchronous, like a driver on a dedicated connection).
class DirectClient {
 public:
  DirectClient(sim::Simulator* sim, net::Network* network, net::NodeId node,
               net::NodeId replica)
      : sim_(sim), replica_(replica) {
    dispatcher_ = std::make_unique<net::Dispatcher>(network, node);
    dispatcher_->On(middleware::kMsgExecReply, [this](const net::Message& m) {
      auto reply = std::any_cast<middleware::ExecTxnReply>(m.body);
      auto it = callbacks_.find(reply.req_id);
      if (it == callbacks_.end()) return;
      auto cb = std::move(it->second);
      callbacks_.erase(it);
      cb(reply);
    });
  }

  void Execute(const middleware::TxnRequest& req,
               std::function<void(const middleware::ExecTxnReply&)> cb) {
    middleware::ExecTxnMsg msg;
    msg.req_id = next_req_++;
    msg.statements = req.statements;
    msg.read_only = req.read_only;
    callbacks_[msg.req_id] = std::move(cb);
    dispatcher_->Send(replica_, middleware::kMsgExec, msg,
                      middleware::ExecMsgWireSize(msg));
  }

 private:
  sim::Simulator* sim_;
  net::NodeId replica_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::unordered_map<uint64_t, std::function<void(const middleware::ExecTxnReply&)>>
      callbacks_;
  uint64_t next_req_ = 1;
};

/// Pretty throughput/latency row cells.
inline std::vector<std::string> StatsCells(const RunStats& s) {
  return {TablePrinter::Num(s.ThroughputTps(), 0),
          TablePrinter::Num(s.latency_ms.Mean(), 2),
          TablePrinter::Num(s.latency_ms.Percentile(99), 2),
          TablePrinter::Num(100.0 * s.AbortRate(), 2)};
}

/// \brief Prints a per-stage latency breakdown from the global metrics
/// registry: one row per named histogram (count/mean/p50/p95/p99/max).
/// Histograms with no samples are skipped so mode-specific stages don't
/// clutter unrelated benches.
inline void PrintStageBreakdown(
    const std::string& title,
    const std::vector<std::pair<std::string, std::string>>& stages) {
  auto& registry = obs::MetricsRegistry::Global();
  TablePrinter table({"stage", "n", "mean_ms", "p50", "p95", "p99", "max"});
  bool any = false;
  for (const auto& [label, metric] : stages) {
    Histogram h = registry.HistogramCopy(metric);
    if (h.count() == 0) continue;
    any = true;
    table.AddRow({label, TablePrinter::Int(static_cast<int64_t>(h.count())),
                  TablePrinter::Num(h.Mean(), 3),
                  TablePrinter::Num(h.Median(), 3),
                  TablePrinter::Num(h.P95(), 3),
                  TablePrinter::Num(h.P99(), 3),
                  TablePrinter::Num(h.Max(), 3)});
  }
  if (any) table.Print(title);
}

/// The replication-stack stages every scenario bench reports.
inline std::vector<std::pair<std::string, std::string>> DefaultStages() {
  return {
      {"mw.process", "middleware.controller.process_ms"},
      {"exec.queue_wait", "replica.exec.queue_wait_ms"},
      {"exec.service", "replica.exec.service_ms"},
      {"apply.queue_wait", "replica.apply.queue_wait_ms"},
      {"apply.dep_wait", "replica.apply.dep_wait_ms"},
      {"apply.service", "replica.apply.service_ms"},
      {"apply.commit_wait", "replica.apply.commit_wait_ms"},
      {"apply.lag", "replica.apply.lag_ms"},
      {"gcs.order", "gcs.order.latency_ms"},
      {"mw.txn_total", "middleware.txn.total_ms"},
      {"client.txn_total", "client.txn.total_ms"},
  };
}

/// Turns on the critical-path collector for a bench run and stamps it
/// with the cluster's replication mode. Call before traffic starts; pair
/// with ResetCriticalPath() between configurations of one bench.
inline void EnableCriticalPath(const ClusterOptions& opts) {
  auto& cp = obs::CriticalPathCollector::Global();
  cp.Enable();
  cp.SetMode(middleware::ReplicationModeName(opts.controller.mode));
}

/// Drops collected chains/aggregates (keeps enabled state + mode). Call
/// alongside MetricsRegistry Reset between bench configurations.
inline void ResetCriticalPath() {
  obs::CriticalPathCollector::Global().Reset();
}

/// \brief Prints the per-stage critical-path attribution table plus the
/// worst exemplar's annotated path. No-op when the collector is off or
/// saw no chains (so unprofiled benches stay clean).
inline void PrintCriticalPath(const std::string& title) {
  auto& cp = obs::CriticalPathCollector::Global();
  if (!cp.enabled() || cp.closed_chains() == 0) return;
  std::printf("\n-- %s --\n%s", title.c_str(),
              cp.RenderAttributionTable().c_str());
  std::string worst = cp.RenderWorstExemplar();
  if (!worst.empty()) std::printf("%s", worst.c_str());
}

/// \brief Machine-readable bench trajectory: every scenario bench fills
/// one BenchReport (ops/s, p50/p99 latency, bytes per txn, events/s, peak
/// and final replica lag) and writes it as `BENCH_<scenario>.json` next to
/// the binary (or into $REPLIDB_BENCH_JSON_DIR). tools/benchdiff compares
/// two trajectories with per-metric tolerance bands, which is what lets CI
/// fail on a throughput/latency/amplification regression instead of a
/// human eyeballing bench stdout.
///
/// Everything except `events_per_sec` derives from the deterministic
/// simulator, so reruns at the same seed produce bit-identical metrics;
/// events_per_sec is wall-clock-derived and informational only (benchdiff
/// skips it).
class BenchReport {
 public:
  explicit BenchReport(std::string scenario) : scenario_(std::move(scenario)) {}

  void Set(const std::string& metric, double value) {
    metrics_[metric] = value;
  }
  double Get(const std::string& metric) const {
    auto it = metrics_.find(metric);
    return it == metrics_.end() ? 0.0 : it->second;
  }

  /// Headline throughput/latency, optionally under a prefix (multi-phase
  /// benches record e.g. "steady.ops_per_sec" and "failover.p99_ms").
  void FromStats(const RunStats& s, const std::string& prefix = "") {
    Set(prefix + "ops_per_sec", s.ThroughputTps());
    Set(prefix + "p50_ms", s.latency_ms.Percentile(50));
    Set(prefix + "p99_ms", s.latency_ms.Percentile(99));
    Set(prefix + "abort_pct", 100.0 * s.AbortRate());
  }

  /// Cluster-level wire/efficiency metrics: bytes per committed txn,
  /// simulator event count, wall-clock events/s, and the sampled
  /// replica-lag envelope from the cluster's time-series hub.
  void CaptureCluster(const Cluster& c, uint64_t committed_txns) {
    Set("bytes_per_txn",
        committed_txns > 0
            ? static_cast<double>(c.network->bytes_delivered()) /
                  static_cast<double>(committed_txns)
            : 0.0);
    Set("sim_events", static_cast<double>(c.sim.events_executed()));
    // The cluster's events over the thread CPU spent since MakeCluster
    // built it — the only CPU-dependent metric in the report; benchdiff
    // treats events_per_sec as informational.
    auto start = ClusterCpuStart().find(&c);
    double cpu_sec = start == ClusterCpuStart().end()
                         ? 0.0
                         : ThreadCpuSeconds() - start->second;
    Set("events_per_sec",
        cpu_sec > 0 ? static_cast<double>(c.sim.events_executed()) / cpu_sec
                    : 0.0);
    double peak = 0.0, final_lag = 0.0;
    for (const std::string& name : c.timeseries().SeriesNames()) {
      if (name.find(".lag_versions") == std::string::npos) continue;
      const obs::Series* s = c.timeseries().FindSeries(name);
      if (s == nullptr || s->size() == 0) continue;
      peak = std::max(peak, s->MaxValue());
      final_lag = std::max(final_lag, s->Last());
    }
    Set("peak_lag", peak);
    Set("final_lag", final_lag);
  }

  /// Explicit lag envelope for benches that compute it themselves.
  void Lag(double peak, double final_lag) {
    Set("peak_lag", peak);
    Set("final_lag", final_lag);
  }

  /// Captures the collector's per-stage attribution as path_* metrics,
  /// e.g. "path_apply_applied_apply_backlog_p99_ms". benchdiff treats
  /// the whole path_ family as informational (attribution shape is a
  /// diagnosis, not a pass/fail surface). No-op when profiling is off.
  void FromCriticalPath(const std::string& prefix = "") {
    auto& cp = obs::CriticalPathCollector::Global();
    if (!cp.enabled()) return;
    for (const obs::PathStageStat& s : cp.StageStats()) {
      std::string base = prefix + "path_" +
                         std::string(obs::ChainKindName(s.kind)) + "_" +
                         obs::ChainOutcomeName(s.outcome) + "_" +
                         obs::WaitStateName(s.state);
      Set(base + "_share_pct", s.share_pct);
      Set(base + "_p99_ms", s.p99_ms);
    }
  }

  /// {"schema":1,"scenario":"...","metrics":{...}} with name-sorted keys.
  std::string Json() const {
    std::string out = "{\"schema\":1,\"scenario\":\"" + scenario_ +
                      "\",\"metrics\":{";
    bool first = true;
    char buf[64];
    for (const auto& [name, value] : metrics_) {
      if (!first) out += ",";
      first = false;
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out += "\"" + name + "\":" + buf;
    }
    out += "}}";
    return out;
  }

  /// Writes BENCH_<scenario>.json into $REPLIDB_BENCH_JSON_DIR (or the
  /// working directory) and prints the destination.
  bool Write() const {
    std::string path;
    const char* dir = std::getenv("REPLIDB_BENCH_JSON_DIR");
    if (dir != nullptr && *dir != '\0') {
      path = std::string(dir);
      if (path.back() != '/') path += '/';
    }
    path += "BENCH_" + scenario_ + ".json";
    std::string body = Json();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("bench-report: FAILED to write %s\n", path.c_str());
      return false;
    }
    size_t written = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("bench-report: %zu metrics -> %s\n", metrics_.size(),
                path.c_str());
    return written == body.size();
  }

  const std::string& scenario() const { return scenario_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::string scenario_;
  std::map<std::string, double> metrics_;
};

/// One-call trajectory hook for the common single-phase bench: headline
/// stats + cluster capture + write. Benches with several phases build a
/// BenchReport directly and call FromStats per phase instead.
inline void WriteBenchReport(const std::string& scenario, const Cluster& c,
                             const RunStats& stats) {
  BenchReport report(scenario);
  report.FromStats(stats);
  report.CaptureCluster(c, stats.committed);
  report.Write();
}

/// \brief Prints a sampled series from a cluster's TimeSeriesHub as a
/// text curve: one row per virtual-time bucket with an asterisk bar, so a
/// lag timeline (growth, knee, recovery) is readable straight from bench
/// stdout. `buckets` rows; each bucket shows the max sample inside it.
inline void PrintSeriesCurve(const Cluster& c, const std::string& series,
                             const std::string& title, size_t buckets = 20,
                             size_t bar_width = 50) {
  const obs::Series* s = c.timeseries().FindSeries(series);
  if (s == nullptr || s->size() == 0) return;
  std::vector<obs::SeriesPoint> pts = s->Points();
  int64_t t0 = pts.front().ts_us;
  int64_t t1 = pts.back().ts_us;
  int64_t span = std::max<int64_t>(1, t1 - t0);
  buckets = std::max<size_t>(1, std::min(buckets, pts.size()));
  std::vector<double> maxima(buckets, 0.0);
  double overall = 0.0;
  for (const obs::SeriesPoint& p : pts) {
    size_t b = static_cast<size_t>((p.ts_us - t0) * static_cast<int64_t>(buckets) / (span + 1));
    b = std::min(b, buckets - 1);
    maxima[b] = std::max(maxima[b], p.value);
    overall = std::max(overall, p.value);
  }
  std::printf("\n-- %s (%s, %zu samples) --\n", title.c_str(), series.c_str(),
              pts.size());
  for (size_t b = 0; b < buckets; ++b) {
    double t_sec =
        static_cast<double>(t0 + span * static_cast<int64_t>(b) /
                                     static_cast<int64_t>(buckets)) /
        1e6;
    size_t bar = overall > 0 ? static_cast<size_t>(
                                   maxima[b] / overall *
                                   static_cast<double>(bar_width))
                             : 0;
    std::printf("t=%8.2fs %10.0f |%s\n", t_sec, maxima[b],
                std::string(bar, '*').c_str());
  }
}

/// \brief The bench's observability outputs, switched on by one variable.
/// Declare one at the top of main(). When REPLIDB_OBS_DIR names a
/// directory (created if missing), construction turns on the
/// critical-path collector and destruction writes into the directory:
///
///   trace.json        chrome://tracing / Perfetto view, rendered from the
///                     retained chains and the flight recorder
///   wait_edges.jsonl  critical-path sidecar (analyze with tools/txnpath)
///   flight.txt        flight-recorder tail
///   metrics.json      the MetricsRegistry as JSON
///   metrics.prom      the MetricsRegistry as Prometheus text
///   status.txt        SHOW REPLICA STATUS consoles kept by KeepStatus()
///
/// A bench that resets the collector or the registry between
/// configurations leaves only its last configuration in those files.
/// Unset or empty, nothing is enabled or written.
class ObsOutputs {
 public:
  ObsOutputs() {
    if (Dir().empty()) return;
    ::mkdir(Dir().c_str(), 0755);
    obs::CriticalPathCollector::Global().Enable();
  }
  ObsOutputs(const ObsOutputs&) = delete;
  ObsOutputs& operator=(const ObsOutputs&) = delete;

  ~ObsOutputs() {
    if (Dir().empty()) return;
    auto& cp = obs::CriticalPathCollector::Global();
    auto& flight = obs::FlightRecorder::Global();
    auto& registry = obs::MetricsRegistry::Global();
    Write("trace.json",
          obs::RenderChromeTrace(cp.RetainedChains(), flight.MergedEvents()));
    Write("wait_edges.jsonl", cp.RenderWaitEdgesJsonl());
    Write("metrics.json", registry.DumpJson());
    Write("metrics.prom", registry.DumpPrometheus());
    if (!Status().empty()) Write("status.txt", Status());
    std::FILE* f = std::fopen((Dir() + "flight.txt").c_str(), "w");
    if (f != nullptr) flight.Dump(f);
    if (f == nullptr || std::fclose(f) != 0) {
      std::printf("obs: FAILED to write %sflight.txt\n", Dir().c_str());
    }
    std::printf("\nobs: outputs written to %s\n", Dir().c_str());
  }

  /// Keeps `c`'s SHOW REPLICA STATUS console for status.txt (no-op when
  /// REPLIDB_OBS_DIR is unset). Call while the cluster is still alive.
  static void KeepStatus(const Cluster& c) {
    if (Dir().empty()) return;
    Status() += c.ShowReplicaStatus();
  }

 private:
  /// REPLIDB_OBS_DIR with a trailing '/', or empty when unset.
  static const std::string& Dir() {
    static const std::string dir = [] {
      const char* v = std::getenv("REPLIDB_OBS_DIR");
      std::string d = v == nullptr ? "" : v;
      if (!d.empty() && d.back() != '/') d += '/';
      return d;
    }();
    return dir;
  }

  static std::string& Status() {
    static std::string status;
    return status;
  }

  static void Write(const char* name, const std::string& body) {
    std::string path = Dir() + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) std::printf("obs: FAILED to write %s\n", path.c_str());
  }
};

}  // namespace replidb::bench

#endif  // REPLIDB_BENCH_BENCH_UTIL_H_
