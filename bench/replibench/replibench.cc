// replibench — the testbed's end-to-end and per-layer benchmark.
//
//   replibench --workload <name> [--seed N] [--seconds S] [--reps N]
//   replibench_traced --workload <name> [--seed N] [--seconds S] [--reps N]
//   replibench --list
//
// One process, one thread, one workload. Every rep builds a fresh cluster,
// drives an open-loop Poisson load through three offered-rate steps back
// to back, drains, and checks the outcome. Two clocks are reported:
//   * virtual time — what the simulated cluster delivers (latency,
//     staleness, bytes on the wire). Deterministic at a fixed seed, so
//     every rep must reproduce rep 1 exactly;
//   * real CPU — what the testbed costs to run, in units of a calibration
//     kernel timed next to it, so a slower or busier host does not read as
//     a regression.
// The traced binary also times each layer's entry points (layers_traced.cc)
// and reports where the traffic-phase time goes.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the exit code is non-zero when any check fails.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "layers.h"

namespace replibench {
namespace {

using replidb::Histogram;
using replidb::bench::BenchDefaults;
using replidb::middleware::Cluster;
using replidb::middleware::ClusterOptions;
using replidb::middleware::ReplicationMode;
using replidb::workload::OpenLoopGenerator;
namespace sim = replidb::sim;
namespace wl = replidb::workload;

constexpr int kSteps = 3;
constexpr int kNominalStep = 1;  ///< The middle rate step.
constexpr double kWriteP99LimitMs = 20.0;
/// CPU is sampled, and the calibration kernel run, once per virtual slice.
constexpr sim::Duration kSlice = 100 * sim::kMillisecond;
/// --smoke shrinks step lengths and tables by these factors.
constexpr double kSmokeTime = 0.05;
constexpr int kSmokeRowsDivisor = 20;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  ClusterOptions (*options)();
  std::unique_ptr<wl::Workload> (*make)(bool smoke);
  double rate_tps[kSteps];
  double step_seconds[kSteps];
  /// A write applied to one replica only by --inject-divergence.
  const char* divergence_sql;
  /// Boundaries this workload must reach (checked by --require-layers).
  std::vector<const char*> layers;
};

std::unique_ptr<wl::Workload> Micro(int rows, double write_fraction,
                                    int statements_per_write,
                                    double hot_fraction, int hot_rows,
                                    bool smoke) {
  wl::MicroWorkload::Options o;
  o.rows = smoke ? std::max(hot_rows, rows / kSmokeRowsDivisor) : rows;
  o.write_fraction = write_fraction;
  o.statements_per_write = statements_per_write;
  o.hot_fraction = hot_fraction;
  o.hot_rows = hot_rows;
  return std::make_unique<wl::MicroWorkload>(o);
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Rates are tuned so that on every seed the middle step is the highest
// that meets the write p99 limit and the top step misses it without a
// failed transaction. The long middle step keeps its percentiles steady
// from seed to seed.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"ms_durable_write",
       [] {
         ClusterOptions o = BenchDefaults();
         o.replicas = 3;
         o.controller.mode = ReplicationMode::kMasterSlaveAsync;
         o.replica.binlog.durable = true;
         o.replica.apply_policy =
             replidb::middleware::ApplyPolicy::kConflictGraph;
         o.replica.apply_workers = 4;
         return o;
       },
       [](bool smoke) { return Micro(20000, 0.8, 1, 0.0, 1, smoke); },
       {1000, 1400, 2400},
       {2, 16, 2},
       "UPDATE accounts SET balance = balance + 7 WHERE id = 1",
       {"engine.backup", "binlog.checkpoint", "sql.parse", "engine.execute",
        "engine.apply_writeset", "middleware.apply_scheduler", "ship.enqueue",
        "ship.encode", "ship.decode", "binlog.append",
        "binlog.writeset_table", "middleware.recovery_log", "net.send",
        "sim.schedule", "client.submit", "obs.slo"}},
      {"mm_stmt_mixed",
       [] {
         ClusterOptions o = BenchDefaults();
         o.replicas = 4;
         o.controller.mode = ReplicationMode::kMultiMasterStatement;
         return o;
       },
       [](bool smoke) { return Micro(500, 0.25, 1, 0.0, 1, smoke); },
       {1200, 1800, 3600},
       {2, 30, 2},
       "UPDATE accounts SET balance = balance + 7 WHERE id = 1",
       {"sql.parse", "sql.rewrite", "engine.execute", "net.send",
        "sim.schedule", "client.submit", "obs.slo",
        "middleware.recovery_log"}},
      {"mm_cert_hot",
       [] {
         ClusterOptions o = BenchDefaults();
         o.replicas = 3;
         o.controller.mode = ReplicationMode::kMultiMasterCertification;
         return o;
       },
       [](bool smoke) { return Micro(20000, 0.5, 3, 0.1, 100, smoke); },
       {1000, 1600, 4000},
       {2, 16, 2},
       "UPDATE accounts SET balance = balance + 7 WHERE id = 1",
       {"sql.parse", "engine.execute", "engine.apply_writeset",
        "middleware.apply_scheduler", "binlog.append",
        "binlog.writeset_table", "middleware.recovery_log", "net.send",
        "sim.schedule", "client.submit", "obs.slo"}},
      {"broker_read_mostly",
       [] {
         ClusterOptions o = BenchDefaults();
         o.replicas = 4;
         o.controller.mode = ReplicationMode::kMasterSlaveAsync;
         o.controller.consistency =
             replidb::middleware::ConsistencyLevel::kSessionPCSI;
         return o;
       },
       [](bool smoke) -> std::unique_ptr<wl::Workload> {
         wl::TicketBrokerWorkload::Options o;
         if (smoke) o.items /= kSmokeRowsDivisor;
         return std::make_unique<wl::TicketBrokerWorkload>(o);
       },
       {6000, 10000, 20000},
       {2, 10, 2},
       "UPDATE inventory SET stock = stock + 7 WHERE item = 1",
       {"sql.parse", "engine.execute", "ship.enqueue", "ship.encode",
        "ship.decode", "binlog.append", "net.send", "sim.schedule",
        "client.submit", "obs.slo"}},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Metric names. BENCHMARK.json lists the same names and units; the
// replibench_names test keeps the two in step.

struct MetricDef {
  std::string name;
  const char* unit;
};

std::vector<MetricDef> EndToEndMetrics() {
  return {
      {"cpu_us_per_txn", "us"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},    {"slo_tps", "txn/s"},
      {"commit_p50_ms", "ms"},  {"commit_p99_ms", "ms"},
      {"read_mean_ms", "ms"},   {"staleness_mean", "versions"},
      {"bytes_per_txn", "B"},
  };
}

std::vector<MetricDef> LayerMetrics() {
  std::vector<MetricDef> out;
  for (const char* b : layers::kBoundaryNames) {
    out.push_back({std::string(b) + ".calls_per_txn", "count"});
    out.push_back({std::string(b) + ".self_pct", "%"});
    out.push_back({std::string(b) + ".allocs_per_txn", "count"});
  }
  out.push_back({"middleware.rest.self_pct", "%"});
  out.push_back({"trace.traffic_ns_per_txn", "ns"});
  out.push_back({"trace.overhead_pct", "%"});
  out.push_back({"ship.encode.wire_bytes_per_txn", "B"});
  out.push_back({"sim.events_per_txn", "count"});
  out.push_back({"net.msgs_per_txn", "count"});
  out.push_back({"heap.allocs_per_txn", "count"});
  out.push_back({"client.retries_per_txn", "count"});
  return out;
}

// ---------------------------------------------------------------------------
// Real-CPU clock and calibration

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

volatile uint64_t g_calibration_sink = 0;

/// Fixed work on std containers and strings only — string keys built and
/// hashed, a node-based map, a sort — so no change under src/ can move it,
/// while it leans on the allocator, caches and branch predictors like the
/// testbed's hot paths do. Returns its thread-CPU time in ns.
double CalibrationNs() {
  uint64_t t0 = ThreadCpuNs();
  std::unordered_map<std::string, uint64_t> counts;
  std::map<uint64_t, std::string> ordered;
  std::vector<std::string> keys;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key = "accounts.balance/" + std::to_string(x % 40000);
    counts[key] += i;
    ordered.emplace(x % 100000, key);
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t digest = ordered.size();
  for (const auto& [k, v] : counts) digest += v ^ k.size();
  for (const std::string& k : keys) digest += static_cast<uint64_t>(k.back());
  g_calibration_sink = g_calibration_sink + digest;
  return static_cast<double>(ThreadCpuNs() - t0);
}

/// The kernel's median thread-CPU time on the reference host (README.md).
/// Reported CPU = kernel units * this, i.e. CPU as the reference host
/// would spend it.
constexpr double kReferenceCalibrationNs = 225e3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MedianCalibrationNs() {
  std::vector<double> ns;
  for (int i = 0; i < 5; ++i) ns.push_back(CalibrationNs());
  return Median(ns);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------------
// One rep

struct StepResult {
  double rate_tps = 0;
  double seconds = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t done_by_step_end = 0;  ///< Completed before the step ended.
  Histogram write_ms;
  Histogram read_ms;
  Histogram staleness;

  /// Write p99 within the limit, no growing backlog, at most 1% failed.
  bool MeetsSlo() const {
    double n = static_cast<double>(submitted);
    return submitted > 0 && write_ms.count() > 0 &&
           write_ms.P99() <= kWriteP99LimitMs &&
           static_cast<double>(done_by_step_end) >= 0.99 * n &&
           static_cast<double>(failed) <= 0.01 * n;
  }
};

struct RepResult {
  StepResult steps[kSteps];
  Histogram lag_ms;  ///< replica.apply.lag_ms during the nominal step.
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;
  /// Set-up CPU in calibration-kernel units.
  double setup_units = 0;
  /// Process peak RSS when the rep's checks are done.
  double peak_rss_mb = 0;
  /// Traffic-phase CPU per slice in calibration-kernel units: each slice's
  /// thread CPU over the mean of the kernel runs on either side of it. The
  /// drain is the last slice. Every rep of one seed slices identical work.
  std::vector<double> slice_units;
  double traffic_cpu_ns = 0;
  double traffic_mono_ns = 0;  ///< CLOCK_MONOTONIC over the same slices.
  std::vector<layers::Boundary> boundaries;
  uint64_t wire_bytes = 0;
  uint64_t allocs = 0;
  std::vector<std::string> failures;  ///< Failed checks; empty when correct.
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 0;  ///< Wall time to fill with reps and set-ups.
  int reps = 3;        ///< Minimum reps.
  bool smoke = false;
  bool inject_divergence = false;
  bool require_layers = false;
};

bool Drained(Cluster& c,
             const std::vector<std::unique_ptr<OpenLoopGenerator>>& gens) {
  for (const auto& g : gens) {
    const wl::RunStats& s = g->stats();
    if (s.committed + s.failed != s.submitted) return false;
  }
  if (c.controller->PendingCount() != 0) return false;
  for (const auto& r : c.replicas) {
    if (r->apply_backlog() != 0 ||
        r->applied_version() < c.controller->global_version()) {
      return false;
    }
  }
  return true;
}

/// A started cluster and the workload that loaded it.
struct Testbed {
  std::unique_ptr<wl::Workload> load;
  std::unique_ptr<Cluster> cluster;
  double setup_units = 0;   ///< Set-up CPU in calibration-kernel units.
  double cal_after_ns = 0;  ///< Kernel time measured right after set-up.
};

/// The timed set-up: builds a fresh cluster, loads the schema, starts the
/// cluster and settles it for 1 s of virtual time. Its thread CPU is divided
/// by the median of five kernel runs on either side.
Testbed SetUp(const Options& opt) {
  const Workload& w = *opt.workload;
  Testbed t;
  double cal_before = MedianCalibrationNs();
  uint64_t cpu0 = ThreadCpuNs();
  t.load = w.make(opt.smoke);
  t.cluster = std::make_unique<Cluster>(w.options());
  t.cluster->Setup(t.load->SetupStatements());
  t.cluster->Start();
  t.cluster->sim.RunFor(sim::kSecond);
  double setup_ns = static_cast<double>(ThreadCpuNs() - cpu0);
  t.cal_after_ns = MedianCalibrationNs();
  t.setup_units = setup_ns / (0.5 * (cal_before + t.cal_after_ns));
  return t;
}

RepResult RunRep(const Options& opt, bool trace) {
  const Workload& w = *opt.workload;
  auto& registry = replidb::obs::MetricsRegistry::Global();
  RepResult rep;

  Testbed bed = SetUp(opt);
  Cluster& c = *bed.cluster;
  rep.setup_units = bed.setup_units;
  double cal_prev = bed.cal_after_ns;

  uint64_t bytes0 = c.network->bytes_delivered();
  uint64_t events0 = c.sim.events_executed();
  uint64_t msgs0 = c.network->messages_delivered();
  registry.Reset();
  layers::Reset();
  // Runs `body` as one measured slice, then one calibration kernel. The
  // kernel runs disarmed so it never shows in the layer counters.
  auto slice = [&](auto&& body) {
    layers::Arm(trace);
    uint64_t mono0 = layers::MonotonicNs();
    uint64_t cpu0 = ThreadCpuNs();
    body();
    uint64_t cpu_ns = ThreadCpuNs() - cpu0;
    rep.traffic_mono_ns += static_cast<double>(layers::MonotonicNs() - mono0);
    layers::Arm(false);
    rep.traffic_cpu_ns += static_cast<double>(cpu_ns);
    double cal = CalibrationNs();
    rep.slice_units.push_back(static_cast<double>(cpu_ns) /
                              (0.5 * (cal_prev + cal)));
    cal_prev = cal;
  };

  std::vector<std::unique_ptr<OpenLoopGenerator>> gens;
  double scale = opt.smoke ? kSmokeTime : 1.0;
  for (int s = 0; s < kSteps; ++s) {
    StepResult& step = rep.steps[s];
    step.rate_tps = w.rate_tps[s];
    auto len = static_cast<sim::Duration>(w.step_seconds[s] * scale *
                                          static_cast<double>(sim::kSecond));
    step.seconds = sim::ToSeconds(len);
    gens.push_back(std::make_unique<OpenLoopGenerator>(
        &c.sim, c.driver(), bed.load.get(), step.rate_tps,
        opt.seed * 1000003 + static_cast<uint64_t>(s)));
    if (s == kNominalStep) registry.Reset();
    sim::TimePoint stop = c.sim.Now() + len;
    gens.back()->Arm(stop);
    while (c.sim.Now() < stop) {
      slice([&] { c.sim.RunUntil(std::min(stop, c.sim.Now() + kSlice)); });
    }
    const wl::RunStats& st = gens.back()->stats();
    step.done_by_step_end = st.committed + st.failed;
    if (s == kNominalStep) {
      rep.lag_ms = registry.HistogramCopy("replica.apply.lag_ms");
    }
  }
  // Drain: in-flight transactions finish and every replica catches up.
  sim::TimePoint drain_limit = c.sim.Now() + 60 * sim::kSecond;
  slice([&] {
    while (!Drained(c, gens) && c.sim.Now() < drain_limit) {
      c.sim.RunFor(10 * sim::kMillisecond);
    }
  });
  rep.boundaries = layers::Snapshot();
  rep.wire_bytes = layers::WireBytes();
  rep.allocs = layers::TotalAllocs();

  uint64_t committed_writes = 0;
  for (int s = 0; s < kSteps; ++s) {
    const wl::RunStats& st = gens[s]->stats();
    StepResult& step = rep.steps[s];
    step.submitted = st.submitted;
    step.committed = st.committed;
    step.failed = st.failed;
    step.retries = st.retries;
    step.write_ms = st.write_latency_ms;
    step.read_ms = st.read_latency_ms;
    step.staleness = st.staleness;
    rep.submitted += st.submitted;
    rep.committed += st.committed;
    rep.failed += st.failed;
    rep.retries += st.retries;
    committed_writes += st.write_latency_ms.count();
  }
  rep.bytes = c.network->bytes_delivered() - bytes0;
  rep.events = c.sim.events_executed() - events0;
  rep.msgs = c.network->messages_delivered() - msgs0;

  if (opt.inject_divergence) {
    c.replica(static_cast<int>(c.replicas.size()) - 1)
        ->AdminExec(w.divergence_sql);
  }
  auto check = [&rep](bool ok, const std::string& what) {
    if (!ok) rep.failures.push_back(what);
  };
  check(Drained(c, gens), "drained within 60 s of virtual time");
  check(c.Converged(), "converged");
  check(c.DistinctContents() == 1, "distinct_contents == 1 (got " +
                                       std::to_string(c.DistinctContents()) +
                                       ")");
  check(c.TotalApplyErrors() == 0, "apply_errors == 0 (got " +
                                       std::to_string(c.TotalApplyErrors()) +
                                       ")");
  check(c.controller->stats().commits == committed_writes,
        "controller commits " + std::to_string(c.controller->stats().commits) +
            " == driver committed writes " + std::to_string(committed_writes));
  rep.peak_rss_mb = PeakRssMb();
  return rep;
}

// ---------------------------------------------------------------------------
// Metrics from reps

double PerTxn(double total, uint64_t committed) {
  return committed > 0 ? total / static_cast<double>(committed) : 0.0;
}

/// The virtual-time end-to-end metrics of one rep.
std::map<std::string, double> VirtualMetrics(const RepResult& r) {
  double slo = 0;
  for (const StepResult& s : r.steps) {
    if (s.MeetsSlo()) slo = static_cast<double>(s.committed) / s.seconds;
  }
  const StepResult& nominal = r.steps[kNominalStep];
  return {
      {"slo_tps", slo},
      {"commit_p50_ms", nominal.write_ms.Median()},
      {"commit_p99_ms", nominal.write_ms.P99()},
      {"read_mean_ms", nominal.read_ms.Mean()},
      {"staleness_mean", nominal.staleness.Mean()},
      {"bytes_per_txn", PerTxn(static_cast<double>(r.bytes), r.committed)},
  };
}

/// Every virtual-time quantity of a rep at full precision. Reps of one
/// seed must print the same string.
std::string Fingerprint(const RepResult& r) {
  std::string out;
  char buf[64];
  auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  };
  for (const auto& [name, v] : VirtualMetrics(r)) {
    out += name + "=";
    add(v);
  }
  add(r.lag_ms.P99());
  for (const StepResult& s : r.steps) {
    for (uint64_t n :
         {s.submitted, s.committed, s.failed, s.retries, s.done_by_step_end}) {
      add(static_cast<double>(n));
    }
  }
  for (uint64_t n : {r.bytes, r.events, r.msgs}) add(static_cast<double>(n));
  add(static_cast<double>(r.slice_units.size()));
  return out;
}

/// Traffic CPU of a set of reps in kernel units: per slice, the median over
/// the reps, summed. A burst of host noise in one rep's slice drops out.
double TrafficUnits(const std::vector<const RepResult*>& reps) {
  double total = 0;
  if (reps.empty()) return total;
  for (size_t j = 0; j < reps.front()->slice_units.size(); ++j) {
    std::vector<double> v;
    for (const RepResult* r : reps) v.push_back(r->slice_units[j]);
    total += Median(v);
  }
  return total;
}

void PrintSteps(const RepResult& r) {
  std::printf("%-4s %7s %5s %9s %9s %6s %7s %6s  %-24s %-18s %s\n", "step",
              "rate", "secs", "submitted", "committed", "failed", "retries",
              "done%", "write p50/p99 ms (n)", "read p99 ms (n)", "slo");
  for (int i = 0; i < kSteps; ++i) {
    const StepResult& s = r.steps[i];
    char write[64], read[64];
    std::snprintf(write, sizeof(write), "%.3f/%.3f (%zu)", s.write_ms.Median(),
                  s.write_ms.P99(), s.write_ms.count());
    std::snprintf(read, sizeof(read), "%.3f (%zu)", s.read_ms.P99(),
                  s.read_ms.count());
    std::printf("%-4d %7.0f %5.2f %9llu %9llu %6llu %7llu %6.2f  %-24s %-18s %s\n",
                i, s.rate_tps, s.seconds,
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.committed),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.retries),
                100.0 * PerTxn(static_cast<double>(s.done_by_step_end),
                               s.submitted),
                write, read, s.MeetsSlo() ? "meets" : "misses");
  }
  const StepResult& nominal = r.steps[kNominalStep];
  std::printf("nominal step: staleness mean %.3f p99 %.0f versions (n=%zu); "
              "apply lag p99 %.3f ms (n=%zu)\n",
              nominal.staleness.Mean(), nominal.staleness.P99(),
              nominal.staleness.count(), r.lag_ms.P99(), r.lag_ms.count());
}

struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<MetricDef, double>> metrics;
};

void PrintJson(const Output& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const auto& [def, value] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                def.name.c_str(), std::isfinite(value) ? value : 0.0,
                def.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// The per-layer table and metrics, summed over the traced reps.
std::map<std::string, double> LayerValues(
    const std::vector<const RepResult*>& traced,
    const std::vector<const RepResult*>& untraced) {
  std::vector<layers::Boundary> sum;
  for (const char* name : layers::kBoundaryNames) sum.push_back({name});
  uint64_t committed = 0;
  double mono_ns = 0, wire = 0, allocs = 0, events = 0, msgs = 0, retries = 0;
  for (const RepResult* r : traced) {
    for (size_t b = 0; b < sum.size(); ++b) {
      sum[b].calls += r->boundaries[b].calls;
      sum[b].self_ns += r->boundaries[b].self_ns;
      sum[b].allocs += r->boundaries[b].allocs;
    }
    committed += r->committed;
    mono_ns += r->traffic_mono_ns;
    wire += static_cast<double>(r->wire_bytes);
    allocs += static_cast<double>(r->allocs);
    events += static_cast<double>(r->events);
    msgs += static_cast<double>(r->msgs);
    retries += static_cast<double>(r->retries);
  }
  auto pct = [&](double ns) { return mono_ns > 0 ? 100.0 * ns / mono_ns : 0; };
  std::map<std::string, double> v;
  double rest_ns = mono_ns;
  std::printf("\n%-28s %10s %12s %7s %10s\n", "layer (self)", "calls/txn",
              "ns/txn", "%", "allocs/txn");
  for (const layers::Boundary& b : sum) {
    double self_ns = static_cast<double>(b.self_ns);
    std::string n = b.name;
    v[n + ".calls_per_txn"] = PerTxn(static_cast<double>(b.calls), committed);
    v[n + ".self_pct"] = pct(self_ns);
    v[n + ".allocs_per_txn"] = PerTxn(static_cast<double>(b.allocs), committed);
    rest_ns -= self_ns;
    std::printf("%-28s %10.3f %12.1f %7.2f %10.3f\n", b.name,
                v[n + ".calls_per_txn"], PerTxn(self_ns, committed),
                v[n + ".self_pct"], v[n + ".allocs_per_txn"]);
  }
  std::printf("%-28s %10s %12.1f %7.2f\n", "middleware.rest", "",
              PerTxn(rest_ns, committed), pct(rest_ns));
  std::printf("%-28s %10s %12.1f %7.2f  (layers + rest, CLOCK_MONOTONIC)\n",
              "traffic", "", PerTxn(mono_ns, committed), pct(mono_ns));
  v["middleware.rest.self_pct"] = pct(rest_ns);
  v["trace.traffic_ns_per_txn"] = PerTxn(mono_ns, committed);
  double on = TrafficUnits(traced), off = TrafficUnits(untraced);
  v["trace.overhead_pct"] = off > 0 ? 100.0 * (on / off - 1.0) : 0.0;
  v["ship.encode.wire_bytes_per_txn"] = PerTxn(wire, committed);
  v["sim.events_per_txn"] = PerTxn(events, committed);
  v["net.msgs_per_txn"] = PerTxn(msgs, committed);
  v["heap.allocs_per_txn"] = PerTxn(allocs, committed);
  v["client.retries_per_txn"] = PerTxn(retries, committed);
  std::printf("trace overhead %+.1f%% (traffic CPU, traced vs untraced reps)\n",
              v["trace.overhead_pct"]);
  return v;
}

/// Reps stop once the next one would end past this share of --seconds.
constexpr double kRepShare = 0.85;
/// Cap on set-up samples, reps included.
constexpr size_t kMaxSetups = 31;

/// Runs at least `opt.reps` reps, and more while the next one is expected
/// to end within kRepShare of `opt.seconds`. The untraced binary spends the
/// rest of `opt.seconds` on extra set-ups: set-up is short and noisy, and
/// setup_s is the median over all of them. The traced binary alternates
/// untraced and traced reps, so its tracing overhead is measured within one
/// process; its first rep only warms the heap, so both sides see the same
/// allocator state.
int Run(const Options& opt) {
  const bool traced_binary = layers::Available();
  const Workload& w = *opt.workload;
  std::printf("replibench%s: workload=%s seed=%llu\n",
              traced_binary ? "_traced" : "", w.name,
              static_cast<unsigned long long>(opt.seed));
  uint64_t wall0 = layers::MonotonicNs();
  auto elapsed_s = [&] {
    return static_cast<double>(layers::MonotonicNs() - wall0) / 1e9;
  };

  std::vector<RepResult> reps;
  std::vector<bool> rep_traced;
  Output out;
  int min_reps = traced_binary ? std::max(3, opt.reps) : opt.reps;
  double longest_rep_s = 0;
  while (static_cast<int>(reps.size()) < min_reps ||
         (elapsed_s() + longest_rep_s <= kRepShare * opt.seconds &&
          reps.size() < 100)) {
    double start_s = elapsed_s();
    bool trace = traced_binary && reps.size() % 2 == 1;
    RepResult r = RunRep(opt, trace);
    if (!reps.empty() && Fingerprint(r) != Fingerprint(reps.front())) {
      r.failures.push_back("virtual-time metrics identical to rep 1");
    }
    std::printf("rep %zu%s: committed=%llu failed=%llu traffic_cpu=%.3f s "
                "traffic_units=%.0f setup_units=%.0f peak_rss=%.1f MB\n",
                reps.size() + 1, trace ? " (traced)" : "",
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.failed),
                r.traffic_cpu_ns / 1e9, TrafficUnits({&r}), r.setup_units,
                r.peak_rss_mb);
    for (const std::string& f : r.failures) {
      std::printf("check failed: %s\n", f.c_str());
      out.correct = false;
    }
    out.attempted += r.submitted;
    out.failed += r.failed;
    reps.push_back(std::move(r));
    rep_traced.push_back(trace);
    longest_rep_s = std::max(longest_rep_s, elapsed_s() - start_s);
    if (!out.correct) break;
  }

  std::vector<const RepResult*> traced, untraced;
  std::vector<double> setup_units;
  for (size_t i = 0; i < reps.size(); ++i) {
    if (rep_traced[i]) {
      traced.push_back(&reps[i]);
    } else if (!traced_binary || i > 0) {
      untraced.push_back(&reps[i]);
    }
    setup_units.push_back(reps[i].setup_units);
  }
  double longest_setup_s = 0;
  while (!traced_binary && out.correct && setup_units.size() < kMaxSetups &&
         elapsed_s() + longest_setup_s <= opt.seconds) {
    double start_s = elapsed_s();
    setup_units.push_back(SetUp(opt).setup_units);
    longest_setup_s = std::max(longest_setup_s, elapsed_s() - start_s);
  }
  std::printf("\n");
  PrintSteps(reps.front());

  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  if (traced_binary) {
    values = LayerValues(traced, untraced);
    defs = LayerMetrics();
    if (opt.require_layers) {
      for (const char* name : w.layers) {
        if (values[std::string(name) + ".calls_per_txn"] <= 0) {
          std::printf("check failed: boundary %s recorded no call\n", name);
          out.correct = false;
        }
      }
    }
  } else {
    values = VirtualMetrics(reps.front());
    values["cpu_us_per_txn"] =
        PerTxn(TrafficUnits(untraced) * kReferenceCalibrationNs / 1e3,
               reps.front().committed);
    values["setup_s"] = Median(setup_units) * kReferenceCalibrationNs / 1e9;
    // Later reps reuse (and fragment) the first one's heap, so the peak of
    // a fresh process running one cluster is the repeatable figure.
    values["peak_rss_mb"] = reps.front().peak_rss_mb;
    defs = EndToEndMetrics();
  }
  std::printf("\n");
  for (const MetricDef& def : defs) {
    out.metrics.push_back({def, values[def.name]});
    if (!traced_binary) {
      std::printf("%-16s %14.4f %s\n", def.name.c_str(), values[def.name],
                  def.unit);
    }
  }
  std::printf("reps=%zu setups=%zu wall=%.1f s\n", reps.size(),
              setup_units.size(), elapsed_s());
  PrintJson(out);
  return out.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: replibench --workload <name> [--seed N] [--seconds S] "
               "[--reps N] [--smoke] [--inject-divergence] "
               "[--require-layers]\n"
               "       replibench --list\n");
  return 2;
}

void PrintList() {
  for (const Workload& w : Workloads()) std::printf("workload %s\n", w.name);
  for (const MetricDef& m : EndToEndMetrics()) {
    std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit);
  }
  for (const MetricDef& m : LayerMetrics()) {
    std::printf("per_layer %s %s\n", m.name.c_str(), m.unit);
  }
}

}  // namespace
}  // namespace replibench

int main(int argc, char** argv) {
  using replibench::Options;
  Options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--list") {
      replibench::PrintList();
      return 0;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--reps" && has_value) {
      opt.reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--inject-divergence") {
      opt.inject_divergence = true;
    } else if (arg == "--require-layers") {
      opt.require_layers = true;
    } else {
      return replibench::Usage();
    }
  }
  for (const replibench::Workload& w : replibench::Workloads()) {
    if (workload == w.name) opt.workload = &w;
  }
  if (opt.workload == nullptr) {
    std::fprintf(stderr, "replibench: unknown workload '%s'\n",
                 workload.c_str());
    return replibench::Usage();
  }
  return replibench::Run(opt);
}
