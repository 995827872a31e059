// C8 — §4.4.2: resynchronizing a rejoining replica from the recovery log.
//
// A slave leaves for maintenance; the cluster keeps committing; the slave
// rejoins and replays the Sequoia-style recovery log from its checkpoint
// while NEW traffic keeps arriving. With serial replay the paper warns "a
// new replica may never catch up if the workload is update-heavy" —
// parallel replay (extracting parallelism from the log) is the fix.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

struct RecoveryResult {
  uint64_t backlog_entries = 0;
  double catch_up_seconds = -1;  ///< -1 = did not catch up in the window.
  uint64_t final_lag = 0;
  bool converged = false;
  uint64_t resyncs_started = 0;
  uint64_t resyncs_completed = 0;
};

RecoveryResult RunOnce(int apply_workers, double ongoing_write_tps,
                       BenchReport* report = nullptr) {
  // Clean registry per configuration so the per-stage breakdown and
  // resync counters describe exactly this run.
  obs::MetricsRegistry::Global().Reset();
  workload::MicroWorkload::Options wo;
  wo.rows = 3000;
  wo.write_fraction = 1.0;
  workload::MicroWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * sim::kMillisecond;
  opts.controller.heartbeat.timeout = 200 * sim::kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  opts.replica.apply_workers = apply_workers;
  // Replayed entries cost real apply work (log-structured, fsync-bound).
  opts.replica.apply_base_us = 1500;
  opts.replica.apply_per_op_us = 100;
  auto c = MakeCluster(std::move(opts), &w);

  // Take replica 3 down for "maintenance" and build a backlog.
  c->replica(2)->Crash();
  c->sim.RunFor(2 * sim::kSecond);
  RunStats build = RunOpenLoop(c.get(), &w, /*rate_tps=*/800,
                               (BenchShortMode() ? 5 : 15) * sim::kSecond, 21);
  (void)build;
  RecoveryResult out;
  out.backlog_entries = c->controller->global_version() -
                        c->replica(2)->applied_version();

  // Rejoin under continuing write load.
  c->replica(2)->Restart();
  sim::TimePoint rejoin_at = c->sim.Now();
  workload::OpenLoopGenerator ongoing(&c->sim, c->driver(), &w,
                                      ongoing_write_tps, 22);
  sim::TimePoint caught_up = -1;
  sim::PeriodicTask watcher(&c->sim, 250 * sim::kMillisecond, [&] {
    // Catch-up means reaching the LIVE head, not a snapshot of it: under
    // continuing writes a slow replayer chases a moving target.
    uint64_t head = c->controller->global_version();
    uint64_t applied = c->replica(2)->applied_version();
    if (caught_up < 0 && head > 0 && applied + 2 >= head) {
      caught_up = c->sim.Now();
    }
  });
  watcher.Start();
  ongoing.Run((BenchShortMode() ? 20 : 60) * sim::kSecond);
  watcher.Stop();
  if (caught_up >= 0) {
    out.catch_up_seconds = sim::ToSeconds(caught_up - rejoin_at);
  }
  uint64_t head = c->controller->global_version();
  uint64_t applied = c->replica(2)->applied_version();
  out.final_lag = head > applied ? head - applied : 0;
  c->sim.RunFor(2 * sim::kSecond);
  out.converged = c->Converged();
  auto& registry = obs::MetricsRegistry::Global();
  if (const obs::Counter* ctr =
          registry.FindCounter("middleware.recovery.resyncs_started")) {
    out.resyncs_started = ctr->value();
  }
  if (const obs::Counter* ctr =
          registry.FindCounter("middleware.recovery.resyncs_completed")) {
    out.resyncs_completed = ctr->value();
  }
  if (report != nullptr) {
    report->FromStats(ongoing.stats());
    report->CaptureCluster(*c, ongoing.stats().committed);
    report->Set("backlog_entries", static_cast<double>(out.backlog_entries));
    report->Set("catch_up_s", out.catch_up_seconds);
    report->Lag(static_cast<double>(out.backlog_entries),
                static_cast<double>(out.final_lag));
  }
  return out;
}

void Run() {
  metrics::Banner("C8 / §4.4.2: recovery-log replay, rejoin under load");
  BenchReport report("c8_recovery");
  TablePrinter table({"replay_workers", "ongoing_write_tps", "backlog",
                      "catch_up_s", "lag_after_60s", "converged", "resyncs"});
  for (int workers : {1, 2, 4, 8}) {
    for (double ongoing : {300.0, 900.0}) {
      // Parallel replay under heavy ongoing writes is the headline.
      RecoveryResult r = RunOnce(
          workers, ongoing,
          workers == 4 && ongoing == 900.0 ? &report : nullptr);
      table.AddRow(
          {TablePrinter::Int(workers), TablePrinter::Num(ongoing, 0),
           TablePrinter::Int(static_cast<int64_t>(r.backlog_entries)),
           r.catch_up_seconds < 0 ? "never (60s)"
                                  : TablePrinter::Num(r.catch_up_seconds, 1),
           TablePrinter::Int(static_cast<int64_t>(r.final_lag)),
           r.converged ? "yes" : "no",
           TablePrinter::Int(static_cast<int64_t>(r.resyncs_completed)) + "/" +
               TablePrinter::Int(static_cast<int64_t>(r.resyncs_started))});
      PrintStageBreakdown("per-stage breakdown, replay_workers=" +
                              std::to_string(workers) + " ongoing_tps=" +
                              TablePrinter::Num(ongoing, 0),
                          DefaultStages());
    }
  }
  table.Print("15s outage backlog, then rejoin while writes continue");
  std::printf(
      "\nExpected shape: serial replay cannot outrun an update-heavy\n"
      "workload (\"a new replica may never catch up\"); extracting\n"
      "parallelism from the log shrinks catch-up time (§4.4.2).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
