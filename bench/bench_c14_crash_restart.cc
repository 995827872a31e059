// C14 — §4.4.2: crash-restart recovery from the durable binlog vs full
// resync provisioning.
//
// A slave is killed mid-apply under write load. With a durable segmented
// binlog it restarts by restoring its latest local checkpoint, replaying
// the log tail, and fetching only the versions it missed while down
// ("checkpoint + tail"). Without durable state (disk lost, or no binlog)
// the rejoiner is below the recovery log's truncation floor and must be
// re-provisioned with a full database image — the "hours of dump/restore"
// the paper warns about. The bench measures both recovery time and the
// network bytes each path ships.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "faults/fault_injector.h"

namespace replidb::bench {
namespace {

struct CrashRestartResult {
  double recovery_s = -1;       ///< restart -> caught up to head (-1: never).
  uint64_t provision_bytes = 0; ///< network bytes shipped during recovery.
  uint64_t local_replayed = 0;  ///< entries replayed from the local binlog.
  double local_replay_ms = 0;   ///< modeled cost of the local replay.
  uint64_t recoveries = 0;
  uint64_t binlog_segments = 0;
  uint64_t binlog_bytes = 0;
  uint64_t checkpoint_version = 0;
  uint64_t behind_at_restart = 0;
  bool converged = false;
};

CrashRestartResult RunOnce(bool durable, BenchReport* report = nullptr) {
  obs::MetricsRegistry::Global().Reset();
  workload::MicroWorkload::Options wo;
  // A database big enough that re-provisioning a full image visibly
  // dwarfs shipping the missed tail (the paper's dump/restore pain is a
  // function of database size, not outage length).
  wo.rows = 30000;
  wo.write_fraction = 1.0;
  workload::MicroWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * sim::kMillisecond;
  opts.controller.heartbeat.timeout = 200 * sim::kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  if (durable) {
    opts.replica.binlog.durable = true;
    opts.replica.binlog.checkpoint_every = 256;
  } else {
    // The contrast case: the crash takes the disk with it, so nothing
    // survives locally and provisioning must start from an image.
    opts.replica.lose_data_on_crash = true;
  }
  auto c = MakeCluster(std::move(opts), &w);

  // Warm traffic, then arm a kill-mid-apply on replica 2: the injector
  // crashes it the instant its engine has applied the target version,
  // i.e. inside the apply loop rather than at a quiescent boundary.
  RunStats warm = RunOpenLoop(c.get(), &w, /*rate_tps=*/600,
                              (BenchShortMode() ? 3 : 8) * sim::kSecond, 31);
  faults::FaultInjector injector(&c->sim);
  injector.KillAfterApply(c->replica(2),
                          c->controller->global_version() + 50);
  RunStats during = RunOpenLoop(c.get(), &w, /*rate_tps=*/600,
                                (BenchShortMode() ? 2 : 5) * sim::kSecond, 32);
  (void)during;

  CrashRestartResult out;
  if (!c->replica(2)->crashed()) {
    std::fprintf(stderr, "bench_c14: kill-mid-apply never fired\n");
    return out;
  }
  // Quiet window so the survivors drain, then restart and measure the
  // recovery from a stable head.
  c->sim.RunFor(sim::kSecond);
  uint64_t head = c->controller->global_version();
  // What survived locally: the persisted apply watermark (zero when the
  // crash took the disk). Everything above it must come over the wire.
  out.behind_at_restart = head - c->replica(2)->persisted_watermark();
  uint64_t bytes_before = c->network->bytes_delivered();
  sim::TimePoint restart_at = c->sim.Now();
  c->replica(2)->Restart();

  sim::TimePoint deadline =
      c->sim.Now() + (BenchShortMode() ? 15 : 45) * sim::kSecond;
  while (c->sim.Now() < deadline) {
    c->sim.RunFor(100 * sim::kMillisecond);
    if (c->replica(2)->applied_version() >= head) break;
  }
  if (c->replica(2)->applied_version() >= head) {
    out.recovery_s = sim::ToSeconds(c->sim.Now() - restart_at);
  }
  // Bytes shipped to re-provision: recovery-log tail entries for the
  // durable path, a full backup image + tail for the re-clone path.
  // (Heartbeat chatter during the window is included but is identical
  // noise across both scenarios.)
  out.provision_bytes = c->network->bytes_delivered() - bytes_before;
  out.local_replayed = c->replica(2)->last_recovery_replayed();
  out.local_replay_ms =
      static_cast<double>(c->replica(2)->last_recovery_duration()) / 1e3;
  out.recoveries = static_cast<uint64_t>(c->replica(2)->recoveries());
  binlog::BinlogStats bl = c->replica(2)->DurableLogStats();
  out.binlog_segments = bl.segments;
  out.binlog_bytes = static_cast<uint64_t>(bl.total_bytes);
  out.checkpoint_version = bl.checkpoint_version;
  c->sim.RunFor(2 * sim::kSecond);
  out.converged = c->Converged();
  if (report != nullptr) {
    report->FromStats(warm, "steady.");
    report->CaptureCluster(*c, warm.committed);
  }
  return out;
}

void Run() {
  metrics::Banner(
      "C14 / §4.4.2: crash-restart — binlog checkpoint+tail vs full resync");
  BenchReport report("c14_crash_restart");
  TablePrinter table({"scenario", "behind", "local_replay", "replay_ms",
                      "recovery_s", "provision_bytes", "binlog_segs",
                      "checkpoint_v", "converged"});
  CrashRestartResult durable = RunOnce(/*durable=*/true, &report);
  CrashRestartResult resync = RunOnce(/*durable=*/false);
  auto row = [&](const std::string& name, const CrashRestartResult& r) {
    table.AddRow(
        {name, TablePrinter::Int(static_cast<int64_t>(r.behind_at_restart)),
         TablePrinter::Int(static_cast<int64_t>(r.local_replayed)),
         TablePrinter::Num(r.local_replay_ms, 1),
         r.recovery_s < 0 ? "never" : TablePrinter::Num(r.recovery_s, 2),
         TablePrinter::Int(static_cast<int64_t>(r.provision_bytes)),
         TablePrinter::Int(static_cast<int64_t>(r.binlog_segments)),
         TablePrinter::Int(static_cast<int64_t>(r.checkpoint_version)),
         r.converged ? "yes" : "no"});
  };
  row("binlog (checkpoint+tail)", durable);
  row("full resync (disk lost)", resync);
  table.Print("kill-mid-apply, restart after survivors drain");
  double ratio =
      durable.provision_bytes > 0
          ? static_cast<double>(resync.provision_bytes) /
                static_cast<double>(durable.provision_bytes)
          : 0.0;
  std::printf(
      "\nprovisioning: full resync ships %.1fx the bytes of checkpoint+tail\n"
      "Expected shape: the durable binlog turns rejoin into a local replay\n"
      "plus a short missed-version tail; losing the disk forces a full\n"
      "image transfer (\"hours of dump/restore\", §4.4.2).\n",
      ratio);
  report.Set("durable.recovery_s", durable.recovery_s);
  report.Set("durable.provision_bytes",
             static_cast<double>(durable.provision_bytes));
  report.Set("durable.local_replayed",
             static_cast<double>(durable.local_replayed));
  report.Set("durable.converged", durable.converged ? 1.0 : 0.0);
  report.Set("resync.recovery_s", resync.recovery_s);
  report.Set("resync.provision_bytes",
             static_cast<double>(resync.provision_bytes));
  report.Set("resync.converged", resync.converged ? 1.0 : 0.0);
  report.Set("provision_ratio", ratio);
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
