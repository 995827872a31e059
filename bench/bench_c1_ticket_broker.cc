// C1 — §1: the Fortune-500 travel-broker case.
//
// 95 % reads, 5 % writes, but absolute write volume is high. The paper:
// "a system using 2-phase-commit, or any other form of synchronous
// replication, would fail to meet customer performance requirements (thus
// confirming Gray's prediction)". We sweep offered load across replication
// strategies and watch who keeps up.

#include <cstdio>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::ReplicationMode;

void Run() {
  metrics::Banner("C1 / §1: ticket broker (95/5) — async vs synchronous");
  BenchReport report("c1_ticket_broker");
  sim::Duration duration = (BenchShortMode() ? 3 : 10) * sim::kSecond;
  struct Mode {
    const char* label;
    ReplicationMode mode;
  };
  const Mode modes[] = {
      {"master-slave 1-safe async", ReplicationMode::kMasterSlaveAsync},
      {"master-slave 2-safe sync", ReplicationMode::kMasterSlaveSync},
      {"multi-master statement", ReplicationMode::kMultiMasterStatement},
      {"multi-master certification", ReplicationMode::kMultiMasterCertification},
  };
  TablePrinter table({"mode", "offered_tps", "achieved_tps", "write_mean_ms",
                      "write_p99_ms", "failed_pct"});
  for (const Mode& m : modes) {
    for (double offered : {1000.0, 3000.0, 6000.0}) {
      workload::TicketBrokerWorkload w;
      ClusterOptions opts = BenchDefaults();
      opts.replicas = 4;
      opts.controller.mode = m.mode;
      opts.driver.max_retries = 2;
      opts.driver.request_timeout = 2 * sim::kSecond;
      auto c = MakeCluster(std::move(opts), &w);
      RunStats stats = RunOpenLoop(c.get(), &w, offered, duration);
      if (m.mode == ReplicationMode::kMasterSlaveAsync && offered == 3000.0) {
        // Headline configuration for the committed trajectory.
        report.FromStats(stats);
        report.CaptureCluster(*c, stats.committed);
      }
      table.AddRow({m.label, TablePrinter::Num(offered, 0),
                    TablePrinter::Num(stats.ThroughputTps(), 0),
                    TablePrinter::Num(stats.write_latency_ms.Mean(), 2),
                    TablePrinter::Num(stats.write_latency_ms.Percentile(99), 2),
                    TablePrinter::Num(100.0 * stats.AbortRate(), 2)});
    }
  }
  table.Print("offered vs achieved load per replication strategy (4 replicas)");
  std::printf(
      "\nExpected shape: async master-slave rides the read scale-out and\n"
      "keeps write latency flat; statement-mode pays every write on every\n"
      "replica and saturates first; certification adds a round trip per\n"
      "write; 2-safe adds the slave ack to every commit (§1, §2.1).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
