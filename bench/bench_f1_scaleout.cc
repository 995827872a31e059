// F1 — Figure 1 (§2.1): master-slave scale-out.
//
// Read-mostly workload (ticket broker, 95 % reads) against 1..8 replicas
// under asynchronous master-slave replication. The paper's claim: "as long
// as the master node can handle all updates, the system can scale linearly
// by merely adding more slave nodes."

#include <cstdio>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

void Run() {
  metrics::Banner(
      "F1 / Figure 1: master-slave read scale-out (95% read ticket broker)");
  BenchReport report("f1_scaleout");
  TablePrinter table({"replicas", "tps", "read_tps", "mean_ms", "p99_ms",
                      "speedup", "efficiency_pct"});
  double base_tps = 0;
  for (int replicas : {1, 2, 3, 4, 6, 8}) {
    workload::TicketBrokerWorkload::Options wo;
    wo.items = 500;
    workload::TicketBrokerWorkload w(wo);
    ClusterOptions opts = BenchDefaults();
    opts.replicas = replicas;
    opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
    opts.controller.consistency = middleware::ConsistencyLevel::kEventual;
    auto c = MakeCluster(std::move(opts), &w);
    RunStats stats = RunClosedLoop(c.get(), &w, /*clients=*/192,
                                   (BenchShortMode() ? 3 : 10) * sim::kSecond);
    double tps = stats.ThroughputTps();
    if (base_tps == 0) base_tps = tps;
    if (replicas == 4) {
      // The mid-curve scale-out point is the headline configuration.
      report.FromStats(stats);
      report.CaptureCluster(*c, stats.committed);
      report.Set("speedup_vs_1", tps / base_tps);
    }
    double read_tps =
        static_cast<double>(stats.read_latency_ms.count()) /
        sim::ToSeconds(stats.elapsed);
    table.AddRow({TablePrinter::Int(replicas), TablePrinter::Num(tps, 0),
                  TablePrinter::Num(read_tps, 0),
                  TablePrinter::Num(stats.latency_ms.Mean(), 2),
                  TablePrinter::Num(stats.latency_ms.Percentile(99), 2),
                  TablePrinter::Num(tps / base_tps, 2),
                  TablePrinter::Num(100.0 * tps / base_tps / replicas, 0)});
  }
  table.Print("throughput vs replica count (closed loop, 192 clients)");
  std::printf(
      "\nExpected shape: linear read scaling UNTIL the single master\n"
      "saturates on the 5%% write stream (~1000 write txns/s on its 4\n"
      "workers) — beyond that point extra slaves stop helping, exactly\n"
      "Figure 1's caveat: \"as long as the master node can handle all\n"
      "updates\".\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
