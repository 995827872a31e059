// C2 — §2.1: multi-master write saturation.
//
// "As every replica has to perform all updates, there is a point beyond
// which adding more replicas does not increase throughput, because every
// replica is saturated applying updates."
//
// We sweep replica count x write fraction under statement-mode
// multi-master and report total throughput. Reads scale; writes put a hard
// ceiling on the whole system.

#include <cstdio>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

void Run() {
  metrics::Banner("C2 / §2.1: multi-master saturation (statement mode)");
  BenchReport report("c2_multimaster_saturation");
  sim::Duration duration = (BenchShortMode() ? 3 : 10) * sim::kSecond;
  TablePrinter table({"write_pct", "1 replica", "2", "4", "8"});
  for (double wf : {0.05, 0.25, 0.5, 1.0}) {
    std::vector<std::string> row = {TablePrinter::Num(100 * wf, 0) + "%"};
    for (int replicas : {1, 2, 4, 8}) {
      workload::MicroWorkload::Options wo;
      wo.rows = 500;
      wo.write_fraction = wf;
      workload::MicroWorkload w(wo);
      ClusterOptions opts = BenchDefaults();
      opts.replicas = replicas;
      opts.controller.mode = middleware::ReplicationMode::kMultiMasterStatement;
      ResetCriticalPath();
      EnableCriticalPath(opts);
      auto c = MakeCluster(std::move(opts), &w);
      RunStats stats = RunClosedLoop(c.get(), &w, /*clients=*/128, duration);
      if (wf == 0.25 && replicas == 4) {
        // Headline configuration for the committed trajectory.
        report.FromStats(stats);
        report.CaptureCluster(*c, stats.committed);
        report.FromCriticalPath();
        // Saturation, attributed: the per-stage table shows where a
        // repeated-everywhere update spends its life (exec queue vs
        // ordered re-execution) in the headline configuration.
        PrintCriticalPath("critical path, 25% writes, 4 replicas");
      }
      row.push_back(TablePrinter::Num(stats.ThroughputTps(), 0));
    }
    table.AddRow(std::move(row));
  }
  table.Print("achieved tps vs replica count, by write fraction");
  std::printf(
      "\nExpected shape: at 5%% writes adding replicas helps; at 100%%\n"
      "writes the curve is flat or worse — every replica repeats every\n"
      "update, so \"the volume of update transactions remains the limiting\n"
      "performance factor\" (§2.1).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
