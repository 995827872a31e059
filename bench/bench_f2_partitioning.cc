// F2 — Figure 2 (§2.1): data partitioning for write scalability.
//
// Write-heavy orders workload split across P partitions, each served by its
// own 2-replica master-slave group; the client driver routes by partition
// key. The paper's RAID-0 analogy: updates proceed in parallel on
// partitioned segments, so write throughput scales with partitions — unlike
// full replication, where every replica repeats every write.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::Controller;
using middleware::ControllerOptions;
using middleware::ReplicaNode;
using middleware::ReplicationMode;

struct PartitionedDeployment {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  std::vector<std::unique_ptr<Controller>> controllers;
  std::unique_ptr<client::Driver> driver;
};

std::unique_ptr<PartitionedDeployment> Build(int partitions,
                                             int replicas_per_partition,
                                             workload::Workload* w) {
  auto d = std::make_unique<PartitionedDeployment>();
  d->network = std::make_unique<net::Network>(&d->sim, net::NetworkOptions{});
  ClusterOptions defaults = BenchDefaults();
  std::vector<net::NodeId> controller_ids;
  for (int p = 0; p < partitions; ++p) {
    std::vector<ReplicaNode*> members;
    for (int r = 0; r < replicas_per_partition; ++r) {
      engine::RdbmsOptions eopts = defaults.engine;
      eopts.name = "p" + std::to_string(p) + "-r" + std::to_string(r);
      eopts.physical_seed = static_cast<uint64_t>(p * 100 + r + 1);
      auto node = std::make_unique<ReplicaNode>(
          &d->sim, d->network.get(), p * 10 + r + 1, eopts, defaults.replica);
      for (const std::string& stmt : w->SetupStatements()) {
        node->AdminExec(stmt);
      }
      members.push_back(node.get());
      d->replicas.push_back(std::move(node));
    }
    ControllerOptions copts = defaults.controller;
    copts.mode = ReplicationMode::kMasterSlaveAsync;
    copts.consistency = middleware::ConsistencyLevel::kSessionPCSI;
    auto controller = std::make_unique<Controller>(
        &d->sim, d->network.get(), 100 + p, members, copts);
    controller->Start();
    controller_ids.push_back(controller->id());
    d->controllers.push_back(std::move(controller));
  }
  d->driver = std::make_unique<client::Driver>(&d->sim, d->network.get(), 200,
                                               controller_ids);
  d->sim.RunFor(sim::kSecond);
  return d;
}

void Run() {
  metrics::Banner(
      "F2 / Figure 2: partitioning for write throughput (50% writes)");
  BenchReport report("f2_partitioning");
  TablePrinter table({"partitions", "total_replicas", "tps", "write_tps",
                      "mean_ms", "speedup"});
  double base_tps = 0;
  for (int partitions : {1, 2, 3, 4}) {
    workload::PartitionedOrdersWorkload w;
    auto d = Build(partitions, /*replicas_per_partition=*/2, &w);
    workload::ClosedLoopGenerator gen(&d->sim, d->driver.get(), &w,
                                      /*clients=*/96, 0, /*seed=*/3);
    gen.Run((BenchShortMode() ? 4 : 12) * sim::kSecond);
    const RunStats& stats = gen.stats();
    double tps = stats.ThroughputTps();
    if (base_tps == 0) base_tps = tps;
    if (partitions == 4) {
      // Widest partitioned deployment is the headline configuration.
      report.FromStats(stats);
      report.Set("speedup_vs_1", tps / base_tps);
      report.Set("sim_events", static_cast<double>(d->sim.events_executed()));
    }
    double write_tps = static_cast<double>(stats.write_latency_ms.count()) /
                       sim::ToSeconds(stats.elapsed);
    table.AddRow({TablePrinter::Int(partitions),
                  TablePrinter::Int(partitions * 2), TablePrinter::Num(tps, 0),
                  TablePrinter::Num(write_tps, 0),
                  TablePrinter::Num(stats.latency_ms.Mean(), 2),
                  TablePrinter::Num(tps / base_tps, 2)});
  }
  table.Print("write throughput vs partition count");

  // Contrast: the same hardware as one fully-replicated statement-mode
  // cluster — every replica repeats every write (no write scaling).
  workload::PartitionedOrdersWorkload w;
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 8;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  auto c = MakeCluster(std::move(opts), &w);
  RunStats stats = RunClosedLoop(c.get(), &w, 96,
                                 (BenchShortMode() ? 4 : 12) * sim::kSecond);
  report.Set("full_replication_tps", stats.ThroughputTps());
  std::printf(
      "\nContrast: 8 fully-replicated statement-mode replicas reach %.0f tps\n"
      "on the same workload — partitioning, not replication, buys write\n"
      "scalability (Figure 2's point).\n",
      stats.ThroughputTps());
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
