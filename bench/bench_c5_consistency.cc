// C5 — §3.3: the consistency spectrum.
//
// One workload, four cluster-level guarantees: eventual freshness,
// prefix-consistent session SI (read-your-writes), 1-copy strong SI, and
// 1-copy serializability (total-order statement execution + serializable
// local isolation). Stronger guarantees trade throughput and read latency
// for freshness; 1SR additionally pays engine-level table locking — the
// reason "much of today's research chooses snapshot isolation".

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::ConsistencyLevel;
using middleware::ReplicationMode;

struct Config {
  const char* label;
  ConsistencyLevel level;
  ReplicationMode mode;
  engine::IsolationLevel isolation;
};

RunStats RunConfig(const Config& cfg, BenchReport* report = nullptr) {
  workload::TicketBrokerWorkload::Options wo;
  wo.items = 800;
  wo.write_fraction = 0.10;
  workload::TicketBrokerWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.drivers = 8;  // Independent sessions: session guarantees differ.
  opts.controller.mode = cfg.mode;
  opts.controller.consistency = cfg.level;
  opts.engine.default_isolation = cfg.isolation;
  opts.driver.max_retries = 5;
  // Lazy propagation (150 ms shipping) is where the consistency spectrum
  // becomes visible: with eager apply all levels look alike.
  opts.replica.ship_interval = 150 * sim::kMillisecond;
  auto c = MakeCluster(std::move(opts), &w);

  std::vector<std::unique_ptr<workload::ClosedLoopGenerator>> gens;
  sim::TimePoint stop =
      c->sim.Now() + (BenchShortMode() ? 4 : 12) * sim::kSecond;
  for (int d = 0; d < 8; ++d) {
    gens.push_back(std::make_unique<workload::ClosedLoopGenerator>(
        &c->sim, c->driver(d), &w, /*clients=*/6, 0,
        static_cast<uint64_t>(100 + d)));
    gens.back()->Arm(stop);
  }
  c->sim.RunUntil(stop);
  c->sim.RunFor(5 * sim::kSecond);
  RunStats total;
  for (auto& g : gens) total.Merge(g->stats());
  if (report != nullptr) {
    report->FromStats(total);
    report->CaptureCluster(*c, total.committed);
  }
  return total;
}

void Run() {
  metrics::Banner("C5 / §3.3: consistency models (3 replicas, 10% writes, lazy 150ms shipping)");
  const Config configs[] = {
      {"eventual (loose freshness)", ConsistencyLevel::kEventual,
       ReplicationMode::kMasterSlaveAsync,
       engine::IsolationLevel::kSnapshot},
      {"session PCSI (Tashkent GSI)", ConsistencyLevel::kSessionPCSI,
       ReplicationMode::kMasterSlaveAsync,
       engine::IsolationLevel::kSnapshot},
      {"1-copy strong SI (Ganymed RSI-PC)", ConsistencyLevel::kStrongSI,
       ReplicationMode::kMasterSlaveAsync,
       engine::IsolationLevel::kSnapshot},
      {"certification SI (Postgres-R/Middle-R)", ConsistencyLevel::kSessionPCSI,
       ReplicationMode::kMultiMasterCertification,
       engine::IsolationLevel::kSnapshot},
      {"1SR (total order + serializable)",
       ConsistencyLevel::kOneCopySerializability,
       ReplicationMode::kMultiMasterStatement,
       engine::IsolationLevel::kSerializable},
  };
  BenchReport report("c5_consistency");
  TablePrinter table({"guarantee", "tps", "read_mean_ms", "read_p95_ms",
                      "stale_mean", "stale_max", "abort_pct"});
  for (const Config& cfg : configs) {
    // Session PCSI under async master-slave is the headline configuration.
    RunStats s = RunConfig(
        cfg, cfg.level == ConsistencyLevel::kSessionPCSI &&
                     cfg.mode == ReplicationMode::kMasterSlaveAsync
                 ? &report
                 : nullptr);
    table.AddRow({cfg.label, TablePrinter::Num(s.ThroughputTps(), 0),
                  TablePrinter::Num(s.read_latency_ms.Mean(), 2),
                  TablePrinter::Num(s.read_latency_ms.Percentile(95), 2),
                  TablePrinter::Num(s.staleness.Mean(), 2),
                  TablePrinter::Num(s.staleness.Max(), 0),
                  TablePrinter::Num(100.0 * s.AbortRate(), 2)});
  }
  table.Print("throughput / freshness / aborts per guarantee");
  std::printf(
      "\nExpected shape: eventual reads are fast but stale; session PCSI\n"
      "pays only when a session chases its own writes; strong SI gates\n"
      "every read on full freshness; 1SR costs the most throughput —\n"
      "which is why SI \"attracts substantial attention\" (§3.3, §5.1).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
