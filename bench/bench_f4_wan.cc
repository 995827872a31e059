// F4 — Figure 4 (§2.2): worldwide multi-way master/slave replication.
//
// Three sites (EU, US, Asia). Each site is master for its own geographic
// data partition; each partition keeps a disaster-recovery replica at the
// next site, fed asynchronously over the WAN. Reported: local commit
// latency, the cost of synchronous cross-site commit (why nobody does it),
// DR-copy lag, and the loss window when a whole site is wiped out.

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

constexpr const char* kSiteNames[] = {"EU", "US", "Asia"};

struct WanDeployment {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  // Per site: [0] local master, [1] local slave, [2] remote DR replica.
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  std::vector<std::unique_ptr<Controller>> controllers;
  std::vector<std::unique_ptr<client::Driver>> drivers;
};

sim::Duration LoadDuration() {
  return (BenchShortMode() ? 3 : 10) * sim::kSecond;
}

std::unique_ptr<WanDeployment> Build(workload::Workload* w,
                                     ReplicationMode mode,
                                     bool use_codec = true) {
  // Fresh per-deployment attribution (no Cluster here, so the bench_util
  // EnableCriticalPath(ClusterOptions) helper doesn't apply).
  ResetCriticalPath();
  auto& cp = obs::CriticalPathCollector::Global();
  cp.Enable();
  cp.SetMode(middleware::ReplicationModeName(mode));
  auto d = std::make_unique<WanDeployment>();
  net::NetworkOptions nopts;  // Defaults: 50 ms WAN one-way, 0.2 ms LAN.
  d->network = std::make_unique<net::Network>(&d->sim, nopts);
  ClusterOptions defaults = BenchDefaults();
  defaults.replica.ship.use_codec = use_codec;
  defaults.controller.ship.use_codec = use_codec;
  for (int s = 0; s < 3; ++s) {
    std::vector<ReplicaNode*> members;
    for (int r = 0; r < 3; ++r) {
      engine::RdbmsOptions eopts = defaults.engine;
      eopts.name = std::string(kSiteNames[s]) + "-r" + std::to_string(r);
      eopts.physical_seed = static_cast<uint64_t>(s * 10 + r + 1);
      // Replica 2 is the DR copy, hosted at the *next* site.
      net::SiteId site = (r == 2) ? (s + 1) % 3 : s;
      auto node = std::make_unique<ReplicaNode>(
          &d->sim, d->network.get(), s * 10 + r + 1, eopts, defaults.replica,
          site);
      for (const std::string& stmt : w->SetupStatements()) node->AdminExec(stmt);
      members.push_back(node.get());
      d->replicas.push_back(std::move(node));
    }
    ControllerOptions copts = defaults.controller;
    copts.mode = mode;
    copts.sync_ack_count = 2;  // Sync mode must reach the remote DR copy.
    copts.heartbeat.period = sim::kSecond;
    copts.heartbeat.timeout = 900 * sim::kMillisecond;
    copts.request_timeout = 5 * sim::kSecond;
    auto controller = std::make_unique<Controller>(
        &d->sim, d->network.get(), 100 + s, members, copts, /*site=*/s);
    controller->Start();
    d->controllers.push_back(std::move(controller));
    d->drivers.push_back(std::make_unique<client::Driver>(
        &d->sim, d->network.get(), 200 + s,
        std::vector<net::NodeId>{100 + s}, client::DriverOptions{}, s));
  }
  d->sim.RunFor(2 * sim::kSecond);
  return d;
}

// --- F4(c): wire-codec ablation ---------------------------------------------

struct CodecRunResult {
  uint64_t wire_bytes = 0;      ///< ship.wire.bytes_total (on-wire, encoded).
  uint64_t raw_bytes = 0;       ///< ship.wire.raw_bytes_total (struct size).
  uint64_t network_bytes = 0;   ///< All bytes the simulated network moved.
  uint64_t peak_dr_lag = 0;
};

CodecRunResult RunCodecMode(bool use_codec) {
  obs::MetricsRegistry::Global().Reset();
  workload::TicketBrokerWorkload w;
  auto d = Build(&w, ReplicationMode::kMasterSlaveAsync, use_codec);
  ReplicaNode* eu_master = d->replicas[0].get();
  ReplicaNode* eu_dr = d->replicas[2].get();
  CodecRunResult out;
  sim::PeriodicTask lag_sampler(&d->sim, 100 * sim::kMillisecond, [&] {
    uint64_t m = eu_master->applied_version();
    uint64_t s = eu_dr->applied_version();
    if (m > s) out.peak_dr_lag = std::max(out.peak_dr_lag, m - s);
  });
  lag_sampler.Start();
  workload::OpenLoopGenerator gen(&d->sim, d->drivers[0].get(), &w,
                                  /*rate_tps=*/400, 13);
  gen.Run(LoadDuration());
  lag_sampler.Stop();
  auto& reg = obs::MetricsRegistry::Global();
  if (const auto* c = reg.FindCounter("ship.wire.bytes_total")) {
    out.wire_bytes = c->value();
  }
  if (const auto* c = reg.FindCounter("ship.wire.raw_bytes_total")) {
    out.raw_bytes = c->value();
  }
  out.network_bytes = d->network->bytes_delivered();
  return out;
}

void RunCodecAblation(BenchReport* report) {
  metrics::Banner("F4(c): wire codec on the WAN ship path");
  TablePrinter table({"codec", "ship_wire_MB", "ship_raw_MB", "compression",
                      "network_MB_total", "peak_DR_lag"});
  for (bool use_codec : {false, true}) {
    CodecRunResult r = RunCodecMode(use_codec);
    double ratio = r.wire_bytes > 0
                       ? static_cast<double>(r.raw_bytes) /
                             static_cast<double>(r.wire_bytes)
                       : 0.0;
    if (use_codec) {
      report->Set("codec_compression", ratio);
      report->Set("ship_wire_mb", static_cast<double>(r.wire_bytes) / 1e6);
    }
    table.AddRow({use_codec ? "on" : "off",
                  TablePrinter::Num(static_cast<double>(r.wire_bytes) / 1e6, 2),
                  TablePrinter::Num(static_cast<double>(r.raw_bytes) / 1e6, 2),
                  TablePrinter::Num(ratio, 2),
                  TablePrinter::Num(static_cast<double>(r.network_bytes) / 1e6,
                                    2),
                  TablePrinter::Int(static_cast<int64_t>(r.peak_dr_lag))});
  }
  table.Print("same 400 tps EU workload; codec off charges the raw struct "
              "size on the wire");
  std::printf(
      "\nExpected shape: the codec's dictionary + delta encoding shrinks\n"
      "the replication stream severalfold, which is exactly the bytes the\n"
      "50 ms / 100 Mbps WAN link to the DR copy has to carry (§4.3.4.1).\n");
}

void Run() {
  metrics::Banner("F4 / Figure 4: 3-site WAN multi-way master/slave");
  BenchReport report("f4_wan");

  // --- Local vs cross-site commit latency -----------------------------------
  TablePrinter lat({"commit mode", "write_mean_ms", "write_p99_ms"});
  for (ReplicationMode mode : {ReplicationMode::kMasterSlaveAsync,
                               ReplicationMode::kMasterSlaveSync}) {
    workload::TicketBrokerWorkload w;
    auto d = Build(&w, mode);
    workload::ClosedLoopGenerator gen(&d->sim, d->drivers[0].get(), &w,
                                      /*clients=*/16, 0, 11);
    gen.Run(LoadDuration());
    const RunStats& stats = gen.stats();
    if (mode == ReplicationMode::kMasterSlaveAsync) {
      // Async local commit with a WAN DR copy is the headline.
      report.FromStats(stats);
      report.Set("sim_events", static_cast<double>(d->sim.events_executed()));
      report.FromCriticalPath();
      // Apply chains to the US-hosted DR copy should be net_transit-heavy
      // (the 50 ms WAN hop), while client chains stay local.
      PrintCriticalPath("critical path, async 1-safe commit");
    } else {
      PrintCriticalPath("critical path, sync 2-safe commit (WAN ack)");
    }
    lat.AddRow({mode == ReplicationMode::kMasterSlaveAsync
                    ? "async to DR copy (1-safe)"
                    : "sync incl. remote DR copy (2-safe x2)",
                TablePrinter::Num(stats.write_latency_ms.Mean(), 2),
                TablePrinter::Num(stats.write_latency_ms.Percentile(99), 2)});
  }
  lat.Print("EU-site commit latency: async vs synchronous WAN replication");
  std::printf(
      "\nThe WAN round trip makes synchronous replication two orders of\n"
      "magnitude slower: \"asynchronous replication is preferred over long\n"
      "distance links\" (§4.3.4.1).\n");

  // --- DR lag and site disaster -----------------------------------------------
  workload::TicketBrokerWorkload w;
  auto d = Build(&w, ReplicationMode::kMasterSlaveAsync);
  ReplicaNode* eu_master = d->replicas[0].get();
  ReplicaNode* eu_dr = d->replicas[2].get();  // Hosted in the US.
  uint64_t max_lag = 0;
  sim::PeriodicTask lag_sampler(&d->sim, 100 * sim::kMillisecond, [&] {
    uint64_t m = eu_master->applied_version();
    uint64_t s = eu_dr->applied_version();
    if (m > s) max_lag = std::max(max_lag, m - s);
  });
  lag_sampler.Start();
  workload::OpenLoopGenerator gen(&d->sim, d->drivers[0].get(), &w,
                                  /*rate_tps=*/400, 13);
  gen.Run(LoadDuration());
  lag_sampler.Stop();
  TablePrinter dr({"metric", "value"});
  dr.AddRow({"EU committed versions",
             TablePrinter::Int(static_cast<int64_t>(eu_master->applied_version()))});
  dr.AddRow({"DR copy (US) applied",
             TablePrinter::Int(static_cast<int64_t>(eu_dr->applied_version()))});
  dr.AddRow({"peak DR lag under load (versions)",
             TablePrinter::Int(static_cast<int64_t>(max_lag))});
  report.Lag(static_cast<double>(max_lag),
             static_cast<double>(
                 eu_master->applied_version() > eu_dr->applied_version()
                     ? eu_master->applied_version() - eu_dr->applied_version()
                     : 0));

  // Site disaster: both EU-local nodes vanish (earthquake/flood, §2.2).
  d->replicas[0]->Crash();
  d->replicas[1]->Crash();
  d->sim.RunFor(10 * sim::kSecond);
  dr.AddRow({"post-disaster master (node id)",
             TablePrinter::Int(d->controllers[0]->master())});
  dr.AddRow({"transactions lost at disaster",
             TablePrinter::Int(static_cast<int64_t>(
                 d->controllers[0]->stats().lost_transactions))});
  // Writes for EU data continue against the US-hosted copy.
  bool resumed = false;
  middleware::TxnRequest probe;
  probe.read_only = false;
  probe.statements = {"UPDATE inventory SET stock = stock - 1 WHERE item = 1"};
  d->drivers[0]->Submit(probe, [&](const middleware::TxnResult& r) {
    resumed = r.status.ok();
  });
  d->sim.RunFor(10 * sim::kSecond);
  dr.AddRow({"EU-data writes resumed on US copy", resumed ? "yes" : "no"});
  dr.Print("disaster recovery via the cross-site replica");

  RunCodecAblation(&report);
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
