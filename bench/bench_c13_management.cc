// C13 — §4.4.1 / §4.4.2: management operations under load.
//
// (a) Online (hot) backup: what it does to query latency on the donor and
//     on the cluster while it runs.
// (b) Adding a replica online: clone from a donor, replay the recovery-log
//     tail, go live — service continues, at a measurable cost.
// (c) The metadata trap: a data-only backup restores a replica that
//     rejects every application user (§4.1.5).

#include <cstdio>

#include "bench/bench_util.h"
#include "client/connection_pool.h"

namespace replidb::bench {
namespace {

using middleware::ReplicationMode;

void OnlineBackup() {
  workload::TicketBrokerWorkload::Options wo;
  wo.items = 4000;  // Big enough that the dump takes a while.
  workload::TicketBrokerWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.capacity = 2;                   // Small box.
  opts.replica.backup_bytes_per_sec = 0.04e6;  // Slow dump device.
  // Round-robin: an adaptive balancer (LPRF) would quietly steer load off
  // the busy donor and mask the degradation we want to measure.
  opts.controller.load_balance = middleware::LoadBalancePolicy::kRoundRobin;
  auto c = MakeCluster(std::move(opts), &w);

  Histogram before, during, after;
  Rng rng(23);
  bool backup_running = false, backup_done = false;
  std::function<void()> arrivals = [&] {
    middleware::TxnRequest req = w.Next(&rng);
    c->driver()->Submit(std::move(req), [&](const middleware::TxnResult& r) {
      if (!r.status.ok()) return;
      (backup_done ? after : (backup_running ? during : before))
          .Add(sim::ToMillis(r.latency));
    });
    c->sim.Schedule(static_cast<sim::Duration>(rng.Exponential(500)),
                    arrivals);  // ~2000 tps: the donor runs hot.
  };
  arrivals();
  c->sim.RunFor(5 * sim::kSecond);
  sim::TimePoint backup_started = c->sim.Now();
  sim::TimePoint backup_finished = 0;
  backup_running = true;
  c->controller->StartBackup(2, engine::BackupOptions{},
                             [&](Result<engine::BackupImage> image) {
                               (void)image;
                               backup_running = false;
                               backup_done = true;
                               backup_finished = c->sim.Now();
                             });
  c->sim.RunFor(20 * sim::kSecond);
  c->sim.RunFor(5 * sim::kSecond);

  TablePrinter table({"phase", "mean_ms", "p99_ms"});
  table.AddRow({"before backup", TablePrinter::Num(before.Mean(), 2),
                TablePrinter::Num(before.Percentile(99), 2)});
  table.AddRow({"during backup", TablePrinter::Num(during.Mean(), 2),
                TablePrinter::Num(during.Percentile(99), 2)});
  table.AddRow({"after backup", TablePrinter::Num(after.Mean(), 2),
                TablePrinter::Num(after.Percentile(99), 2)});
  table.Print("(a) hot backup on a live replica: latency impact");
  if (backup_finished > 0) {
    std::printf("backup duration: %.1fs (service stayed up throughout)\n",
                sim::ToSeconds(backup_finished - backup_started));
  }
}

void AddReplicaOnline(BenchReport* report) {
  workload::TicketBrokerWorkload::Options wo;
  wo.items = 2000;
  workload::TicketBrokerWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.backup_bytes_per_sec = 0.2e6;  // Clone over a modest link.
  auto c = MakeCluster(std::move(opts), &w);

  workload::OpenLoopGenerator gen(&c->sim, c->driver(), &w, 800, 29);
  // Kick off the load, then add the replica mid-run.
  engine::RdbmsOptions eopts = c->options.engine;
  eopts.name = "replica-new";
  eopts.physical_seed = 4242;
  middleware::ReplicaNode fresh(&c->sim, c->network.get(), 50, eopts,
                                c->options.replica);
  sim::TimePoint added_at = 0, online_at = 0;
  c->sim.Schedule(4 * sim::kSecond, [&] {
    added_at = c->sim.Now();
    c->controller->AddReplica(&fresh, /*donor=*/2, [&](Status s) {
      if (s.ok()) online_at = c->sim.Now();
    });
  });
  gen.Run(20 * sim::kSecond);

  // Online replica addition is this scenario's headline operation.
  report->FromStats(gen.stats());
  report->CaptureCluster(*c, gen.stats().committed);
  if (online_at > 0) {
    report->Set("time_to_online_s", sim::ToSeconds(online_at - added_at));
  }

  TablePrinter table({"metric", "value"});
  table.AddRow({"cluster tps during the operation",
                TablePrinter::Num(gen.stats().ThroughputTps(), 0)});
  table.AddRow({"failed txns during the operation",
                TablePrinter::Int(static_cast<int64_t>(gen.stats().failed))});
  table.AddRow({"time to online (clone+restore+replay)",
                online_at > 0
                    ? TablePrinter::Num(sim::ToSeconds(online_at - added_at), 2) + " s"
                    : "did not finish"});
  table.AddRow({"new replica converged",
                fresh.engine()->ContentHash() ==
                        c->replica(0)->engine()->ContentHash()
                    ? "yes"
                    : "no"});
  table.Print("(b) adding a replica online (no downtime)");
}

void MetadataTrap() {
  // A replica cloned from a data-only backup loses the user catalog.
  engine::RdbmsOptions source_opts;
  source_opts.name = "prod";
  source_opts.enforce_authentication = true;
  engine::Rdbms prod(source_opts);
  prod.CreateUser("app_user");
  engine::SessionId s = prod.Connect("app_user").value();
  prod.Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
  prod.Execute(s, "INSERT INTO t VALUES (1)");
  prod.Disconnect(s);

  TablePrinter table({"backup options", "clone rows", "app_user can connect"});
  for (bool with_metadata : {false, true}) {
    engine::BackupOptions bo;
    bo.include_metadata = with_metadata;
    engine::BackupImage image = prod.Backup(bo).value();
    engine::RdbmsOptions clone_opts;
    clone_opts.name = "clone";
    clone_opts.enforce_authentication = true;
    engine::Rdbms clone(clone_opts);
    Status restored = clone.Restore(image);
    (void)restored;
    bool can_connect = clone.Connect("app_user").ok();
    table.AddRow({with_metadata ? "data + users/triggers (rare)"
                                : "data only (typical tool)",
                  TablePrinter::Int(
                      static_cast<int64_t>(clone.TableRowCount("main", "t"))),
                  can_connect ? "yes" : "NO - clone is unusable"});
  }
  table.Print("(c) the §4.1.5 trap: backups without user metadata");
}

void RollingUpgradeRun() {
  // §4.4.3: upgrade every replica's software one node at a time while
  // writes keep flowing.
  workload::MicroWorkload::Options wo;
  wo.rows = 300;
  wo.write_fraction = 0.5;
  workload::MicroWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * sim::kMillisecond;
  opts.controller.heartbeat.timeout = 200 * sim::kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  opts.driver.max_retries = 10;
  opts.driver.request_timeout = 500 * sim::kMillisecond;
  auto c = MakeCluster(std::move(opts), &w);
  workload::OpenLoopGenerator gen(&c->sim, c->driver(), &w, 600, 31);
  sim::TimePoint started = 0, finished = 0;
  c->sim.Schedule(2 * sim::kSecond, [&] {
    started = c->sim.Now();
    c->controller->RollingUpgrade(/*target_version=*/2,
                                  /*upgrade_duration=*/3 * sim::kSecond,
                                  [&](Status s) {
                                    if (s.ok()) finished = c->sim.Now();
                                  });
  });
  gen.Run(40 * sim::kSecond);
  TablePrinter table({"metric", "value"});
  table.AddRow({"upgrade duration (3 nodes, 3s each + resync)",
                finished > 0
                    ? TablePrinter::Num(sim::ToSeconds(finished - started), 1) + " s"
                    : "did not finish"});
  table.AddRow({"failed txns during upgrade",
                TablePrinter::Int(static_cast<int64_t>(gen.stats().failed))});
  table.AddRow({"tps during upgrade",
                TablePrinter::Num(gen.stats().ThroughputTps(), 0)});
  bool all_v2 = true;
  for (int i = 0; i < 3; ++i) all_v2 = all_v2 && c->replica(i)->software_version() == 2;
  table.AddRow({"all replicas on v2", all_v2 ? "yes" : "no"});
  table.Print("(d) rolling software upgrade (§4.4.3): no service interruption");
}

void ConnectionPoolFailback() {
  // §4.3.3: the connection-pool failback pathology.
  sim::Simulator sim;
  TablePrinter table({"pool policy", "pins on recovered node",
                      "imbalance (max/ideal)", "reconnects"});
  for (sim::Duration recycle : {sim::Duration{0}, 2 * sim::kSecond}) {
    client::ConnectionPool::Options po;
    po.size = 30;
    po.recycle_after = recycle;
    client::ConnectionPool pool(&sim, {1, 2, 3}, po);
    pool.MarkFailed(2);
    sim.RunUntil(sim.Now() + 5 * sim::kSecond);
    pool.MarkRecovered(2);
    for (int t = 0; t < 10; ++t) {
      sim.RunUntil(sim.Now() + sim::kSecond);
      for (int i = 0; i < 30; ++i) pool.Acquire();
    }
    auto dist = pool.Distribution();
    table.AddRow({recycle == 0 ? "persistent connections (typical)"
                               : "recycle every 2s (aggressive)",
                  TablePrinter::Int(dist[2]),
                  TablePrinter::Num(pool.Imbalance(), 2),
                  TablePrinter::Int(static_cast<int64_t>(pool.reconnects()))});
  }
  table.Print("(e) connection-pool failback after a replica recovers (§4.3.3)");
}

void StatusConsole() {
  // (f) The operator console: run a master-slave cluster with the online
  // auditor enabled, then print the SHOW-REPLICA-STATUS table and the
  // Prometheus exposition of the whole metrics registry — the two views a
  // monitoring stack would scrape.
  workload::MicroWorkload::Options wo;
  wo.rows = 500;
  wo.write_fraction = 0.3;
  workload::MicroWorkload w(wo);
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.audit_interval = 500 * sim::kMillisecond;
  auto c = MakeCluster(std::move(opts), &w);
  RunOpenLoop(c.get(), &w, /*rate_tps=*/400, 8 * sim::kSecond);
  c->sim.RunFor(2 * sim::kSecond);  // Drain so slaves reach the head.

  std::printf("\n%s", c->ShowReplicaStatus().c_str());
  ObsOutputs::KeepStatus(*c);
  std::printf("\n(f) machine-readable: Cluster::StatusReport() / JSON via\n"
              "audit::RenderStatusJson(); with REPLIDB_OBS_DIR set, this\n"
              "console is also written to status.txt.\n");
  std::printf("\n-- metrics registry (prometheus exposition) --\n%s",
              obs::MetricsRegistry::Global().DumpPrometheus().c_str());
}

void Run() {
  metrics::Banner("C13 / §4.4: management operations");
  BenchReport report("c13_management");
  OnlineBackup();
  AddReplicaOnline(&report);
  MetadataTrap();
  RollingUpgradeRun();
  ConnectionPoolFailback();
  StatusConsole();
  std::printf(
      "\nBackups degrade their donor; bringing a replica online is a\n"
      "clone + recovery-log replay with no service interruption (the\n"
      "Sequoia design, §4.4.2); and a typical data-only dump produces a\n"
      "clone that no application user can log into (§4.1.5).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
