// F3 — Figure 3 (§2.2): hot standby failover.
//
// A 2-node hot-standby pair under load. The master crashes mid-run; the
// heartbeat detector notices, the controller promotes the standby, client
// drivers retry into the new master. Reported per configuration:
// detection latency, client-visible outage, transactions lost (1-safe vs
// 2-safe), and steady-state commit latency (the 2-safe tax).

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::ReplicationMode;

struct FailoverResult {
  double steady_latency_ms = 0;
  double outage_ms = 0;
  uint64_t lost = 0;
  uint64_t failed_txns = 0;
  double post_latency_ms = 0;
};

FailoverResult RunOnce(ReplicationMode mode, sim::Duration ship_interval,
                       sim::Duration hb_period,
                       BenchReport* report = nullptr) {
  workload::TicketBrokerWorkload w;
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 2;
  opts.controller.mode = mode;
  opts.controller.heartbeat.period = hb_period;
  opts.controller.heartbeat.timeout = hb_period;
  opts.controller.heartbeat.miss_threshold = 3;
  opts.replica.ship_interval = ship_interval;
  opts.driver.max_retries = 20;
  opts.driver.request_timeout = sim::kSecond;
  auto c = MakeCluster(std::move(opts), &w);

  // Open-loop broker traffic; track last-success / first-failure windows.
  Rng rng(42);
  RunStats steady, post;
  sim::TimePoint crash_at = c->sim.Now() + 10 * sim::kSecond;
  sim::TimePoint last_commit = crash_at;
  sim::Duration max_commit_gap = 0;
  FailoverResult out;

  workload::TicketBrokerWorkload wl;
  sim::TimePoint stop =
      c->sim.Now() + (BenchShortMode() ? 18 : 30) * sim::kSecond;
  std::function<void()> arrivals = [&] {
    if (c->sim.Now() >= stop) return;
    middleware::TxnRequest req = wl.Next(&rng);
    bool pre = c->sim.Now() < crash_at;
    middleware::TxnRequest copy = req;
    c->driver()->Submit(std::move(req), [&, pre, copy](
                                            const middleware::TxnResult& r) {
      workload::Record(pre ? &steady : &post, copy, r);
      if (r.status.ok() && !copy.read_only && !pre) {
        // Client-visible outage: the longest stretch after the crash with
        // no write commit completing anywhere.
        max_commit_gap = std::max(max_commit_gap, c->sim.Now() - last_commit);
        last_commit = c->sim.Now();
      }
      if (!r.status.ok()) ++out.failed_txns;
    });
    c->sim.Schedule(static_cast<sim::Duration>(rng.Exponential(2000)),
                    arrivals);  // ~500 tps offered.
  };
  arrivals();
  c->sim.ScheduleAt(crash_at, [&] { c->replica(0)->Crash(); });
  c->sim.RunUntil(stop + 5 * sim::kSecond);

  out.steady_latency_ms = steady.write_latency_ms.Mean();
  out.post_latency_ms = post.write_latency_ms.Mean();
  out.lost = c->controller->stats().lost_transactions;
  out.outage_ms = sim::ToMillis(max_commit_gap);
  if (report != nullptr) {
    report->FromStats(steady, "steady.");
    report->FromStats(post, "post.");
    report->Set("outage_ms", out.outage_ms);
    report->Set("lost_txns", static_cast<double>(out.lost));
    report->CaptureCluster(*c, steady.committed + post.committed);
  }
  return out;
}

void Run() {
  metrics::Banner("F3 / Figure 3: hot standby failover (master crash at t=10s)");
  TablePrinter table({"mode", "ship_interval", "hb_period_ms",
                      "steady_write_ms", "outage_ms", "lost_txns",
                      "failed_txns", "post_write_ms"});
  struct Cfg {
    const char* label;
    ReplicationMode mode;
    sim::Duration ship;
    sim::Duration hb;
  };
  const Cfg cfgs[] = {
      {"1-safe async, 5s ship, 1s hb", ReplicationMode::kMasterSlaveAsync,
       5 * sim::kSecond, sim::kSecond},
      {"1-safe async, 100ms ship, 1s hb", ReplicationMode::kMasterSlaveAsync,
       100 * sim::kMillisecond, sim::kSecond},
      {"1-safe async, 100ms ship, 200ms hb", ReplicationMode::kMasterSlaveAsync,
       100 * sim::kMillisecond, 200 * sim::kMillisecond},
      {"2-safe sync, 200ms hb", ReplicationMode::kMasterSlaveSync,
       100 * sim::kMillisecond, 200 * sim::kMillisecond},
  };
  BenchReport report("f3_hot_standby");
  for (const Cfg& cfg : cfgs) {
    // Fast-ship, fast-heartbeat 1-safe is the headline configuration.
    FailoverResult r = RunOnce(
        cfg.mode, cfg.ship, cfg.hb,
        cfg.mode == ReplicationMode::kMasterSlaveAsync &&
                cfg.ship == 100 * sim::kMillisecond &&
                cfg.hb == 200 * sim::kMillisecond
            ? &report
            : nullptr);
    table.AddRow({cfg.label, TablePrinter::Num(sim::ToMillis(cfg.ship), 0) + "ms",
                  TablePrinter::Num(sim::ToMillis(cfg.hb), 0),
                  TablePrinter::Num(r.steady_latency_ms, 2),
                  TablePrinter::Num(r.outage_ms, 0),
                  TablePrinter::Int(static_cast<int64_t>(r.lost)),
                  TablePrinter::Int(static_cast<int64_t>(r.failed_txns)),
                  TablePrinter::Num(r.post_latency_ms, 2)});
  }
  table.Print("failover behaviour per configuration");
  std::printf(
      "\nExpected shape: 1-safe loses the unshipped window (bigger ship\n"
      "interval => more lost transactions); 2-safe loses nothing but pays\n"
      "commit latency; faster heartbeats shrink the outage (§2.2).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
