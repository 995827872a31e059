// C7 — §4.3.4.2: failure detection — TCP keep-alive vs application
// heartbeats.
//
// Table 1: time to detect a crashed peer under OS keep-alive settings
// (nobody tunes them; defaults mean "30 seconds to 2 hours") vs
// application-level heartbeats.
// Table 2: the flip side — aggressive heartbeat timeouts misclassify
// slow-but-alive nodes under load ("a shorter TCP KeepAlive value
// generates false positives under heavy load").
// Table 3: what detection latency does to MTTR in an actual failover.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "net/failure_detector.h"

namespace replidb::bench {
namespace {

using net::HeartbeatOptions;
using net::TcpKeepAliveOptions;
using sim::kHour;
using sim::kMillisecond;
using sim::kMinute;
using sim::kSecond;

struct DetectEnv {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::Dispatcher> monitor;
  std::unique_ptr<net::Dispatcher> target;
  std::unique_ptr<net::HeartbeatResponder> hb_responder;
  std::unique_ptr<net::TcpKeepAliveResponder> ka_responder;

  DetectEnv() {
    net::NetworkOptions nopts;
    nopts.lan_jitter = 0;
    network = std::make_unique<net::Network>(&sim, nopts);
    monitor = std::make_unique<net::Dispatcher>(network.get(), 1);
    target = std::make_unique<net::Dispatcher>(network.get(), 2);
    hb_responder = std::make_unique<net::HeartbeatResponder>(&sim, target.get());
    ka_responder = std::make_unique<net::TcpKeepAliveResponder>(target.get());
  }
};

std::string Dur(sim::Duration d) {
  if (d >= kHour) return TablePrinter::Num(static_cast<double>(d) / kHour, 2) + " h";
  if (d >= kMinute) return TablePrinter::Num(static_cast<double>(d) / kMinute, 1) + " min";
  if (d >= kSecond) return TablePrinter::Num(sim::ToSeconds(d), 1) + " s";
  return TablePrinter::Num(sim::ToMillis(d), 0) + " ms";
}

void DetectionLatency() {
  TablePrinter table({"detector", "settings", "detection_time"});
  struct KaCfg {
    const char* label;
    TcpKeepAliveOptions opts;
  };
  TcpKeepAliveOptions linux_default;  // 2h / 75s / 9.
  TcpKeepAliveOptions tuned;
  tuned.idle = 30 * kSecond;
  tuned.probe_interval = 10 * kSecond;
  tuned.probe_count = 3;
  const KaCfg ka_cfgs[] = {
      {"TCP keep-alive (Linux defaults)", linux_default},
      {"TCP keep-alive (tuned 30s/10s/3)", tuned},
  };
  for (const KaCfg& cfg : ka_cfgs) {
    DetectEnv env;
    net::TcpKeepAliveDetector det(&env.sim, env.monitor.get(), cfg.opts);
    det.Watch(2);
    sim::TimePoint detected = -1;
    det.OnSuspicionChange([&](net::NodeId, bool s) {
      if (s && detected < 0) detected = env.sim.Now();
    });
    env.network->CrashNode(2);
    env.sim.RunUntil(5 * kHour);
    table.AddRow({cfg.label,
                  Dur(cfg.opts.idle) + "/" + Dur(cfg.opts.probe_interval) +
                      "x" + std::to_string(cfg.opts.probe_count),
                  detected < 0 ? "never" : Dur(detected)});
  }
  struct HbCfg {
    const char* label;
    sim::Duration period;
    int misses;
  };
  const HbCfg hb_cfgs[] = {
      {"heartbeat 1s x 3 misses", kSecond, 3},
      {"heartbeat 200ms x 3 misses", 200 * kMillisecond, 3},
      {"heartbeat 50ms x 2 misses", 50 * kMillisecond, 2},
  };
  for (const HbCfg& cfg : hb_cfgs) {
    DetectEnv env;
    HeartbeatOptions opts;
    opts.period = cfg.period;
    opts.timeout = cfg.period;
    opts.miss_threshold = cfg.misses;
    net::HeartbeatDetector det(&env.sim, env.monitor.get(), opts);
    det.Watch(2);
    sim::TimePoint detected = -1;
    det.OnSuspicionChange([&](net::NodeId, bool s) {
      if (s && detected < 0) detected = env.sim.Now();
    });
    env.sim.RunUntil(5 * kSecond);  // Steady state first.
    sim::TimePoint crash = env.sim.Now();
    env.network->CrashNode(2);
    env.sim.RunUntil(crash + kMinute);
    table.AddRow({cfg.label, Dur(cfg.period) + " x" + std::to_string(cfg.misses),
                  detected < 0 ? "never" : Dur(detected - crash)});
  }
  table.Print("time to detect a crashed peer");
}

void FalsePositives() {
  TablePrinter table({"heartbeat config", "node_response_delay",
                      "false_positives_per_min"});
  for (sim::Duration period : {50 * kMillisecond, 200 * kMillisecond, kSecond}) {
    for (sim::Duration delay : {20 * kMillisecond, 150 * kMillisecond,
                                600 * kMillisecond}) {
      DetectEnv env;
      env.hb_responder->set_response_delay(delay);  // Loaded node answers late.
      HeartbeatOptions opts;
      opts.period = period;
      opts.timeout = period;
      opts.miss_threshold = 3;
      net::HeartbeatDetector det(&env.sim, env.monitor.get(), opts);
      det.Watch(2);
      env.sim.RunUntil(2 * kMinute);
      table.AddRow({Dur(period) + " x3",
                    Dur(delay),
                    TablePrinter::Num(
                        static_cast<double>(det.false_positives()) / 2.0, 1)});
    }
  }
  table.Print("false positives: aggressive timeouts vs loaded nodes");
}

void MttrImpact(BenchReport* report) {
  TablePrinter table({"heartbeat", "failover_outage", "suspicions",
                      "failovers"});
  auto& registry = obs::MetricsRegistry::Global();
  for (sim::Duration period : {2 * kSecond, 500 * kMillisecond,
                               100 * kMillisecond}) {
    registry.Reset();
    workload::TicketBrokerWorkload w;
    ClusterOptions opts = BenchDefaults();
    opts.replicas = 2;
    opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
    opts.controller.heartbeat.period = period;
    opts.controller.heartbeat.timeout = period;
    opts.controller.heartbeat.miss_threshold = 3;
    opts.driver.max_retries = 30;
    opts.driver.request_timeout = 500 * kMillisecond;
    auto c = MakeCluster(std::move(opts), &w);
    Rng rng(5);
    sim::TimePoint last_commit = 0;
    sim::Duration max_gap = 0;
    sim::TimePoint crash_at = c->sim.Now() + 5 * kSecond;
    sim::TimePoint stop = crash_at + (BenchShortMode() ? 10 : 30) * kSecond;
    std::function<void()> arrivals = [&] {
      if (c->sim.Now() >= stop) return;
      middleware::TxnRequest req = w.Next(&rng);
      bool read_only = req.read_only;
      c->driver()->Submit(std::move(req),
                          [&, read_only](const middleware::TxnResult& r) {
                            if (r.status.ok() && !read_only &&
                                c->sim.Now() > crash_at) {
                              if (last_commit == 0) last_commit = crash_at;
                              max_gap = std::max(max_gap,
                                                 c->sim.Now() - last_commit);
                              last_commit = c->sim.Now();
                            }
                          });
      c->sim.Schedule(static_cast<sim::Duration>(rng.Exponential(3000)),
                      arrivals);
    };
    arrivals();
    c->sim.ScheduleAt(crash_at, [&] { c->replica(0)->Crash(); });
    c->sim.RunUntil(stop);
    uint64_t suspicions = 0, failovers = 0;
    if (const obs::Counter* ctr =
            registry.FindCounter("middleware.detector.suspicions_raised")) {
      suspicions = ctr->value();
    }
    if (const obs::Counter* ctr =
            registry.FindCounter("middleware.controller.failovers")) {
      failovers = ctr->value();
    }
    if (period == 500 * kMillisecond) {
      // The middle-of-the-road heartbeat is the headline configuration.
      report->Set("failover_outage_ms", sim::ToMillis(max_gap));
      report->Set("suspicions", static_cast<double>(suspicions));
      report->CaptureCluster(*c, /*committed_txns=*/0);
    }
    table.AddRow({Dur(period) + " x3", Dur(max_gap),
                  TablePrinter::Int(static_cast<int64_t>(suspicions)),
                  TablePrinter::Int(static_cast<int64_t>(failovers))});
    PrintStageBreakdown("per-stage breakdown, heartbeat=" + Dur(period),
                        DefaultStages());
  }
  table.Print("client-visible write outage after a master crash");
}

void Run() {
  metrics::Banner("C7 / §4.3.4.2: failure detection latency and its costs");
  BenchReport report("c7_failure_detection");
  DetectionLatency();
  FalsePositives();
  MttrImpact(&report);
  report.Write();
  std::printf(
      "\nTCP keep-alive defaults take hours; tuning system-wide knobs is\n"
      "\"usually undesirable\". Application heartbeats detect in O(period),\n"
      "but too-aggressive settings declare loaded nodes dead — the paper's\n"
      "black art of tuning timeouts (§4.3.4, §5.1).\n");
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
