// C11 — §4.3.4.1: group communication as the intrinsic scalability limit.
//
// Total-order multicast throughput vs group size (the sequencer's ordering
// + fan-out cost grows with membership), and ordered-delivery latency on a
// LAN vs across a WAN — why "1-copy-serializability is unlikely to be
// successful in the WAN by extending existing LAN techniques".

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "gcs/group.h"

namespace replidb::bench {
namespace {

struct GroupEnv {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<gcs::GroupMember>> members;

  GroupEnv(int n, bool wan) {
    net::NetworkOptions nopts;
    network = std::make_unique<net::Network>(&sim, nopts);
    std::vector<net::NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(i + 1);
    for (int i = 0; i < n; ++i) {
      // WAN: members spread over 3 sites.
      net::SiteId site = wan ? (i % 3) : 0;
      dispatchers.push_back(
          std::make_unique<net::Dispatcher>(network.get(), ids[i], site));
      members.push_back(std::make_unique<gcs::GroupMember>(
          &sim, dispatchers.back().get(), ids, gcs::GroupOptions{}));
    }
  }
};

void Throughput(BenchReport* report) {
  TablePrinter table({"group_size", "ordered_msgs_per_sec", "p50_delivery_ms"});
  for (int n : {2, 4, 8, 16}) {
    GroupEnv env(n, /*wan=*/false);
    const int kMsgs = BenchShortMode() ? 1000 : 3000;
    Histogram delivery_ms;
    std::vector<sim::TimePoint> sent(static_cast<size_t>(kMsgs) + 1);
    env.members[1 % n]->OnDeliver(
        [&](net::NodeId, uint64_t seq, const std::any&) {
          if (seq <= static_cast<uint64_t>(kMsgs) && sent[seq] > 0) {
            delivery_ms.Add(sim::ToMillis(env.sim.Now() - sent[seq]));
          }
        });
    // Saturating offered load from all members.
    int issued = 0;
    sim::PeriodicTask pump(&env.sim, 100, [&] {  // Every 100 µs.
      for (int k = 0; k < 2 && issued < kMsgs; ++k) {
        sent[static_cast<size_t>(issued) + 1] = env.sim.Now();
        env.members[static_cast<size_t>(issued) % n]->Multicast(
            std::string("m"), 512);
        ++issued;
      }
    });
    pump.Start();
    sim::TimePoint t0 = env.sim.Now();
    sim::TimePoint done = -1;
    sim::PeriodicTask watcher(&env.sim, sim::kMillisecond, [&] {
      if (done < 0 &&
          env.members[0]->last_delivered() >= static_cast<uint64_t>(kMsgs)) {
        done = env.sim.Now();
      }
    });
    watcher.Start();
    env.sim.RunUntil(60 * sim::kSecond);
    pump.Stop();
    watcher.Stop();
    double secs = done > 0 ? sim::ToSeconds(done - t0) : 60.0;
    if (n == 8) {
      // Mid-size group total-order throughput is the headline.
      report->Set("ordered_msgs_per_sec", kMsgs / secs);
      report->Set("delivery_p50_ms", delivery_ms.Percentile(50));
    }
    table.AddRow({TablePrinter::Int(n),
                  TablePrinter::Num(kMsgs / secs, 0),
                  TablePrinter::Num(delivery_ms.Percentile(50), 3)});
  }
  table.Print("total-order throughput vs group size (sequencer-based)");
}

void LanVsWan() {
  TablePrinter table({"topology", "p50_ordered_delivery_ms", "p99_ms"});
  for (bool wan : {false, true}) {
    GroupEnv env(6, wan);
    Histogram delivery_ms;
    std::vector<sim::TimePoint> sent(1001);
    env.members[5]->OnDeliver([&](net::NodeId, uint64_t seq, const std::any&) {
      if (seq <= 1000 && sent[seq] > 0) {
        delivery_ms.Add(sim::ToMillis(env.sim.Now() - sent[seq]));
      }
    });
    int issued = 0;
    sim::PeriodicTask pump(&env.sim, 5 * sim::kMillisecond, [&] {
      if (issued < 1000) {
        sent[static_cast<size_t>(issued) + 1] = env.sim.Now();
        env.members[static_cast<size_t>(issued) % 6]->Multicast(
            std::string("m"), 512);
        ++issued;
      }
    });
    pump.Start();
    env.sim.RunUntil(30 * sim::kSecond);
    pump.Stop();
    table.AddRow({wan ? "WAN (3 sites, 50ms one-way)" : "LAN (0.2ms one-way)",
                  TablePrinter::Num(delivery_ms.Percentile(50), 2),
                  TablePrinter::Num(delivery_ms.Percentile(99), 2)});
  }
  table.Print("ordered delivery latency, 6 members, light load");
  std::printf(
      "\nEvery totally-ordered write eats at least two WAN hops before it\n"
      "can commit anywhere — the physics behind \"asynchronous replication\n"
      "is preferred over long distance links\" (§4.3.4.1).\n");
}

void Run() {
  metrics::Banner("C11 / §4.3.4.1: group communication limits");
  BenchReport report("c11_group_comm");
  Throughput(&report);
  LanVsWan();
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
