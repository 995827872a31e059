// C12 — §4.3.4.3: network partitions and the CAP choice.
//
// (a) Quorum enforcement: with require_majority, the minority side refuses
//     writes (consistency preserved, availability sacrificed); the paper
//     notes that when "the remaining quorum does not constitute a
//     majority, the system must shut down and make the customer unhappy".
// (b) Split brain: two controllers, each surviving on one side of a
//     partition without quorum checks, both keep accepting writes — after
//     healing, the replicas hold divergent data that only manual
//     reconciliation can fix.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::Controller;
using middleware::ControllerOptions;
using middleware::ReplicaNode;
using middleware::ReplicationMode;
using middleware::TxnRequest;
using middleware::TxnResult;

void QuorumBehaviour(BenchReport* report) {
  TablePrinter table({"enforce_majority", "side", "writes_ok", "writes_refused",
                      "diverged_after_heal"});
  for (bool majority : {true, false}) {
    workload::MicroWorkload::Options wo;
    wo.rows = 100;
    wo.write_fraction = 1.0;
    workload::MicroWorkload w(wo);
    ClusterOptions opts = BenchDefaults();
    opts.replicas = 3;
    opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
    opts.controller.require_majority_for_writes = majority;
    opts.controller.heartbeat.period = 200 * sim::kMillisecond;
    opts.controller.heartbeat.timeout = 200 * sim::kMillisecond;
    opts.controller.heartbeat.miss_threshold = 2;
    opts.driver.max_retries = 0;
    opts.driver.request_timeout = sim::kSecond;
    auto c = MakeCluster(std::move(opts), &w);

    // Partition: controller + master on one side; both slaves on the other.
    c->network->Partition({{100, 200, 1}, {2, 3}});
    c->sim.RunFor(2 * sim::kSecond);  // Let the detector notice.

    int ok = 0, refused = 0;
    Rng rng(31);
    for (int i = 0; i < 50; ++i) {
      TxnRequest req = w.Next(&rng);
      req.read_only = false;
      bool done = false;
      TxnResult result;
      c->driver()->Submit(std::move(req), [&](const TxnResult& r) {
        result = r;
        done = true;
      });
      while (!done) c->sim.RunFor(100 * sim::kMillisecond);
      if (result.status.ok()) {
        ++ok;
      } else {
        ++refused;
      }
    }
    c->network->HealPartition();
    c->sim.RunFor(10 * sim::kSecond);
    if (majority) {
      // Quorum-enforcing configuration is the headline: every minority
      // write must be refused and the cluster must re-converge.
      report->Set("quorum_writes_ok", ok);
      report->Set("quorum_writes_refused", refused);
      report->Set("diverged_after_heal", c->Converged() ? 0.0 : 1.0);
      report->CaptureCluster(*c, /*committed_txns=*/0);
    }
    table.AddRow({majority ? "yes (favor C over A)" : "no (favor A over C)",
                  "controller+master minority", TablePrinter::Int(ok),
                  TablePrinter::Int(refused),
                  c->Converged() ? "no" : "yes"});
  }
  table.Print("(a) writes on the minority side of a partition");
}

void SplitBrain() {
  // Two controllers over the same two replicas, as deployed by an operator
  // who wanted "no single point of failure" without a quorum protocol.
  workload::MicroWorkload::Options wo;
  wo.rows = 100;
  wo.write_fraction = 1.0;
  workload::MicroWorkload w(wo);
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkOptions{});
  ClusterOptions defaults = BenchDefaults();
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  std::vector<ReplicaNode*> ptrs;
  for (int i = 0; i < 2; ++i) {
    engine::RdbmsOptions eopts = defaults.engine;
    eopts.name = "r" + std::to_string(i + 1);
    eopts.physical_seed = static_cast<uint64_t>(i + 1);
    auto node = std::make_unique<ReplicaNode>(&sim, &network, i + 1, eopts,
                                              defaults.replica);
    for (const std::string& stmt : w.SetupStatements()) node->AdminExec(stmt);
    ptrs.push_back(node.get());
    replicas.push_back(std::move(node));
  }
  ControllerOptions copts = defaults.controller;
  copts.mode = ReplicationMode::kMasterSlaveAsync;
  copts.heartbeat.period = 200 * sim::kMillisecond;
  copts.heartbeat.timeout = 200 * sim::kMillisecond;
  copts.heartbeat.miss_threshold = 2;
  Controller a(&sim, &network, 100, ptrs, copts);
  Controller b(&sim, &network, 101, ptrs, copts);
  a.Start();
  b.Start();
  client::Driver da(&sim, &network, 200, {100});
  client::Driver db(&sim, &network, 201, {101});
  sim.RunFor(2 * sim::kSecond);

  // The split: {controller A, replica 1, its clients} vs {B, replica 2,...}.
  network.Partition({{100, 200, 1}, {101, 201, 2}});
  sim.RunFor(3 * sim::kSecond);  // Both sides fail over to "their" replica.

  int ok_a = 0, ok_b = 0;
  Rng rng(17);
  auto write_side = [&](client::Driver* d, int* ok) {
    TxnRequest req = w.Next(&rng);
    req.read_only = false;
    d->Submit(std::move(req), [ok](const TxnResult& r) {
      if (r.status.ok()) ++*ok;
    });
  };
  for (int i = 0; i < 40; ++i) {
    write_side(&da, &ok_a);
    write_side(&db, &ok_b);
    sim.RunFor(100 * sim::kMillisecond);
  }
  sim.RunFor(2 * sim::kSecond);
  network.HealPartition();
  sim.RunFor(10 * sim::kSecond);

  bool diverged = ptrs[0]->engine()->ContentHash() !=
                  ptrs[1]->engine()->ContentHash();
  TablePrinter table({"metric", "value"});
  table.AddRow({"side A committed writes", TablePrinter::Int(ok_a)});
  table.AddRow({"side B committed writes", TablePrinter::Int(ok_b)});
  table.AddRow({"replicas diverged after heal", diverged ? "YES" : "no"});
  table.Print("(b) split brain: both sides promoted their own master");
  std::printf(
      "\nBoth sides accepted updates during the partition; after healing,\n"
      "the copies disagree and \"the process remains largely manual;\n"
      "reconciliation policies are typically ad-hoc\" (§4.3.4.3).\n");
}

void Run() {
  metrics::Banner("C12 / §4.3.4.3: partitions, quorums, split brain");
  BenchReport report("c12_partitions");
  QuorumBehaviour(&report);
  SplitBrain();
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
