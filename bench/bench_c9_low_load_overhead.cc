// C9 — §4.4.5: the latency overhead of replication at LOW load.
//
// "Replicated databases usually perform poorly when load is low, because
// low latency is critical to the performance of sequential (non-parallel)
// queries. A sequential batch update script will usually run much slower
// on a replicated database. OLTP-style sub-millisecond queries suffer the
// most, more so than heavyweight queries."
//
// We run one single-threaded client against (a) a direct database and
// (b) replicated clusters, for three query classes, and report overhead.
// Engine costs use the default (sub-millisecond) model here.

#include <cstdio>
#include <functional>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::ReplicationMode;

std::vector<std::string> Setup() {
  std::vector<std::string> out = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)"};
  std::string batch;
  for (int i = 0; i < 5000; ++i) {
    batch += batch.empty() ? "INSERT INTO t VALUES " : ", ";
    batch += "(" + std::to_string(i) + ", 1)";
    if ((i + 1) % 250 == 0) {
      out.push_back(batch);
      batch.clear();
    }
  }
  return out;
}

middleware::TxnRequest PointRead(int64_t id) {
  middleware::TxnRequest r;
  r.read_only = true;
  r.statements = {"SELECT v FROM t WHERE id = " + std::to_string(id)};
  return r;
}
middleware::TxnRequest PointWrite(int64_t id) {
  middleware::TxnRequest r;
  r.statements = {"UPDATE t SET v = v + 1 WHERE id = " + std::to_string(id)};
  return r;
}
middleware::TxnRequest Scan() {
  middleware::TxnRequest r;
  r.read_only = true;
  r.statements = {"SELECT SUM(v) FROM t"};
  return r;
}

/// Runs `n` sequential transactions through the middleware; returns mean ms.
double SequentialViaMiddleware(Cluster* c, int n,
                               std::function<middleware::TxnRequest(int)> gen) {
  Histogram lat;
  int remaining = n;
  int i = 0;
  std::function<void()> next = [&] {
    if (remaining-- <= 0) return;
    c->driver()->Submit(gen(i++), [&](const middleware::TxnResult& r) {
      lat.Add(sim::ToMillis(r.latency));
      next();
    });
  };
  next();
  c->sim.RunFor(120 * sim::kSecond);
  return lat.Mean();
}

/// Same, against a bare replica (no middleware).
double SequentialDirect(Cluster* c, int n,
                        std::function<middleware::TxnRequest(int)> gen) {
  DirectClient direct(&c->sim, c->network.get(), 300, 1);
  Histogram lat;
  int remaining = n;
  int i = 0;
  std::function<void()> next = [&] {
    if (remaining-- <= 0) return;
    sim::TimePoint start = c->sim.Now();
    direct.Execute(gen(i++), [&, start](const middleware::ExecTxnReply&) {
      lat.Add(sim::ToMillis(c->sim.Now() - start));
      next();
    });
  };
  next();
  c->sim.RunFor(120 * sim::kSecond);
  return lat.Mean();
}

void Run() {
  metrics::Banner("C9 / §4.4.5: replication overhead at low load");
  BenchReport report("c9_low_load_overhead");

  struct QueryClass {
    const char* label;
    std::function<middleware::TxnRequest(int)> gen;
    int n;
  };
  const QueryClass classes[] = {
      {"sub-ms point read", [](int i) { return PointRead(i % 5000); }, 400},
      {"sub-ms point write", [](int i) { return PointWrite(i % 5000); }, 400},
      {"heavyweight scan (5k rows)", [](int) { return Scan(); }, 120},
  };

  TablePrinter table({"query class", "direct_ms", "1-replica_mw_ms",
                      "3-replica cert_ms", "mw_overhead", "cert_overhead"});
  for (const QueryClass& qc : classes) {
    // Direct single database.
    ClusterOptions base;  // Default (sub-ms) engine cost model.
    base.replicas = 1;
    class Raw : public workload::Workload {
     public:
      explicit Raw(std::vector<std::string> s) : s_(std::move(s)) {}
      std::vector<std::string> SetupStatements() const override { return s_; }
      middleware::TxnRequest Next(Rng*) override { return {}; }
      std::vector<std::string> s_;
    } raw(Setup());
    auto c_direct = MakeCluster(std::move(base), &raw);
    double direct = SequentialDirect(c_direct.get(), qc.n, qc.gen);

    ClusterOptions mw1;
    mw1.replicas = 1;
    auto c1 = MakeCluster(std::move(mw1), &raw);
    double one = SequentialViaMiddleware(c1.get(), qc.n, qc.gen);

    ClusterOptions mw3;
    mw3.replicas = 3;
    mw3.controller.mode = ReplicationMode::kMultiMasterCertification;
    auto c3 = MakeCluster(std::move(mw3), &raw);
    double three = SequentialViaMiddleware(c3.get(), qc.n, qc.gen);

    if (std::strcmp(qc.label, "sub-ms point write") == 0) {
      // The worst-hit query class is the headline: fixed middleware cost
      // vs a sub-millisecond statement.
      report.Set("point_write_direct_ms", direct);
      report.Set("point_write_mw1_ms", one);
      report.Set("point_write_cert3_ms", three);
      report.CaptureCluster(*c3, /*committed_txns=*/0);
    }

    table.AddRow({qc.label, TablePrinter::Num(direct, 3),
                  TablePrinter::Num(one, 3), TablePrinter::Num(three, 3),
                  "+" + TablePrinter::Num(100 * (one - direct) / direct, 0) + "%",
                  "+" + TablePrinter::Num(100 * (three - direct) / direct, 0) +
                      "%"});
  }
  table.Print("single-threaded sequential latency (no concurrency to hide it)");

  // The batch script: N dependent updates back to back.
  TablePrinter batch({"configuration", "500-update script wall time (s)"});
  {
    class Raw : public workload::Workload {
     public:
      explicit Raw(std::vector<std::string> s) : s_(std::move(s)) {}
      std::vector<std::string> SetupStatements() const override { return s_; }
      middleware::TxnRequest Next(Rng*) override { return {}; }
      std::vector<std::string> s_;
    } raw(Setup());
    {
      ClusterOptions base;
      base.replicas = 1;
      auto c = MakeCluster(std::move(base), &raw);
      sim::TimePoint t0 = c->sim.Now();
      SequentialDirect(c.get(), 500, [](int i) { return PointWrite(i); });
      // Recompute actual span: last completion is when sim queue drained
      // of our chain; measure via a final probe.
      (void)t0;
    }
    auto time_script = [&](bool direct, int replicas,
                           ReplicationMode mode) -> double {
      ClusterOptions o;
      o.replicas = replicas;
      o.controller.mode = mode;
      auto c = MakeCluster(std::move(o), &raw);
      sim::TimePoint start = c->sim.Now();
      sim::TimePoint end = start;
      int remaining = 500;
      int i = 0;
      DirectClient dc(&c->sim, c->network.get(), 300, 1);
      std::function<void()> next = [&] {
        if (remaining-- <= 0) {
          end = c->sim.Now();
          return;
        }
        if (direct) {
          dc.Execute(PointWrite(i++), [&](const middleware::ExecTxnReply&) {
            next();
          });
        } else {
          c->driver()->Submit(PointWrite(i++),
                              [&](const middleware::TxnResult&) { next(); });
        }
      };
      next();
      c->sim.RunFor(300 * sim::kSecond);
      return sim::ToSeconds(end - start);
    };
    batch.AddRow({"direct single DB",
                  TablePrinter::Num(
                      time_script(true, 1, ReplicationMode::kMasterSlaveAsync), 2)});
    batch.AddRow({"middleware, 1 replica",
                  TablePrinter::Num(
                      time_script(false, 1, ReplicationMode::kMasterSlaveAsync), 2)});
    double cert_script_s =
        time_script(false, 3, ReplicationMode::kMultiMasterCertification);
    report.Set("batch_script_cert3_s", cert_script_s);
    batch.AddRow({"middleware, 3 replicas (cert)",
                  TablePrinter::Num(cert_script_s, 2)});
    batch.AddRow({"middleware, 3 replicas (statement)",
                  TablePrinter::Num(
                      time_script(false, 3,
                                  ReplicationMode::kMultiMasterStatement), 2)});
  }
  batch.Print("the sequential batch update script (§4.4.5)");
  std::printf(
      "\nExpected shape: fixed middleware hops and processing dominate\n"
      "sub-millisecond queries (largest %% overhead); the heavyweight scan\n"
      "barely notices. The sequential script multiplies the per-statement\n"
      "overhead by its length — \"much slower on a replicated database\".\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
