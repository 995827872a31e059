// F8 — Figure 8 (§4): the layering of practical challenges.
//
// A hazard matrix: one replication-breaking construct per row (RDBMS-,
// SQL-, and middleware-level hazards from §4.1-§4.3), one replication
// strategy per column. Each cell runs the scenario on a fresh 3-replica
// cluster and reports what actually happened:
//   CONVERGED  — handled; all replicas hold identical data
//   DIVERGED   — replicas ended up with different data (silent corruption)
//   SEQ-DRIFT  — data identical but sequence/auto-increment state differs
//   REFUSED    — middleware rejected the transaction up front
//   ERROR      — transaction failed with an engine error

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::Cluster;
using middleware::NonDeterminismPolicy;
using middleware::ReplicationMode;
using middleware::TxnRequest;
using middleware::TxnResult;

struct Hazard {
  std::string name;
  std::vector<std::string> setup;
  std::vector<std::string> txn;
  bool naive_broadcast = false;  ///< Disable the determinism guard.
  bool check_sequences = false;  ///< Also compare sequence state.
  bool trigger_on_first_replica = false;
  int64_t clock_skew = 0;
};

TxnResult RunOne(Cluster* c, TxnRequest req) {
  TxnResult out;
  bool done = false;
  c->driver()->Submit(std::move(req), [&](const TxnResult& r) {
    out = r;
    done = true;
  });
  for (int i = 0; i < 200 && !done; ++i) c->sim.RunFor(250 * sim::kMillisecond);
  return out;
}

std::string RunCell(const Hazard& hazard, ReplicationMode mode) {
  ClusterOptions opts = BenchDefaults();
  opts.replicas = 3;
  opts.controller.mode = mode;
  opts.controller.nondeterminism = hazard.naive_broadcast
                                       ? NonDeterminismPolicy::kBroadcastAnyway
                                       : NonDeterminismPolicy::kRefuse;
  opts.clock_skew_per_replica = hazard.clock_skew;
  opts.driver.max_retries = 1;
  Cluster c(std::move(opts));
  c.Setup(hazard.setup);
  if (hazard.trigger_on_first_replica) {
    // §4.1.5: the operator forgot to recreate the trigger on the clones.
    c.replica(0)->AdminExec(
        "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, note TEXT)");
    for (int i = 1; i < 3; ++i) {
      c.replica(i)->AdminExec(
          "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, note TEXT)");
    }
    engine::TriggerDef t;
    t.name = "audit_orders";
    t.database = "main";
    t.table = "orders";
    t.event = engine::WriteOpKind::kInsert;
    t.action = [](engine::Rdbms* db, engine::SessionId sid,
                  const engine::WriteOp& op) {
      return db
          ->Execute(sid, "INSERT INTO audit (note) VALUES ('" +
                             op.primary_key.ToString() + "')")
          .status;
    };
    c.replica(0)->engine()->RegisterTrigger(std::move(t));
  }
  c.Start();
  c.sim.RunFor(sim::kSecond);

  TxnRequest req;
  req.read_only = false;
  req.statements = hazard.txn;
  TxnResult r = RunOne(&c, req);
  c.sim.RunFor(5 * sim::kSecond);  // Drain replication.

  if (!r.status.ok()) {
    if (r.status.code() == StatusCode::kInvalidArgument ||
        r.status.code() == StatusCode::kNotSupported) {
      return "REFUSED";
    }
    return "ERROR(" + std::string(StatusCodeName(r.status.code())) + ")";
  }
  if (!c.Converged()) return "DIVERGED";
  if (hazard.check_sequences) {
    std::set<uint64_t> hashes;
    for (int i = 0; i < 3; ++i) {
      hashes.insert(c.replica(i)->engine()->ContentHashWithSequences());
    }
    if (hashes.size() > 1) return "SEQ-DRIFT";
  }
  return "CONVERGED";
}

void Run() {
  metrics::Banner(
      "F8 / Figure 8: hazard x strategy matrix (RDBMS/SQL/middleware layers)");

  std::vector<std::string> accounts = {
      "CREATE TABLE accounts (id INT PRIMARY KEY, balance DOUBLE)",
      "INSERT INTO accounts VALUES (1, 10), (2, 10), (3, 10), (4, 10)"};
  std::vector<std::string> foo40 = {
      "CREATE TABLE foo (id INT PRIMARY KEY, keyvalue TEXT)"};
  {
    std::string batch = "INSERT INTO foo VALUES ";
    for (int i = 0; i < 40; ++i) {
      if (i) batch += ", ";
      batch += "(" + std::to_string(i) + ", NULL)";
    }
    foo40.push_back(batch);
  }

  std::vector<Hazard> hazards;
  hazards.push_back({"NOW() w/ 1s clock skew (rewritten)",
                     {"CREATE TABLE ev (id INT PRIMARY KEY, ts INT)"},
                     {"INSERT INTO ev VALUES (1, NOW())"},
                     false, false, false, 1000000});
  hazards.push_back({"UPDATE SET x=RAND(), guarded",
                     accounts,
                     {"UPDATE accounts SET balance = RAND()"},
                     false});
  hazards.push_back({"UPDATE SET x=RAND(), naive broadcast",
                     accounts,
                     {"UPDATE accounts SET balance = RAND()"},
                     true});
  hazards.push_back({"IN(SELECT..LIMIT) w/o ORDER BY, naive",
                     foo40,
                     {"UPDATE foo SET keyvalue = 'x' WHERE id IN "
                      "(SELECT id FROM foo WHERE keyvalue = NULL LIMIT 10)"},
                     true});
  hazards.push_back({"IN(SELECT..LIMIT) with ORDER BY",
                     foo40,
                     {"UPDATE foo SET keyvalue = 'x' WHERE id IN "
                      "(SELECT id FROM foo WHERE keyvalue = NULL "
                      "ORDER BY id LIMIT 10)"},
                     false});
  {
    Hazard h;
    h.name = "sequence NEXTVAL (§4.2.3)";
    h.setup = {"CREATE SEQUENCE s START 100",
               "CREATE TABLE keyed (id INT PRIMARY KEY, v INT)"};
    h.txn = {"INSERT INTO keyed VALUES (NEXTVAL('s'), 1)"};
    h.check_sequences = true;
    hazards.push_back(std::move(h));
  }
  hazards.push_back({"write to PK-less table",
                     {"CREATE TABLE nopk (a INT, b INT)"},
                     {"INSERT INTO nopk VALUES (1, 2)"},
                     false});
  {
    Hazard h;
    h.name = "trigger present on one replica only (§4.1.5)";
    h.setup = {"CREATE TABLE orders (id INT PRIMARY KEY, v INT)"};
    h.txn = {"INSERT INTO orders VALUES (1, 5)"};
    h.trigger_on_first_replica = true;
    hazards.push_back(std::move(h));
  }

  const ReplicationMode modes[] = {ReplicationMode::kMasterSlaveAsync,
                                   ReplicationMode::kMultiMasterStatement,
                                   ReplicationMode::kMultiMasterCertification};
  BenchReport report("f8_challenge_matrix");
  int converged = 0, diverged = 0, refused = 0, seq_drift = 0, error = 0;
  TablePrinter table({"hazard", "master-slave(ws)", "mm-statement", "mm-cert"});
  for (const Hazard& h : hazards) {
    std::vector<std::string> row = {h.name};
    for (ReplicationMode m : modes) {
      std::string cell = RunCell(h, m);
      if (cell == "CONVERGED") ++converged;
      else if (cell == "DIVERGED") ++diverged;
      else if (cell == "REFUSED") ++refused;
      else if (cell == "SEQ-DRIFT") ++seq_drift;
      else ++error;
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print("what each strategy survives");
  // The matrix outcome counts are the regression signal: any cell changing
  // class (e.g. a hazard starting to diverge) shifts these.
  report.Set("converged_cells", converged);
  report.Set("diverged_cells", diverged);
  report.Set("refused_cells", refused);
  report.Set("seq_drift_cells", seq_drift);
  report.Set("error_cells", error);
  report.Write();
  std::printf(
      "\nReading: statement replication is the one that diverges on\n"
      "non-deterministic SQL but the only one that tolerates PK-less\n"
      "tables; writeset shipping hides per-replica triggers only when the\n"
      "origin has them; sequences drift everywhere except full statement\n"
      "re-execution (§4.2.3, §4.3.2).\n");
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::ObsOutputs obs;
  replidb::bench::Run();
  return 0;
}
