// Sim-scheduler determinism harness: every tier-1 scenario must produce
// *identical* commit sequences and table digests no matter what
// REPLIDB_HASH_SEED perturbs the unordered-container hash order to.
//
// This is the runtime teeth behind replicheck's `unordered-iter` rule: a
// latent iteration over a hash container that reaches the replication
// stream passes every functional test (iteration order is stable within
// one build), but differs between two runs with different hash seeds —
// turning the silent-divergence hazard of the paper's §4 into a hard,
// attributable failure here.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "engine/rdbms.h"
#include "faults/fault_injector.h"
#include "middleware/cluster.h"
#include "obs/critical_path.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb {
namespace {

using middleware::Cluster;
using middleware::ClusterOptions;
using middleware::ReplicationMode;
using sim::kSecond;

/// Mixed read/write workload touching two tables, with enough write
/// concurrency to exercise certification kills, held-transaction wipes,
/// and the ship pipeline — the code paths that iterate containers.
class MixedWorkload : public workload::Workload {
 public:
  std::vector<std::string> SetupStatements() const override {
    std::vector<std::string> s;
    s.push_back(
        "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner "
        "VARCHAR(32))");
    s.push_back("CREATE TABLE audit_log (id INT PRIMARY KEY, note VARCHAR(64))");
    for (int i = 0; i < 40; ++i) {
      s.push_back("INSERT INTO accounts VALUES (" + std::to_string(i) + ", " +
                  std::to_string(1000 + i) + ", 'user" + std::to_string(i) +
                  "')");
    }
    return s;
  }

  middleware::TxnRequest Next(Rng* rng) override {
    middleware::TxnRequest req;
    uint64_t pick = rng->Uniform(10);
    if (pick < 5) {
      req.read_only = true;
      req.statements.push_back(
          "SELECT * FROM accounts WHERE id = " +
          std::to_string(rng->UniformRange(0, 39)));
    } else if (pick < 8) {
      req.read_only = false;
      req.statements.push_back(
          "UPDATE accounts SET balance = balance + " +
          std::to_string(rng->UniformRange(1, 9)) + " WHERE id = " +
          std::to_string(rng->UniformRange(0, 39)));
    } else {
      req.read_only = false;
      int id = static_cast<int>(next_log_id_++);
      req.statements.push_back("INSERT INTO audit_log VALUES (" +
                               std::to_string(id) + ", 'note" +
                               std::to_string(id % 7) + "')");
    }
    return req;
  }

 private:
  uint64_t next_log_id_ = 1;
};

/// Serialized observable outcome of one run: per-replica commit sequence
/// (binlog order, statements, conflict keys) and per-replica table digests.
std::string Fingerprint(const Cluster& c) {
  std::ostringstream out;
  for (size_t r = 0; r < c.replicas.size(); ++r) {
    const engine::Rdbms& db = *c.replicas[r]->engine();
    out << "replica " << r << " commits:\n";
    for (const engine::BinlogEntry& e : db.binlog()) {
      out << "  seq=" << e.commit_seq;
      for (const std::string& s : e.statements) out << " stmt{" << s << "}";
      for (const std::string& k : e.writeset.ConflictKeys()) {
        out << " key{" << k << "}";
      }
      out << "\n";
    }
    out << "replica " << r << " digests:\n";
    for (const auto& [table, digest] : db.TableDigests()) {
      out << "  " << table << "=" << digest << "\n";
    }
  }
  return out.str();
}

/// Observable artifacts of one run. The commit fingerprint and the
/// critical-path profile are compared separately: the profiler's sidecar
/// and the rendered trace can run to megabytes, and feeding a mismatch
/// that large through gtest's line-diff is pathological — FirstDiffLine
/// reports the exact divergent line instead.
struct ScenarioArtifacts {
  std::string fingerprint;
  std::string path_table;   ///< RenderAttributionTable().
  std::string path_sidecar; ///< RenderWaitEdgesJsonl().
  std::string trace;        ///< RenderChromeTrace() of chains + flight events.
  bool converged = false;   ///< All replicas ended on identical digests.
  uint64_t overlapped = 0;  ///< Scheduler entries that ran concurrently.
};

/// First line where `a` and `b` differ, or empty when identical.
std::string FirstDiffLine(const std::string& a, const std::string& b) {
  if (a == b) return "";
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  size_t n = 1;
  while (true) {
    bool ga = static_cast<bool>(std::getline(sa, la));
    bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "strings differ but lines match?";
    if (!ga || !gb || la != lb) {
      return "line " + std::to_string(n) + ":\n  a: " +
             (ga ? la : "<eof>") + "\n  b: " + (gb ? lb : "<eof>");
    }
    ++n;
  }
}

ScenarioArtifacts RunScenario(
    ReplicationMode mode, uint64_t hash_seed, int apply_workers = 1,
    middleware::ApplyPolicy policy = middleware::ApplyPolicy::kSerial) {
  // Perturb hash order for every container constructed from here on. The
  // workload/scenario seeds stay fixed: the only degree of freedom between
  // two runs is unordered-container iteration order.
  SetHashSeed(hash_seed);
  // The critical-path profiler must be hash-seed-invariant too: its
  // attribution tables and wait-edge sidecar are what tools/txnpath
  // renders, so any hash order leaking into chain bookkeeping would make
  // two runs' profiles disagree byte-for-byte.
  auto& cp = obs::CriticalPathCollector::Global();
  cp.Reset();
  cp.Enable();
  cp.SetMode(middleware::ReplicationModeName(mode));
  obs::ResetTraceIds();  // Sidecar chain ids must be run-relative.
  obs::FlightRecorder::Global().Reset();  // The trace's instants, too.
  MixedWorkload w;
  ClusterOptions opts;
  opts.replicas = 3;
  opts.drivers = 1;
  opts.controller.mode = mode;
  opts.controller.seed = 42;
  opts.replica.apply_workers = apply_workers;
  opts.replica.apply_policy = policy;
  Cluster c(std::move(opts));
  c.Setup(w.SetupStatements());
  c.Start();
  workload::ClosedLoopGenerator gen(&c.sim, c.driver(), &w, /*clients=*/8,
                                    /*think=*/0, /*seed=*/42);
  gen.Run(3 * kSecond);
  c.sim.RunFor(kSecond);  // Drain shipping/apply backlogs.
  ScenarioArtifacts art;
  art.fingerprint = Fingerprint(c);
  art.path_table = cp.RenderAttributionTable();
  art.path_sidecar = cp.RenderWaitEdgesJsonl();
  art.trace = obs::RenderChromeTrace(
      cp.RetainedChains(), obs::FlightRecorder::Global().MergedEvents());
  art.converged = c.Converged();
  for (const auto& r : c.replicas) {
    art.overlapped += r->apply_scheduler().overlapped();
  }
  cp.Disable();
  cp.Reset();
  SetHashSeed(0);
  return art;
}

/// Crash-restart determinism: a durable-binlog replica is killed under
/// load and recovers by restoring its checkpoint and replaying the log
/// tail. Everything observable about that recovery — final commit
/// sequences, table digests, the persisted apply watermark, and the raw
/// durable segment bytes — must be byte-identical across hash seeds, or
/// the recovery path itself would be a silent-divergence source.
std::string RunCrashRestartScenario(ReplicationMode mode,
                                    uint64_t hash_seed) {
  SetHashSeed(hash_seed);
  MixedWorkload w;
  ClusterOptions opts;
  opts.replicas = 3;
  opts.drivers = 1;
  opts.controller.mode = mode;
  opts.controller.seed = 42;
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 32;
  Cluster c(std::move(opts));
  c.Setup(w.SetupStatements());
  c.Start();
  faults::FaultInjector injector(&c.sim);
  injector.CrashAt(c.replica(2), c.sim.Now() + 1200 * sim::kMillisecond,
                   /*repair=*/500 * sim::kMillisecond);
  workload::ClosedLoopGenerator gen(&c.sim, c.driver(), &w, /*clients=*/8,
                                    /*think=*/0, /*seed=*/42);
  gen.Run(3 * kSecond);
  c.sim.RunFor(2 * kSecond);  // Drain resync + shipping backlogs.
  EXPECT_GE(c.replica(2)->recoveries(), 1)
      << "the durable replica must have taken the recovery path";
  EXPECT_TRUE(c.Converged()) << "crash-restart replay must converge";
  std::ostringstream out;
  out << Fingerprint(c);
  for (size_t r = 0; r < c.replicas.size(); ++r) {
    out << "replica " << r
        << " watermark=" << c.replicas[r]->persisted_watermark() << "\n";
    out << "replica " << r << " durable log:\n"
        << c.replicas[r]->log_store()->DebugSerialize() << "\n";
  }
  SetHashSeed(0);
  return out.str();
}

class SimDeterminismTest
    : public ::testing::TestWithParam<ReplicationMode> {};

TEST_P(SimDeterminismTest, CommitSequenceAndDigestsAreHashSeedInvariant) {
  const ScenarioArtifacts a = RunScenario(GetParam(), 0x00C0FFEEu);
  const ScenarioArtifacts b = RunScenario(GetParam(), 0xFEEDFACEDEADBEEFu);
  ASSERT_FALSE(a.fingerprint.empty());
  ASSERT_NE(a.fingerprint.find("stmt{"), std::string::npos)
      << "scenario must commit some writes";
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "commit sequence or table digests changed with the hash seed: an "
         "unordered-container iteration order is leaking into the "
         "replication stream (see replicheck's unordered-iter rule)";
  // The critical-path profile is an observable too: attribution tables
  // and the txnpath sidecar must be byte-identical under hash-seed
  // perturbation, or two runs would "explain" the same latency
  // differently.
  ASSERT_NE(a.path_table.find("chain=client outcome=commit"),
            std::string::npos)
      << "critical-path profiler must close client chains in every mode";
  EXPECT_EQ(a.path_table, b.path_table)
      << "attribution table changed with the hash seed";
  EXPECT_EQ(FirstDiffLine(a.path_sidecar, b.path_sidecar), "")
      << "wait-edge sidecar changed with the hash seed";
  ASSERT_NE(a.trace.find("\"name\":\"client.commit\""), std::string::npos)
      << "the rendered trace must draw the closed client chains";
  EXPECT_EQ(FirstDiffLine(a.trace, b.trace), "")
      << "rendered chrome trace changed with the hash seed";
}

// The conflict-graph scheduler adds per-entry timing state (worker pool,
// dependency map keyed on conflict strings, barrier horizon). None of it
// may leak into anything observable: binlogs, digests, and the profiler's
// rendered output must be byte-identical across hash seeds with 4 apply
// workers. (Serial and parallel runs are NOT compared to each other:
// apply timing feeds back into the closed-loop workload — faster
// replicas change read freshness and client interleaving — so the two
// runs legitimately commit different histories. The in-run invariant is
// convergence: every replica ends on the same digests, with the
// visibility watermark released strictly in version order.)
TEST_P(SimDeterminismTest, ParallelApplyIsHashSeedInvariantAndStateSafe) {
  const ScenarioArtifacts a =
      RunScenario(GetParam(), 0x00C0FFEEu, /*apply_workers=*/4,
                  middleware::ApplyPolicy::kConflictGraph);
  const ScenarioArtifacts b =
      RunScenario(GetParam(), 0xFEEDFACEDEADBEEFu, /*apply_workers=*/4,
                  middleware::ApplyPolicy::kConflictGraph);
  ASSERT_NE(a.fingerprint.find("stmt{"), std::string::npos)
      << "scenario must commit some writes";
  EXPECT_GT(a.overlapped, 0u)
      << "conflict-graph with 4 workers never overlapped two entries — "
         "the parallel path was not exercised";
  EXPECT_TRUE(a.converged)
      << "replicas diverged under parallel apply: version-order visibility "
         "or serial engine apply is broken";
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "parallel apply leaked hash-seed-dependent scheduler state into "
         "the commit sequence or table digests";
  EXPECT_EQ(a.path_table, b.path_table)
      << "attribution table changed with the hash seed under parallel apply";
  EXPECT_EQ(FirstDiffLine(a.path_sidecar, b.path_sidecar), "")
      << "wait-edge sidecar changed with the hash seed under parallel apply";
  EXPECT_EQ(FirstDiffLine(a.trace, b.trace), "")
      << "rendered chrome trace changed with the hash seed under parallel "
         "apply";
}

TEST_P(SimDeterminismTest, CrashRestartReplayIsHashSeedInvariant) {
  const std::string a = RunCrashRestartScenario(GetParam(), 0x00C0FFEEu);
  const std::string b =
      RunCrashRestartScenario(GetParam(), 0xFEEDFACEDEADBEEFu);
  ASSERT_NE(a.find("watermark="), std::string::npos);
  ASSERT_NE(a.find("stmt{"), std::string::npos)
      << "scenario must commit some writes";
  EXPECT_EQ(FirstDiffLine(a, b), "")
      << "crash-restart recovery produced different digests, watermarks or "
         "binlog bytes under hash-seed perturbation";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SimDeterminismTest,
    ::testing::Values(ReplicationMode::kMasterSlaveAsync,
                      ReplicationMode::kMasterSlaveSync,
                      ReplicationMode::kMultiMasterStatement,
                      ReplicationMode::kMultiMasterCertification),
    [](const ::testing::TestParamInfo<ReplicationMode>& info) {
      switch (info.param) {
        case ReplicationMode::kMasterSlaveAsync: return std::string("MasterSlaveAsync");
        case ReplicationMode::kMasterSlaveSync: return std::string("MasterSlaveSync");
        case ReplicationMode::kMultiMasterStatement: return std::string("MultiMasterStatement");
        case ReplicationMode::kMultiMasterCertification: return std::string("MultiMasterCertification");
      }
      return std::string("Unknown");
    });

TEST(HashSeedTest, SeedActuallyPerturbsIterationOrder) {
  // The harness is vacuous if the seed doesn't move iteration order: build
  // the same map under two seeds and require different traversals (with
  // enough elements, identical order under both seeds is ~impossible).
  auto order_under = [](uint64_t seed) {
    SetHashSeed(seed);
    HashMap<int, int> m;
    for (int i = 0; i < 200; ++i) m[i] = i;
    std::string order;
    for (const auto& [k, v] : m) order += std::to_string(k) + ",";
    SetHashSeed(0);
    return order;
  };
  EXPECT_NE(order_under(0x1234), order_under(0xABCDEF0123456789u))
      << "SeededHash must vary bucket assignment with the seed";
}

TEST(HashSeedTest, EnvSeedIsReadable) {
  // REPLIDB_HASH_SEED is consumed at first use; the in-process override
  // must round-trip so the double-run harness can perturb reliably.
  uint64_t prev = HashSeed();
  SetHashSeed(77);
  EXPECT_EQ(HashSeed(), 77u);
  SetHashSeed(prev);
}

}  // namespace
}  // namespace replidb
