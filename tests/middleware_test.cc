#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <string>
#include <vector>

#include "middleware/cluster.h"
#include "net/dispatcher.h"
#include "obs/metrics.h"
#include "ship/pipeline.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb::middleware {
namespace {

using sim::kMillisecond;
using sim::kSecond;

std::vector<std::string> AccountsSetup(int rows = 100) {
  std::vector<std::string> out;
  out.push_back("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)");
  std::string batch = "INSERT INTO accounts VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", 100)";
  }
  out.push_back(batch);
  return out;
}

TxnRequest Write(const std::string& sql) {
  TxnRequest r;
  r.statements = {sql};
  r.read_only = false;
  return r;
}

TxnRequest Read(const std::string& sql) {
  TxnRequest r;
  r.statements = {sql};
  r.read_only = true;
  return r;
}

/// Submits a txn and runs the simulator until its result arrives.
TxnResult RunTxn(Cluster* c, TxnRequest req, int driver = 0) {
  TxnResult out;
  bool done = false;
  c->driver(driver)->Submit(std::move(req), [&](const TxnResult& r) {
    out = r;
    done = true;
  });
  for (int i = 0; i < 300 && !done; ++i) c->sim.RunFor(250 * kMillisecond);
  EXPECT_TRUE(done) << "transaction never completed";
  return out;
}

std::unique_ptr<Cluster> MakeCluster(ReplicationMode mode, int replicas = 3,
                                     ConsistencyLevel consistency =
                                         ConsistencyLevel::kSessionPCSI) {
  ClusterOptions opts;
  opts.replicas = replicas;
  opts.controller.mode = mode;
  opts.controller.consistency = consistency;
  auto c = std::make_unique<Cluster>(std::move(opts));
  c->Setup(AccountsSetup());
  c->Start();
  return c;
}

class AllModesTest : public ::testing::TestWithParam<ReplicationMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModesTest,
    ::testing::Values(ReplicationMode::kMasterSlaveAsync,
                      ReplicationMode::kMasterSlaveSync,
                      ReplicationMode::kMultiMasterStatement,
                      ReplicationMode::kMultiMasterCertification),
    [](const ::testing::TestParamInfo<ReplicationMode>& info) {
      switch (info.param) {
        case ReplicationMode::kMasterSlaveAsync: return std::string("MsAsync");
        case ReplicationMode::kMasterSlaveSync: return std::string("MsSync");
        case ReplicationMode::kMultiMasterStatement: return std::string("MmStmt");
        case ReplicationMode::kMultiMasterCertification: return std::string("MmCert");
      }
      return std::string("Unknown");
    });

TEST_P(AllModesTest, WriteCommitsAndReadSeesIt) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(),
                       Write("UPDATE accounts SET balance = 555 WHERE id = 7"));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_GT(w.version, 0u);
  TxnResult r = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 7"));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 555)
      << "session consistency: read-your-writes";
}

TEST_P(AllModesTest, AllReplicasConverge) {
  auto c = MakeCluster(GetParam());
  for (int i = 0; i < 20; ++i) {
    TxnResult w = RunTxn(
        c.get(), Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
                       std::to_string(i % 10)));
    ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  }
  c->sim.RunFor(5 * kSecond);  // Drain async shipping / applies.
  EXPECT_TRUE(c->Converged()) << "replicas diverged under "
                              << ReplicationModeName(GetParam());
  EXPECT_EQ(c->TotalApplyErrors(), 0u);
}

TEST_P(AllModesTest, InsertsReplicate) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(), Write("INSERT INTO accounts VALUES (900, 1)"));
  ASSERT_TRUE(w.status.ok());
  c->sim.RunFor(5 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c->replica(i)->engine()->TableRowCount("main", "accounts"), 101u)
        << "replica " << i;
  }
}

TEST_P(AllModesTest, EngineErrorPropagatesToClient) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(), Write("INSERT INTO accounts VALUES (7, 0)"));
  EXPECT_EQ(w.status.code(), StatusCode::kConstraintViolation)
      << w.status.ToString();
  c->sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c->Converged());
}

TEST_P(AllModesTest, MultiStatementTransactionIsAtomic) {
  auto c = MakeCluster(GetParam());
  TxnRequest txn;
  txn.read_only = false;
  txn.statements = {
      "UPDATE accounts SET balance = balance - 50 WHERE id = 1",
      "UPDATE accounts SET balance = balance + 50 WHERE id = 2",
  };
  TxnResult w = RunTxn(c.get(), txn);
  ASSERT_TRUE(w.status.ok());
  c->sim.RunFor(5 * kSecond);
  TxnResult r = RunTxn(c.get(), Read("SELECT SUM(balance) FROM accounts"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100 * 100) << "money conserved";
  EXPECT_TRUE(c->Converged());
}

// --- Master-slave specifics -------------------------------------------------

TEST(MasterSlaveTest, SlavesLagBehindMasterUntilShipped) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.ship_interval = 500 * kMillisecond;  // Wide loss window.
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  ASSERT_TRUE(w.status.ok());
  // Immediately after the ack, slaves have not applied yet (1-safe).
  EXPECT_LT(c.replica(1)->applied_version(), w.version);
  c.sim.RunFor(2 * kSecond);
  EXPECT_GE(c.replica(1)->applied_version(), w.version);
}

TEST(MasterSlaveTest, TwoSafeWaitsForSlaveReceipt) {
  ClusterOptions a, b;
  for (auto* o : {&a, &b}) {
    o->replica.ship_interval = 200 * kMillisecond;
  }
  a.controller.mode = ReplicationMode::kMasterSlaveAsync;
  b.controller.mode = ReplicationMode::kMasterSlaveSync;
  Cluster ca(std::move(a)), cb(std::move(b));
  for (Cluster* c : {&ca, &cb}) {
    c->Setup(AccountsSetup());
    c->Start();
  }
  TxnResult w_async =
      RunTxn(&ca, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  TxnResult w_sync =
      RunTxn(&cb, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  ASSERT_TRUE(w_async.status.ok());
  ASSERT_TRUE(w_sync.status.ok());
  EXPECT_GT(w_sync.latency, w_async.latency)
      << "2-safe must pay the slave round trip (§2.2)";
}

TEST(MasterSlaveTest, FailoverPromotesSlaveAndWritesResume) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0")).status.ok());
  c.sim.RunFor(2 * kSecond);
  net::NodeId old_master = c.controller->master();
  c.replica(0)->Crash();  // Master is replica index 0 (node id 1).
  c.sim.RunFor(3 * kSecond);
  EXPECT_NE(c.controller->master(), old_master);
  EXPECT_EQ(c.controller->stats().failovers, 1u);
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 2 WHERE id = 0"));
  EXPECT_TRUE(w.status.ok()) << "writes must resume on the new master: "
                             << w.status.ToString();
}

TEST(MasterSlaveTest, OneSafeLosesUnshippedCommitsOnFailover) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.ship_interval = 10 * kSecond;  // Nothing ships in time.
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = 9 WHERE id = " +
                                 std::to_string(i)))
                    .status.ok());
  }
  c.replica(0)->Crash();
  c.sim.RunFor(3 * kSecond);
  EXPECT_EQ(c.controller->stats().lost_transactions, 5u)
      << "all five acked commits were inside the unshipped window";
}

TEST(MasterSlaveTest, TwoSafeLosesNothingOnFailover) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveSync;
  opts.replica.ship_interval = 10 * kSecond;  // Periodic shipping idle...
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 5; ++i) {
    // ...but 2-safe ships at commit: every ack implies slave receipt.
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = 9 WHERE id = " +
                                 std::to_string(i)))
                    .status.ok());
  }
  c.replica(0)->Crash();
  c.sim.RunFor(3 * kSecond);
  EXPECT_EQ(c.controller->stats().lost_transactions, 0u);
}

TEST(MasterSlaveTest, CrashedSlaveResyncsAndConverges) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.replica(2)->Crash();
  c.sim.RunFor(2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = balance + 1 "
                                 "WHERE id = " + std::to_string(i)))
                    .status.ok());
  }
  c.replica(2)->Restart();
  c.sim.RunFor(10 * kSecond);
  EXPECT_EQ(c.controller->replica_state(3), Controller::ReplicaState::kOnline);
  EXPECT_GE(c.controller->stats().resyncs_completed, 1u);
  EXPECT_TRUE(c.Converged()) << "rejoined slave must catch up";
}

// --- Consistency levels -------------------------------------------------------

TEST(ConsistencyTest, EventualReadsCanBeStale) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kEventual;
  opts.controller.reads_on_master = false;  // Force slave reads.
  opts.replica.ship_interval = 2 * kSecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3")).status.ok());
  TxnResult r = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100) << "stale slave read is allowed";
  EXPECT_GE(r.staleness, 1u);
}

TEST(ConsistencyTest, SessionPcsiGuaranteesReadYourWrites) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kSessionPCSI;
  opts.controller.reads_on_master = false;
  opts.replica.ship_interval = 300 * kMillisecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3")).status.ok());
  TxnResult r = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 777)
      << "session PCSI must wait for the session's own write";
}

TEST(ConsistencyTest, OtherSessionMayStillReadStaleUnderPcsi) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kSessionPCSI;
  opts.controller.reads_on_master = false;
  opts.replica.ship_interval = 2 * kSecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3"), 0)
          .status.ok());
  TxnResult r =
      RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"), 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100)
      << "PCSI is per-session; another session may read older state";
}

TEST(ConsistencyTest, StrongSiNeverServesStaleReads) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kStrongSI;
  opts.replica.ship_interval = 300 * kMillisecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = " +
                                 std::to_string(i) + " WHERE id = 3"), 0)
                    .status.ok());
    TxnResult r =
        RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"), 1);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.rows[0][0].AsInt(), i) << "strong SI read must be fresh";
  }
  EXPECT_EQ(c.controller->max_read_staleness(), 0u);
}

// --- Statement-mode non-determinism (§4.3.2) ---------------------------------

TEST(StatementModeTest, NowIsRewrittenAndReplicasConverge) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.clock_skew_per_replica = 1000000;  // 1 s skew per replica.
  Cluster c(std::move(opts));
  c.Setup({"CREATE TABLE events (id INT PRIMARY KEY, ts INT)"});
  c.Start();
  TxnResult w = RunTxn(&c, Write("INSERT INTO events VALUES (1, NOW())"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged())
      << "NOW() must be rewritten to a literal before broadcast";
}

TEST(StatementModeTest, PerRowRandIsRefusedByDefault) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = RAND()"));
  EXPECT_EQ(w.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.controller->stats().rejected_nondeterministic, 1u);
}

TEST(StatementModeTest, PerRowRandDivergesWhenBroadcastAnyway) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.controller.nondeterminism = NonDeterminismPolicy::kBroadcastAnyway;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = RAND()"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_FALSE(c.Converged())
      << "the paper's UPDATE t SET x=rand() example must diverge";
  EXPECT_EQ(c.controller->stats().unsafe_broadcasts, 1u);
}

TEST(StatementModeTest, UnorderedLimitSubqueryDiverges) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.controller.nondeterminism = NonDeterminismPolicy::kBroadcastAnyway;
  Cluster c(std::move(opts));
  std::vector<std::string> setup = {
      "CREATE TABLE foo (id INT PRIMARY KEY, keyvalue TEXT)"};
  std::string batch = "INSERT INTO foo VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", NULL)";
  }
  setup.push_back(batch);
  c.Setup(setup);
  c.Start();
  // The paper's exact example.
  TxnResult w = RunTxn(&c, Write(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL LIMIT 10)"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_FALSE(c.Converged())
      << "LIMIT without ORDER BY picks different rows per replica";
}

TEST(StatementModeTest, OrderedLimitSubqueryStaysConsistent) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  Cluster c(std::move(opts));
  std::vector<std::string> setup = {
      "CREATE TABLE foo (id INT PRIMARY KEY, keyvalue TEXT)"};
  std::string batch = "INSERT INTO foo VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", NULL)";
  }
  setup.push_back(batch);
  c.Setup(setup);
  c.Start();
  TxnResult w = RunTxn(&c, Write(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL ORDER BY id LIMIT 10)"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged()) << "ORDER BY makes the LIMIT deterministic";
}

// --- Certification mode --------------------------------------------------------

TEST(CertificationTest, ConflictingConcurrentWritesOneAborts) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 0;  // Surface the conflict.
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(Write("UPDATE accounts SET balance = 1 WHERE id = 5"),
                      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(Write("UPDATE accounts SET balance = 2 WHERE id = 5"),
                      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  int ok_count = (r1.status.ok() ? 1 : 0) + (r2.status.ok() ? 1 : 0);
  EXPECT_EQ(ok_count, 1) << "exactly one of two conflicting writes commits: "
                         << r1.status.ToString() << " / "
                         << r2.status.ToString();
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
}

TEST(CertificationTest, NonConflictingConcurrentWritesBothCommit) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 0;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(Write("UPDATE accounts SET balance = 1 WHERE id = 5"),
                      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(Write("UPDATE accounts SET balance = 2 WHERE id = 6"),
                      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
}

TEST(CertificationTest, DriverRetriesConflictsTransparently) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 5;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(
      Write("UPDATE accounts SET balance = balance + 1 WHERE id = 5"),
      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(
      Write("UPDATE accounts SET balance = balance + 1 WHERE id = 5"),
      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok()) << "retry absorbs the certification abort";
  c.sim.RunFor(5 * kSecond);
  TxnResult check = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 5"));
  EXPECT_EQ(check.rows[0][0].AsInt(), 102) << "both increments applied once";
}

// --- Management / SPOF ----------------------------------------------------------

TEST(ManagementTest, AddReplicaOnlineAndServes) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = balance + 1 "
                                 "WHERE id = " + std::to_string(i)))
                    .status.ok());
  }
  // Brand-new empty node.
  engine::RdbmsOptions eopts = c.options.engine;
  eopts.name = "replica-new";
  eopts.physical_seed = 7777;
  ReplicaNode fresh(&c.sim, c.network.get(), 50, eopts, c.options.replica);
  Status add_status = Status::Internal("callback never fired");
  c.controller->AddReplica(&fresh, /*donor=*/2,
                           [&](Status s) { add_status = s; });
  c.sim.RunFor(20 * kSecond);
  ASSERT_TRUE(add_status.ok()) << add_status.ToString();
  EXPECT_EQ(c.controller->replica_state(50), Controller::ReplicaState::kOnline);
  EXPECT_EQ(fresh.engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash())
      << "cloned replica must match the cluster";
}

TEST(ManagementTest, BackupViaControllerReturnsImage) {
  auto c = MakeCluster(ReplicationMode::kMasterSlaveAsync);
  bool done = false;
  c->controller->StartBackup(2, engine::BackupOptions{},
                             [&](Result<engine::BackupImage> image) {
                               ASSERT_TRUE(image.ok());
                               EXPECT_FALSE(image.value().databases.empty());
                               done = true;
                             });
  c->sim.RunFor(10 * kSecond);
  EXPECT_TRUE(done);
}

TEST(SpofTest, ControllerCrashTakesDownService) {
  auto c = MakeCluster(ReplicationMode::kMasterSlaveAsync);
  ASSERT_TRUE(
      RunTxn(c.get(), Write("UPDATE accounts SET balance = 1 WHERE id = 0")).status.ok());
  c->controller->Crash();
  TxnResult r = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 0"));
  EXPECT_FALSE(r.status.ok())
      << "with the (unreplicated) controller down, everything is down (§3.2)";
  c->controller->Restart();
  c->sim.RunFor(2 * kSecond);
  TxnResult r2 = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 0"));
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
}

TEST(QuorumTest, MajorityLossRefusesWrites) {
  ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.controller.require_majority_for_writes = true;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  opts.driver.max_retries = 0;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.replica(1)->Crash();
  c.replica(2)->Crash();
  c.sim.RunFor(3 * kSecond);
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  EXPECT_EQ(w.status.code(), StatusCode::kNoQuorum) << w.status.ToString();
}

// --- Load balancing -----------------------------------------------------------

TEST(LoadBalancingTest, ReadsSpreadAcrossReplicas) {
  ClusterOptions opts;
  opts.controller.load_balance = LoadBalancePolicy::kRoundRobin;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  uint64_t before[3];
  for (int i = 0; i < 3; ++i) {
    before[i] = c.replica(i)->engine()->stats().statements_executed;
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 1")).status.ok());
  }
  for (int i = 0; i < 3; ++i) {
    uint64_t served =
        c.replica(i)->engine()->stats().statements_executed - before[i];
    EXPECT_GT(served, 0u) << "replica " << i << " served no reads";
  }
}

// --- End-to-end under load ------------------------------------------------------

TEST(EndToEndTest, TicketBrokerWorkloadRunsCleanAndConverges) {
  ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  Cluster c(std::move(opts));
  workload::TicketBrokerWorkload::Options wo;
  wo.items = 300;
  workload::TicketBrokerWorkload w(wo);
  c.Setup(w.SetupStatements());
  c.Start();
  workload::OpenLoopGenerator gen(&c.sim, c.driver(), &w, /*rate_tps=*/300,
                                  /*seed=*/5);
  gen.Run(20 * kSecond);
  const workload::RunStats& stats = gen.stats();
  EXPECT_GT(stats.committed, 4000u);
  EXPECT_LT(stats.AbortRate(), 0.01);
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
  EXPECT_GT(stats.latency_ms.Mean(), 0.0);
}


// --- Ordered replication stream ---------------------------------------------
//
// One replica driven by a scripted peer: the peer ships entries, sends
// statement-mode and certification messages, and records what comes back.

class OrderedStreamTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kReplica = 1;
  static constexpr net::NodeId kPeer = 9;

  void SetUp() override {
    network_ = std::make_unique<net::Network>(&sim_);
    engine::RdbmsOptions eopts;
    eopts.name = "stream-replica";
    replica_ = std::make_unique<ReplicaNode>(&sim_, network_.get(), kReplica,
                                             eopts);
    replica_->AdminExec("CREATE TABLE kv (id INT PRIMARY KEY, v INT)");
    replica_->AdminExec("INSERT INTO kv VALUES (1, 1), (2, 2)");
    replica_->MarkSetupComplete();
    base_ = replica_->applied_version();
    peer_ = std::make_unique<net::Dispatcher>(network_.get(), kPeer);
    peer_->On(kMsgExecReply, [this](const net::Message& m) {
      exec_replies_.push_back(*std::any_cast<ExecTxnReply>(&m.body));
    });
    peer_->On(kMsgFinishReply, [this](const net::Message& m) {
      finish_replies_.push_back(*std::any_cast<FinishTxnReply>(&m.body));
    });
    peer_->On(kMsgShipAck, [this](const net::Message& m) {
      acks_.push_back(std::any_cast<ShipAckMsg>(&m.body)->version);
    });
    peer_->On(ship::kMsgShipCredit, [this](const net::Message& m) {
      credit_bytes_ += std::any_cast<ship::ShipCreditMsg>(&m.body)->bytes;
    });
    sim_.RunFor(10 * kMillisecond);  // Nonzero origin times from here on.
  }

  /// Ships one statement entry at base_ + `offset` in its own batch.
  void Ship(GlobalVersion offset, const std::string& sql, bool ack = false) {
    ReplicationEntry e;
    e.version = base_ + offset;
    e.statements = {sql};
    e.use_statements = true;
    e.origin_commit_us = sim_.Now();
    ship::ShipBatchMsg batch;
    batch.entries.push_back(e);
    if (ack) batch.ack_versions.push_back(e.version);
    batch.sent_us = sim_.Now();
    peer_->Send(kReplica, ship::kMsgShipBatch, batch, kShipBytes);
  }

  /// Sends a statement-mode ordered write for slot base_ + `offset`.
  void Exec(uint64_t req, GlobalVersion offset, const std::string& sql) {
    ExecTxnMsg msg;
    msg.req_id = req;
    msg.statements = {sql};
    msg.order = offset == 0 ? 0 : base_ + offset;
    msg.hold_commit = offset == 0;  // Unordered: a certification write.
    peer_->Send(kReplica, kMsgExec, msg, ExecMsgWireSize(msg));
  }

  /// Commits held transaction `req` in slot base_ + `offset`.
  void CommitHeld(uint64_t req, GlobalVersion offset) {
    FinishTxnMsg msg;
    msg.req_id = req;
    msg.commit = true;
    msg.version = base_ + offset;
    msg.entry.version = msg.version;
    msg.entry.origin_commit_us = sim_.Now();
    peer_->Send(kReplica, kMsgFinish, msg, kControlWireBytes);
  }

  int64_t Value(int id) {
    engine::ExecResult r = replica_->AdminExec(
        "SELECT v FROM kv WHERE id = " + std::to_string(id));
    EXPECT_TRUE(r.ok() && r.rows.size() == 1) << r.status.ToString();
    return r.ok() && r.rows.size() == 1 ? r.rows[0][0].AsInt() : -1;
  }

  static size_t LagSamples() {
    return obs::MetricsRegistry::Global()
        .GetHistogram("replica.apply.lag_ms")
        ->count();
  }

  void Run() { sim_.RunFor(500 * kMillisecond); }

  static constexpr int64_t kShipBytes = 200;

  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<ReplicaNode> replica_;
  std::unique_ptr<net::Dispatcher> peer_;
  GlobalVersion base_ = 0;
  std::vector<ExecTxnReply> exec_replies_;
  std::vector<FinishTxnReply> finish_replies_;
  std::vector<GlobalVersion> acks_;
  int64_t credit_bytes_ = 0;
};

TEST_F(OrderedStreamTest, ShippedEntriesApplyInVersionOrder) {
  size_t lag_before = LagSamples();
  Ship(3, "UPDATE kv SET v = v + 5 WHERE id = 1");
  Ship(2, "UPDATE kv SET v = v * 10 WHERE id = 1");
  Run();
  EXPECT_EQ(replica_->apply_backlog(), 2u) << "gap at base+1 must hold both";
  EXPECT_EQ(Value(1), 1);
  Ship(1, "UPDATE kv SET v = 4 WHERE id = 1");
  Run();
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  EXPECT_EQ(replica_->applied_version(), base_ + 3);
  EXPECT_EQ(Value(1), 45) << "(4 * 10) + 5: applied in version order";
  EXPECT_EQ(replica_->apply_errors(), 0u);
  EXPECT_EQ(LagSamples(), lag_before + 3) << "each applied entry has a lag";
  EXPECT_EQ(credit_bytes_, 3 * kShipBytes) << "credits mature on apply";
}

TEST_F(OrderedStreamTest, ShippedDuplicateIsAckedAndRefundedNotReapplied) {
  Ship(1, "UPDATE kv SET v = v + 5 WHERE id = 1");
  Run();
  ASSERT_EQ(Value(1), 6);
  credit_bytes_ = 0;
  Ship(1, "UPDATE kv SET v = v + 5 WHERE id = 1", /*ack=*/true);
  Ship(2, "UPDATE kv SET v = v + 1 WHERE id = 2", /*ack=*/false);
  Ship(4, "UPDATE kv SET v = v + 1 WHERE id = 2", /*ack=*/false);
  Run();
  EXPECT_EQ(Value(1), 6) << "a duplicate must not apply twice";
  EXPECT_EQ(acks_, std::vector<GlobalVersion>{base_ + 1});
  // The duplicate's credit comes back at once, the applied entry's on
  // apply; base+4 is buffered behind a gap, so its credit is still owed.
  EXPECT_EQ(credit_bytes_, 2 * kShipBytes);
  EXPECT_EQ(replica_->apply_backlog(), 1u);
}

TEST_F(OrderedStreamTest, ExecSlotsRunInOrderAndReplyAtCompletion) {
  size_t lag_before = LagSamples();
  Exec(2, 2, "UPDATE kv SET v = v * 10 WHERE id = 1");
  Run();
  EXPECT_TRUE(exec_replies_.empty()) << "slot base+2 waits for base+1";
  EXPECT_EQ(replica_->apply_backlog(), 1u);
  Exec(1, 1, "UPDATE kv SET v = 4 WHERE id = 1");
  Run();
  ASSERT_EQ(exec_replies_.size(), 2u);
  EXPECT_EQ(exec_replies_[0].req_id, 1u);
  EXPECT_EQ(exec_replies_[1].req_id, 2u);
  EXPECT_TRUE(exec_replies_[0].status.ok());
  EXPECT_TRUE(exec_replies_[1].status.ok());
  EXPECT_EQ(Value(1), 40);
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  EXPECT_EQ(replica_->applied_version(), base_ + 2);
  EXPECT_EQ(LagSamples(), lag_before) << "exec slots record no apply lag";
}

TEST_F(OrderedStreamTest, HeldCommitReplacesBufferedShippedEntry) {
  size_t lag_before = LagSamples();
  Exec(7, 0, "UPDATE kv SET v = 100 WHERE id = 1");  // Held, uncommitted.
  Run();
  ASSERT_EQ(exec_replies_.size(), 1u);
  ASSERT_TRUE(exec_replies_[0].status.ok());
  // A copy of the certified entry reaches the origin first (e.g. resync
  // replay), then the origin's own commit for the same slot.
  Ship(2, "UPDATE kv SET v = 999 WHERE id = 1");
  Run();
  CommitHeld(7, 2);
  Run();
  EXPECT_EQ(replica_->apply_backlog(), 1u);
  EXPECT_TRUE(finish_replies_.empty());
  Ship(1, "UPDATE kv SET v = v + 1 WHERE id = 2");
  Run();
  ASSERT_EQ(finish_replies_.size(), 1u);
  EXPECT_EQ(finish_replies_[0].req_id, 7u);
  EXPECT_TRUE(finish_replies_[0].status.ok());
  EXPECT_EQ(finish_replies_[0].version, base_ + 2);
  EXPECT_EQ(Value(1), 100) << "the held session committed the slot";
  EXPECT_EQ(Value(2), 3);
  EXPECT_EQ(replica_->apply_errors(), 0u);
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  EXPECT_EQ(LagSamples(), lag_before + 1)
      << "only the shipped entry at base+1 records apply lag";
}

TEST_F(OrderedStreamTest, RestoreDropsSupersededSlotsOfEveryKind) {
  Exec(7, 0, "UPDATE kv SET v = 100 WHERE id = 1");  // Held, uncommitted.
  Run();
  ASSERT_EQ(exec_replies_.size(), 1u);
  // Gap at base+1; base+2..4 are superseded by the image, base+5..6 not.
  Ship(2, "UPDATE kv SET v = 222 WHERE id = 2");
  Exec(3, 3, "UPDATE kv SET v = 333 WHERE id = 2");
  CommitHeld(7, 4);
  Ship(5, "UPDATE kv SET v = v + 1 WHERE id = 2");
  Exec(6, 6, "UPDATE kv SET v = v * 10 WHERE id = 2");
  Run();
  ASSERT_EQ(replica_->apply_backlog(), 5u);
  // A restore needs every session closed: roll the held transaction back.
  // Its commit slot stays buffered.
  FinishTxnMsg abort_msg;
  abort_msg.req_id = 7;
  peer_->Send(kReplica, kMsgFinish, abort_msg, kControlWireBytes);
  Run();
  ASSERT_EQ(finish_replies_.size(), 1u);
  ASSERT_EQ(replica_->apply_backlog(), 5u);

  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  Result<engine::BackupImage> image = replica_->engine()->Backup(bo);
  ASSERT_TRUE(image.ok());
  RestoreMsg restore;
  restore.req_id = 42;
  restore.image = image.TakeValue();
  restore.as_of_version = base_ + 4;
  int64_t bytes = restore.image.SizeBytes() + 128;
  peer_->Send(kReplica, kMsgRestore, restore, bytes);
  Run();
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  EXPECT_EQ(replica_->applied_version(), base_ + 6);
  EXPECT_EQ(Value(2), 30) << "(2 + 1) * 10: only the slots above the image";
  ASSERT_EQ(exec_replies_.size(), 2u);
  EXPECT_EQ(exec_replies_[1].req_id, 6u) << "the dropped exec slot is silent";
  EXPECT_EQ(finish_replies_.size(), 1u) << "the dropped held commit is silent";
}

TEST_F(OrderedStreamTest, CrashRestartLeavesNoSlot) {
  Exec(7, 0, "UPDATE kv SET v = 100 WHERE id = 1");  // Held, uncommitted.
  Run();
  Ship(2, "UPDATE kv SET v = 222 WHERE id = 2");
  Exec(3, 3, "UPDATE kv SET v = 333 WHERE id = 2");
  CommitHeld(7, 4);
  Run();
  ASSERT_EQ(replica_->apply_backlog(), 3u);
  replica_->Crash();
  replica_->Restart();
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  Ship(1, "UPDATE kv SET v = v + 1 WHERE id = 2");
  Run();
  EXPECT_EQ(replica_->apply_backlog(), 0u);
  EXPECT_EQ(replica_->applied_version(), base_ + 1)
      << "slots buffered before the crash must not drain after it";
  EXPECT_EQ(Value(2), 3);
}

}  // namespace
}  // namespace replidb::middleware
