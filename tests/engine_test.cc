#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "engine/image_codec.h"
#include "engine/rdbms.h"

namespace replidb::engine {
namespace {

using sql::Value;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RdbmsOptions opts;
    opts.name = "test-db";
    db_ = std::make_unique<Rdbms>(opts);
    session_ = db_->Connect().value();
  }

  ExecResult Exec(const std::string& sql) { return db_->Execute(session_, sql); }

  ExecResult MustExec(const std::string& sql) {
    ExecResult r = Exec(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status.ToString();
    return r;
  }

  void MakeAccounts() {
    MustExec("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)");
    MustExec("INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob'), "
             "(3, 300, 'carol')");
  }

  std::unique_ptr<Rdbms> db_;
  SessionId session_ = 0;
};

// --- Basic DDL/DML -----------------------------------------------------------

TEST_F(EngineTest, CreateInsertSelect) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT * FROM accounts ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"id", "balance", "owner"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[2][2].AsString(), "carol");
}

TEST_F(EngineTest, SelectWithWhereAndProjection) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT owner, balance * 2 FROM accounts WHERE balance >= 200 ORDER BY balance");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
  EXPECT_EQ(r.rows[0][1].AsInt(), 400);
}

TEST_F(EngineTest, UpdateAffectsMatchingRows) {
  MakeAccounts();
  ExecResult r = MustExec("UPDATE accounts SET balance = balance + 10 WHERE id <= 2");
  EXPECT_EQ(r.affected, 2);
  ExecResult check = MustExec("SELECT balance FROM accounts ORDER BY id");
  EXPECT_EQ(check.rows[0][0].AsInt(), 110);
  EXPECT_EQ(check.rows[1][0].AsInt(), 210);
  EXPECT_EQ(check.rows[2][0].AsInt(), 300);
}

TEST_F(EngineTest, DeleteRemovesRows) {
  MakeAccounts();
  ExecResult r = MustExec("DELETE FROM accounts WHERE balance > 150");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 1u);
}

TEST_F(EngineTest, Aggregates) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) FROM accounts");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 600);
  EXPECT_EQ(r.rows[0][2].AsInt(), 100);
  EXPECT_EQ(r.rows[0][3].AsInt(), 300);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 200.0);
}

TEST_F(EngineTest, AggregatesOnEmptyTable) {
  MustExec("CREATE TABLE t (x INT)");
  ExecResult r = MustExec("SELECT COUNT(*), SUM(x), AVG(x) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT id FROM accounts ORDER BY balance DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
}

TEST_F(EngineTest, PrimaryKeyUniqueness) {
  MakeAccounts();
  ExecResult r = Exec("INSERT INTO accounts VALUES (1, 0, 'dup')");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, UniqueColumnEnforced) {
  MustExec("CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)");
  MustExec("INSERT INTO u VALUES (1, 'a@x.com')");
  ExecResult r = Exec("INSERT INTO u VALUES (2, 'a@x.com')");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, NotNullEnforced) {
  MustExec("CREATE TABLE n (id INT PRIMARY KEY, v TEXT NOT NULL)");
  ExecResult r = Exec("INSERT INTO n VALUES (1, NULL)");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, MultiRowInsertIsAtomicPerStatement) {
  MakeAccounts();
  // Third row duplicates PK 1: the whole statement must be undone.
  ExecResult r = Exec("INSERT INTO accounts VALUES (10, 1, 'x'), (11, 2, 'y'), (1, 3, 'dup')");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, AutoIncrementAssignsAndLeavesHoles) {
  MustExec("CREATE TABLE seqt (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  MustExec("INSERT INTO seqt (v) VALUES ('a')");
  MustExec("INSERT INTO seqt (v) VALUES ('b')");
  // Failed statement consumes an id (the paper's "holes" behaviour).
  Exec("INSERT INTO seqt (id, v) VALUES (2, 'dup')");
  MustExec("INSERT INTO seqt (v) VALUES ('c')");
  ExecResult r = MustExec("SELECT id FROM seqt ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
  EXPECT_EQ(r.rows[2][0].AsInt(), 3);
}

TEST_F(EngineTest, DropTable) {
  MakeAccounts();
  MustExec("DROP TABLE accounts");
  EXPECT_FALSE(Exec("SELECT * FROM accounts").ok());
  MustExec("DROP TABLE IF EXISTS accounts");
  EXPECT_FALSE(Exec("DROP TABLE accounts").ok());
}

// --- Transactions -------------------------------------------------------------

TEST_F(EngineTest, CommitMakesChangesVisibleToOthers) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  // Other session still sees the old value.
  ExecResult before = db_->Execute(other, "SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(before.rows[0][0].AsInt(), 100);
  MustExec("COMMIT");
  ExecResult after = db_->Execute(other, "SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(after.rows[0][0].AsInt(), 0);
}

TEST_F(EngineTest, RollbackDiscardsChanges) {
  MakeAccounts();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO accounts VALUES (9, 9, 'z')");
  MustExec("ROLLBACK");
  ExecResult r = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, WriteWriteConflictAbortsNoWait) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");
  db_->Execute(other, "BEGIN");
  ExecResult r = db_->Execute(other, "UPDATE accounts SET balance = 2 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlock);
  MustExec("COMMIT");
}

TEST_F(EngineTest, SnapshotIsolationRepeatableRead) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  ASSERT_TRUE(db_->SetIsolation(session_, IsolationLevel::kSnapshot).ok());
  MustExec("BEGIN");
  ExecResult r1 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  // Concurrent committed update.
  db_->Execute(other, "UPDATE accounts SET balance = 999 WHERE id = 1");
  ExecResult r2 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r1.rows[0][0].AsInt(), r2.rows[0][0].AsInt()) << "snapshot must not move";
  MustExec("COMMIT");
}

TEST_F(EngineTest, ReadCommittedSeesNewCommits) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  ExecResult r1 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r1.rows[0][0].AsInt(), 100);
  db_->Execute(other, "UPDATE accounts SET balance = 999 WHERE id = 1");
  ExecResult r2 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r2.rows[0][0].AsInt(), 999) << "read-committed re-snapshots";
  MustExec("COMMIT");
}

TEST_F(EngineTest, SiFirstUpdaterWins) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSnapshot);
  db_->SetIsolation(other, IsolationLevel::kSnapshot);
  MustExec("BEGIN");
  MustExec("SELECT * FROM accounts");  // Take the snapshot.
  // Other transaction updates and commits the row first.
  db_->Execute(other, "UPDATE accounts SET balance = 5 WHERE id = 1");
  ExecResult r = Exec("UPDATE accounts SET balance = 6 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kConflict);
}

TEST_F(EngineTest, SiAllowsWriteSkew) {
  // The classic SI anomaly: two txns each read both rows, write different
  // rows; both commit under SI (would be forbidden under 1SR).
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSnapshot);
  db_->SetIsolation(other, IsolationLevel::kSnapshot);
  MustExec("BEGIN");
  db_->Execute(other, "BEGIN");
  MustExec("SELECT SUM(balance) FROM accounts");
  db_->Execute(other, "SELECT SUM(balance) FROM accounts");
  EXPECT_TRUE(Exec("UPDATE accounts SET balance = 0 WHERE id = 1").ok());
  EXPECT_TRUE(db_->Execute(other, "UPDATE accounts SET balance = 0 WHERE id = 2").ok());
  EXPECT_TRUE(Exec("COMMIT").ok());
  EXPECT_TRUE(db_->Execute(other, "COMMIT").ok());
}

TEST_F(EngineTest, SerializableForbidsWriteSkew) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSerializable);
  db_->SetIsolation(other, IsolationLevel::kSerializable);
  MustExec("BEGIN");
  db_->Execute(other, "BEGIN");
  MustExec("SELECT SUM(balance) FROM accounts");
  db_->Execute(other, "SELECT SUM(balance) FROM accounts");
  // Table-granularity 2PL: the second writer hits the other's read lock.
  ExecResult w1 = Exec("UPDATE accounts SET balance = 0 WHERE id = 1");
  EXPECT_EQ(w1.status.code(), StatusCode::kDeadlock);
}

TEST_F(EngineTest, SerializableReadersBlockWritersNoWait) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(other, IsolationLevel::kSerializable);
  db_->Execute(other, "BEGIN");
  db_->Execute(other, "SELECT * FROM accounts");
  db_->SetIsolation(session_, IsolationLevel::kSerializable);
  MustExec("BEGIN");
  ExecResult r = Exec("UPDATE accounts SET balance = 1 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlock);
  db_->Execute(other, "COMMIT");
}

// --- Dialect behaviour profiles (§4.1.2) ---------------------------------------

TEST(DialectTest, PostgresPoisonsTransactionOnError) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::PostgresLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
  db.Execute(s, "BEGIN");
  db.Execute(s, "INSERT INTO t VALUES (1)");
  ExecResult bad = db.Execute(s, "INSERT INTO t VALUES (1)");  // Dup.
  EXPECT_FALSE(bad.ok());
  ExecResult next = db.Execute(s, "INSERT INTO t VALUES (2)");
  EXPECT_EQ(next.status.code(), StatusCode::kAborted)
      << "poisoned transaction must reject further statements";
  ExecResult commit = db.Execute(s, "COMMIT");
  EXPECT_EQ(commit.status.code(), StatusCode::kAborted);
  EXPECT_EQ(db.TableRowCount("main", "t"), 0u) << "everything rolled back";
}

TEST(DialectTest, MysqlContinuesAfterError) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::MysqlLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
  db.Execute(s, "BEGIN");
  db.Execute(s, "INSERT INTO t VALUES (1)");
  ExecResult bad = db.Execute(s, "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(bad.ok());
  ExecResult next = db.Execute(s, "INSERT INTO t VALUES (2)");
  EXPECT_TRUE(next.ok()) << "MySQL-like keeps the transaction alive";
  EXPECT_TRUE(db.Execute(s, "COMMIT").ok());
  EXPECT_EQ(db.TableRowCount("main", "t"), 2u);
}

TEST(DialectTest, NoSnapshotIsolationFallsBackToReadCommitted) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::MysqlLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  ASSERT_TRUE(db.SetIsolation(s, IsolationLevel::kSnapshot).ok());
  EXPECT_EQ(db.EffectiveIsolation(s), IsolationLevel::kReadCommitted);
}

TEST(DialectTest, SybaseRefusesTempTablesInTransactions) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::SybaseLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "BEGIN");
  ExecResult r = db.Execute(s, "CREATE TEMPORARY TABLE tmp (x INT)");
  EXPECT_EQ(r.status.code(), StatusCode::kNotSupported);
}

// --- Temporary tables (§4.1.4) --------------------------------------------------

TEST_F(EngineTest, TempTablesAreSessionScoped) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT, v TEXT)");
  MustExec("INSERT INTO tmp VALUES (1, 'x')");
  SessionId other = db_->Connect().value();
  ExecResult r = db_->Execute(other, "SELECT * FROM tmp");
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound)
      << "temp table must be invisible to other sessions";
}

TEST_F(EngineTest, TempTablesDroppedOnDisconnect) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT)");
  MustExec("INSERT INTO tmp VALUES (1)");
  db_->Disconnect(session_);
  session_ = db_->Connect().value();
  EXPECT_FALSE(Exec("SELECT * FROM tmp").ok());
}

TEST_F(EngineTest, TempTableShadowsRealTable) {
  MustExec("CREATE TABLE t (x INT)");
  MustExec("INSERT INTO t VALUES (42)");
  MustExec("CREATE TEMPORARY TABLE t (x INT)");
  ExecResult r = MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0) << "temp table shadows the real one";
}

TEST_F(EngineTest, TempTableWritesNotInBinlogOrWriteset) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT)");
  size_t before = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("INSERT INTO tmp VALUES (1)");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->ops.empty()) << "temp-table writes invisible to replication";
  MustExec("COMMIT");
  // The statement text IS recorded (statement replication would replay it);
  // row capture is what's missing — the gap the paper describes.
  EXPECT_GE(db_->binlog().size(), before);
}

// --- Sequences (§4.2.3) -----------------------------------------------------------

TEST_F(EngineTest, SequencesAdvanceAndSurviveRollback) {
  MustExec("CREATE SEQUENCE s START 10");
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("BEGIN");
  MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  MustExec("ROLLBACK");
  // The draw is not returned: next use sees a hole.
  MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  ExecResult r = MustExec("SELECT id FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11) << "sequence hole after rollback";
  EXPECT_EQ(db_->SequenceValue("main", "s"), 12);
}

TEST_F(EngineTest, MissingSequenceErrors) {
  MustExec("CREATE TABLE t (id INT)");
  EXPECT_FALSE(Exec("INSERT INTO t VALUES (NEXTVAL('nope'))").ok());
}

// --- Multi-database (§4.1.1) ---------------------------------------------------

TEST_F(EngineTest, MultiDatabaseQueries) {
  MustExec("CREATE DATABASE reporting");
  MustExec("CREATE TABLE reporting.daily (d INT, total INT)");
  MustExec("INSERT INTO reporting.daily VALUES (1, 5)");
  ExecResult r = MustExec("SELECT total FROM reporting.daily WHERE d = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(EngineTest, CrossDatabaseTransaction) {
  MakeAccounts();
  MustExec("CREATE DATABASE audit");
  MustExec("CREATE TABLE audit.log (id INT PRIMARY KEY AUTO_INCREMENT, note TEXT)");
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO audit.log (note) VALUES ('zeroed')");
  MustExec("ROLLBACK");
  EXPECT_EQ(db_->TableRowCount("audit", "log"), 0u)
      << "cross-database transaction must roll back atomically";
}

// --- Triggers (§4.1.1 / §4.1.5) ---------------------------------------------------

TEST_F(EngineTest, TriggerWritesToAnotherDatabase) {
  MakeAccounts();
  MustExec("CREATE DATABASE reporting");
  MustExec("CREATE TABLE reporting.changes (id INT PRIMARY KEY AUTO_INCREMENT, acct INT)");
  TriggerDef t;
  t.name = "audit_updates";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kUpdate;
  t.action = [](Rdbms* db, SessionId sid, const WriteOp& op) {
    return db->Execute(sid, "INSERT INTO reporting.changes (acct) VALUES (" +
                                op.primary_key.ToString() + ")")
        .status;
  };
  db_->RegisterTrigger(std::move(t));
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 2");
  EXPECT_EQ(db_->TableRowCount("reporting", "changes"), 1u);
}

TEST_F(EngineTest, PerUserTriggerOnlyFiresForThatUser) {
  MakeAccounts();
  db_->CreateUser("batch");
  MustExec("CREATE TABLE audit_rows (n INT)");
  TriggerDef t;
  t.name = "only_batch";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kUpdate;
  t.only_for_user = "batch";
  t.action = [](Rdbms* db, SessionId sid, const WriteOp&) {
    return db->Execute(sid, "INSERT INTO audit_rows VALUES (1)").status;
  };
  db_->RegisterTrigger(std::move(t));
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");  // admin session.
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 0u);
  SessionId batch = db_->Connect("batch").value();
  db_->Execute(batch, "UPDATE accounts SET balance = 2 WHERE id = 1");
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 1u)
      << "the same SQL has a different effect per user (§4.1.5)";
}

TEST_F(EngineTest, FailedStatementFiresNoTriggers) {
  MakeAccounts();
  MustExec("CREATE TABLE audit_rows (n INT)");
  TriggerDef t;
  t.name = "on_insert";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kInsert;
  t.action = [](Rdbms* db, SessionId sid, const WriteOp&) {
    return db->Execute(sid, "INSERT INTO audit_rows VALUES (1)").status;
  };
  db_->RegisterTrigger(std::move(t));
  Exec("INSERT INTO accounts VALUES (50, 0, 'x'), (1, 0, 'dup')");  // Fails.
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 0u);
}

// --- Stored procedures (§4.2.1) ------------------------------------------------

TEST_F(EngineTest, StoredProcedureRunsInCallerTransaction) {
  MakeAccounts();
  db_->RegisterProcedure("transfer", [](ProcedureContext* ctx) {
    int64_t from = ctx->args()[0].AsInt();
    int64_t to = ctx->args()[1].AsInt();
    int64_t amount = ctx->args()[2].AsInt();
    ExecResult r1 = ctx->Exec("UPDATE accounts SET balance = balance - " +
                              std::to_string(amount) + " WHERE id = " +
                              std::to_string(from));
    if (!r1.ok()) return r1.status;
    return ctx->Exec("UPDATE accounts SET balance = balance + " +
                     std::to_string(amount) + " WHERE id = " +
                     std::to_string(to))
        .status;
  });
  MustExec("CALL transfer(1, 2, 50)");
  ExecResult r = MustExec("SELECT balance FROM accounts ORDER BY id");
  EXPECT_EQ(r.rows[0][0].AsInt(), 50);
  EXPECT_EQ(r.rows[1][0].AsInt(), 250);
}

TEST_F(EngineTest, StoredProcedureRollsBackWithTransaction) {
  MakeAccounts();
  db_->RegisterProcedure("zero_all", [](ProcedureContext* ctx) {
    return ctx->Exec("UPDATE accounts SET balance = 0").status;
  });
  MustExec("BEGIN");
  MustExec("CALL zero_all()");
  MustExec("ROLLBACK");
  ExecResult r = MustExec("SELECT SUM(balance) FROM accounts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 600);
}

TEST_F(EngineTest, UnknownProcedureFails) {
  EXPECT_EQ(Exec("CALL nope()").status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ProcedureInnerStatementsAreBinlogged) {
  MakeAccounts();
  db_->RegisterProcedure("bump", [](ProcedureContext* ctx) {
    return ctx->Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
        .status;
  });
  size_t before = db_->binlog().size();
  MustExec("CALL bump()");
  ASSERT_EQ(db_->binlog().size(), before + 1);
  const BinlogEntry& e = db_->binlog().back();
  ASSERT_EQ(e.statements.size(), 1u);
  EXPECT_EQ(e.statements[0].find("CALL"), std::string::npos)
      << "inner statements, not the CALL, are logged";
  EXPECT_NE(e.statements[0].find("UPDATE"), std::string::npos);
}

// --- Binlog & writesets --------------------------------------------------------

TEST_F(EngineTest, BinlogRecordsCommittedTransactions) {
  MakeAccounts();
  size_t base = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO accounts VALUES (7, 70, 'g')");
  MustExec("COMMIT");
  ASSERT_EQ(db_->binlog().size(), base + 1);
  const BinlogEntry& e = db_->binlog().back();
  EXPECT_EQ(e.statements.size(), 2u);
  EXPECT_EQ(e.writeset.ops.size(), 2u);
  EXPECT_EQ(e.session_user, "admin");
}

TEST_F(EngineTest, RolledBackTransactionNotInBinlog) {
  MakeAccounts();
  size_t base = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("ROLLBACK");
  EXPECT_EQ(db_->binlog().size(), base);
}

TEST_F(EngineTest, WritesetCapturesAfterImages) {
  MakeAccounts();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 42 WHERE id = 2");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  ASSERT_EQ(ws->ops.size(), 1u);
  EXPECT_EQ(ws->ops[0].kind, WriteOpKind::kUpdate);
  EXPECT_EQ(ws->ops[0].primary_key.AsInt(), 2);
  EXPECT_EQ(ws->ops[0].after[1].AsInt(), 42);
  MustExec("COMMIT");
}

TEST_F(EngineTest, WritesetIncompleteWithoutPrimaryKey) {
  MustExec("CREATE TABLE nopk (x INT)");
  MustExec("BEGIN");
  MustExec("INSERT INTO nopk VALUES (1)");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->incomplete);
  MustExec("COMMIT");
}

TEST_F(EngineTest, ApplyWritesetReplaysOnAnotherReplica) {
  MakeAccounts();
  // Second replica with the same schema and data.
  RdbmsOptions opts2;
  opts2.name = "replica2";
  opts2.physical_seed = 99;
  Rdbms db2(opts2);
  SessionId s2 = db2.Connect().value();
  db2.Execute(s2, "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)");
  db2.Execute(s2, "INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob'), (3, 300, 'carol')");
  EXPECT_EQ(db_->ContentHash(), db2.ContentHash());

  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 7 WHERE id = 1");
  MustExec("DELETE FROM accounts WHERE id = 3");
  MustExec("INSERT INTO accounts VALUES (4, 40, 'dan')");
  Writeset ws = *db_->CurrentWriteset(session_);
  MustExec("COMMIT");

  ASSERT_TRUE(db2.ApplyWriteset(ws).ok());
  EXPECT_EQ(db_->ContentHash(), db2.ContentHash())
      << "replica content must converge after writeset apply";
}

TEST_F(EngineTest, ContentHashIgnoresPhysicalOrder) {
  RdbmsOptions a, b;
  a.physical_seed = 1;
  b.physical_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  for (Rdbms* db : {&dba, &dbb}) {
    SessionId s = (db == &dba) ? sa : sb;
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)");
    db->Execute(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  }
  EXPECT_EQ(dba.ContentHash(), dbb.ContentHash());
}

TEST_F(EngineTest, PhysicalOrderDiffersAcrossSeeds) {
  RdbmsOptions a, b;
  a.physical_seed = 1;
  b.physical_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  std::string fill = "INSERT INTO t VALUES ";
  for (int i = 0; i < 20; ++i) {
    fill += (i ? ", (" : "(") + std::to_string(i) + ")";
  }
  for (Rdbms* db : {&dba, &dbb}) {
    SessionId s = (db == &dba) ? sa : sb;
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
    db->Execute(s, fill);
  }
  ExecResult ra = dba.Execute(sa, "SELECT id FROM t LIMIT 5");
  ExecResult rb = dbb.Execute(sb, "SELECT id FROM t LIMIT 5");
  ASSERT_EQ(ra.rows.size(), 5u);
  ASSERT_EQ(rb.rows.size(), 5u);
  bool same = true;
  for (size_t i = 0; i < 5; ++i) {
    same = same && ra.rows[i][0].AsInt() == rb.rows[i][0].AsInt();
  }
  EXPECT_FALSE(same) << "unordered LIMIT picks different rows per replica";
}

// --- Backup / restore (§4.4.1, §4.1.5) -------------------------------------------

TEST_F(EngineTest, BackupRestoreRoundTrip) {
  MakeAccounts();
  BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  BackupImage img = db_->Backup(bo).value();
  RdbmsOptions opts2;
  opts2.name = "clone";
  Rdbms clone(opts2);
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_EQ(clone.TableRowCount("main", "accounts"), 3u);
  EXPECT_EQ(clone.ContentHash(), db_->ContentHash());
}

TEST_F(EngineTest, MetadataLessBackupLosesUsers) {
  db_->CreateUser("app");
  MakeAccounts();
  BackupImage img = db_->Backup(BackupOptions{}).value();  // Data only.
  RdbmsOptions opts2;
  opts2.name = "clone";
  opts2.enforce_authentication = true;
  Rdbms clone(opts2);
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_FALSE(clone.Connect("app").ok())
      << "cloned replica rejects app users: the §4.1.5 trap";
  EXPECT_TRUE(clone.Connect("admin").ok());
}

TEST_F(EngineTest, SequenceLessBackupResetsSequences) {
  MustExec("CREATE SEQUENCE s START 1");
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  for (int i = 0; i < 5; ++i) MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  BackupImage img = db_->Backup(BackupOptions{}).value();
  Rdbms clone(RdbmsOptions{});
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_EQ(clone.SequenceValue("main", "s"), 0)
      << "sequences are not part of the transactional dump (§4.2.3)";
  BackupOptions with;
  with.include_sequences = true;
  BackupImage img2 = db_->Backup(with).value();
  Rdbms clone2(RdbmsOptions{});
  ASSERT_TRUE(clone2.Restore(img2).ok());
  EXPECT_EQ(clone2.SequenceValue("main", "s"), 6);
}

TEST_F(EngineTest, RestoreRequiresNoSessions) {
  MakeAccounts();
  BackupImage img = db_->Backup(BackupOptions{}).value();
  EXPECT_FALSE(db_->Restore(img).ok()) << "open session blocks restore";
  db_->Disconnect(session_);
  EXPECT_TRUE(db_->Restore(img).ok());
  session_ = db_->Connect().value();
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

// --- Kept table images (DESIGN §9) ----------------------------------------------

/// Every table image in `img` must hold exactly the rows a full scan of
/// that table returns now, in scan order and in the image row encoding.
void ExpectImagesMatchScans(Rdbms* db, const BackupImage& img,
                            const std::string& context) {
  SessionId s = db->Connect().value();
  for (const BackupImage::DatabaseImage& di : img.databases) {
    for (const BackupImage::TableImage& ti : di.tables) {
      std::string name = di.name + "." + ti.schema.name;
      ExecResult scan = db->Execute(s, "SELECT * FROM " + name);
      ASSERT_TRUE(scan.ok()) << name << ": " << scan.status.ToString();
      std::string bytes;
      for (const sql::Row& row : scan.rows) PutImageRow(row, &bytes);
      EXPECT_EQ(ti.row_count, scan.rows.size()) << name << ", " << context;
      EXPECT_TRUE(ti.row_bytes == bytes) << name << ", " << context;
    }
  }
  db->Disconnect(s);
}

// Row decoding rejects what the binlog's CRC cannot vouch for: a string
// length past the end of the bytes (2^64 - 1 here, which wraps a check
// written as pos + n > size) and an unknown value type.
TEST(ImageCodecTest, MalformedRowsFailToDecode) {
  std::string wrapping = "\x01\x03";  // One column, a string.
  wrapping.append("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10);
  const std::string unknown("\x01\x09", 2);
  for (const std::string& bytes : {wrapping, unknown}) {
    ImageReader r(bytes);
    r.Row();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(ImageReader(bytes).Rows(1).empty());
  }
}

// Seeded random DML, DDL, writeset apply and restores, with an image taken
// every 1 to 700 steps; each image must equal a fresh scan. Short gaps
// patch a few rows into the kept image; long ones outgrow the change
// record, which drops the image, and the next one is rebuilt.
TEST(KeptImageTest, IncrementalImagesEqualFullScans) {
  RdbmsOptions opts;
  opts.physical_seed = 11;
  Rdbms db(opts);
  Rng rng(20261017);
  constexpr int kSessions = 3;
  constexpr int64_t kKeys = 40;
  std::vector<SessionId> sessions;
  std::vector<bool> in_txn;
  auto connect_all = [&] {
    sessions.clear();
    for (int i = 0; i < kSessions; ++i) {
      sessions.push_back(db.Connect().value());
    }
    in_txn.assign(kSessions, false);
  };
  auto exec = [&](int si, const std::string& sql) {
    return db.Execute(sessions[si], sql);
  };
  auto any_txn = [&] {
    return std::find(in_txn.begin(), in_txn.end(), true) != in_txn.end();
  };
  // Two row shapes: "t" tables (INT, TEXT) and "u" tables (DOUBLE, BOOL).
  auto values = [&](const std::string& table, int64_t id) {
    int64_t x = rng.UniformRange(-500, 500);
    std::string row = "(" + std::to_string(id) + ", " + std::to_string(x);
    if (table.find(".t") != std::string::npos) {
      return row + ", 's" + std::string(rng.Uniform(12), 'x') + "')";
    }
    return row + ".25, " + (x % 2 == 0 ? "TRUE" : "FALSE") + ")";
  };
  auto set_clause = [&](const std::string& table) {
    int64_t x = rng.UniformRange(-500, 500);
    if (table.find(".t") != std::string::npos) {
      return "v = " + std::to_string(x) + ", s = 'r" +
             std::string(rng.Uniform(12), 'y') + "'";
    }
    return "v = " + std::to_string(x) + ".75, b = " +
           std::string(x % 2 == 0 ? "TRUE" : "FALSE");
  };

  connect_all();
  exec(0, "CREATE TABLE t1 (id INT PRIMARY KEY, v INT, s TEXT)");
  exec(0, "CREATE TABLE u1 (id INT PRIMARY KEY, v DOUBLE, b BOOL)");
  std::vector<std::string> tables = {"main.t1", "main.u1"};
  for (const std::string& t : tables) {
    for (int64_t id = 0; id < kKeys; id += 2) {
      exec(0, "INSERT INTO " + t + " VALUES " + values(t, id));
    }
  }
  BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  bool created_db = false;
  bool restored = false;
  int images = 0;
  int dropped = 0;  // Images no table kept, with no restore since the last.
  int next_image = 0;
  for (int step = 0; step < 8000; ++step) {
    if (step == next_image) {
      if (images > 0 && !restored && db.ImageCacheBytes() == 0) ++dropped;
      restored = false;
      Result<BackupImage> img = db.Backup(bo);
      ASSERT_TRUE(img.ok());
      ExpectImagesMatchScans(&db, img.value(),
                             "image " + std::to_string(images));
      if (HasFailure()) return;
      ++images;
      next_image = step + static_cast<int>(rng.Chance(0.15)
                                               ? rng.UniformRange(300, 700)
                                               : rng.UniformRange(1, 12));
    }
    int si = static_cast<int>(rng.Uniform(kSessions));
    const std::string t = tables[rng.Uniform(tables.size())];
    int64_t k = rng.UniformRange(0, kKeys - 1);
    std::string key = std::to_string(k);
    switch (rng.Uniform(16)) {
      case 0:
      case 1:
        exec(si, "INSERT INTO " + t + " VALUES " + values(t, k));
        break;
      case 2:
      case 3:
      case 4:
        exec(si,
             "UPDATE " + t + " SET " + set_clause(t) + " WHERE id = " + key);
        break;
      case 5:  // Primary-key change.
        exec(si, "UPDATE " + t + " SET id = " +
                     std::to_string(rng.UniformRange(0, kKeys - 1)) +
                     " WHERE id = " + key);
        break;
      case 6:
        exec(si, "DELETE FROM " + t + " WHERE id = " + key);
        break;
      case 7:  // Statement-level undo: the second row collides.
        exec(si, "INSERT INTO " + t + " VALUES " + values(t, kKeys + k) +
                     ", " + values(t, kKeys + k));
        break;
      case 8:  // Statement-level undo: several rows take one key.
        exec(si, "UPDATE " + t + " SET id = " + key + " WHERE id >= " +
                     std::to_string(k / 2));
        break;
      case 9:
      case 10:
        if (!in_txn[si]) {
          in_txn[si] = rng.Chance(0.4) && exec(si, "BEGIN").ok();
        } else {
          exec(si, rng.Chance(0.3) ? "ROLLBACK" : "COMMIT");
          in_txn[si] = false;
        }
        break;
      case 11: {
        Writeset ws;
        for (int n = 0; n < 3; ++n) {
          WriteOp op;
          op.kind = static_cast<WriteOpKind>(rng.Uniform(3));
          op.database = "main";
          op.table = t.substr(t.find('.') + 1);
          int64_t id = rng.UniformRange(0, kKeys - 1);
          op.primary_key = Value::Int(id);
          if (op.kind != WriteOpKind::kDelete) {
            bool text = op.table[0] == 't';
            op.after = {Value::Int(id), text ? Value::Int(id * 3)
                                             : Value::Double(id * 0.5)};
            op.after.push_back(text ? Value::String("ws")
                                    : Value::Bool(id % 2 == 0));
          }
          ws.ops.push_back(std::move(op));
        }
        (void)db.ApplyWriteset(ws);
        break;
      }
      case 12:  // DROP and re-CREATE of the same table.
        if (!any_txn() && rng.Chance(0.1)) {
          exec(si, "DROP TABLE " + t);
          exec(si, "CREATE TABLE " + t +
                       (t.find(".t") != std::string::npos
                            ? " (id INT PRIMARY KEY, v INT, s TEXT)"
                            : " (id INT PRIMARY KEY, v DOUBLE, b BOOL)"));
        }
        break;
      case 13:
        if (!created_db && !any_txn() && step > 1000) {
          created_db = true;
          exec(si, "CREATE DATABASE other");
          exec(si, "CREATE TABLE other.t2 (id INT PRIMARY KEY, v INT, s TEXT)");
          tables.push_back("other.t2");
        }
        break;
      case 14:  // Restore from a fresh image into the same engine.
        if (rng.Chance(0.05)) {
          for (SessionId s : sessions) db.Disconnect(s);
          Result<BackupImage> img = db.Backup(bo);
          ASSERT_TRUE(img.ok());
          ASSERT_TRUE(db.Restore(img.value()).ok());
          connect_all();
          restored = true;
        }
        break;
      default:
        exec(si, "SELECT * FROM " + t + " WHERE id = " + key);
        break;
    }
  }
  EXPECT_GT(images, 80);
  EXPECT_GT(dropped, 0) << "no gap outgrew the change records";
  EXPECT_TRUE(created_db);
}

// The change record holds at most as many rows as the table: one more
// drops the kept image, and the next Backup builds it afresh.
TEST_F(EngineTest, ImageChangeRecordNeverOutgrowsTheTable) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  for (int id = 0; id < 10; ++id) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(id) + ", 0)");
  }
  EXPECT_EQ(db_->ImageCacheBytes(), 0);
  ASSERT_TRUE(db_->Backup(BackupOptions{}).ok());
  const int64_t kept = db_->ImageCacheBytes();
  EXPECT_GT(kept, 0);
  for (int i = 0; i < 10; ++i) {
    MustExec("UPDATE t SET v = v + 1 WHERE id = " + std::to_string(i % 4));
  }
  EXPECT_EQ(db_->ImageCacheBytes(), kept + 10 * 8)
      << "ten recorded changes of a ten-row table";
  MustExec("UPDATE t SET v = v + 1 WHERE id = 0");
  EXPECT_EQ(db_->ImageCacheBytes(), 0) << "an eleventh drops image and record";
  MustExec("UPDATE t SET v = v + 1 WHERE id = 0");
  EXPECT_EQ(db_->ImageCacheBytes(), 0) << "no image, no record";
  Result<BackupImage> img = db_->Backup(BackupOptions{});
  ASSERT_TRUE(img.ok());
  ExpectImagesMatchScans(db_.get(), img.value(), "rebuilt");
  EXPECT_EQ(db_->ImageCacheBytes(), kept);
}

// --- Primary-key index --------------------------------------------------------

// The index holds only keys some version still carries. A key leaves with
// the last version carrying it, whether vacuum, rollback or statement undo
// removes that version, so cycles of inserts, PK updates and deletes come
// back to the live key count.
TEST_F(EngineTest, PkIndexShrinksBackToTheLiveKeys) {
  MustExec("CREATE TABLE k (id INT PRIMARY KEY, v INT)");
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 50; ++i) {
      MustExec("INSERT INTO k VALUES (" + std::to_string(i) + ", 0)");
    }
    EXPECT_EQ(db_->PkIndexKeys(), 50);
    MustExec("UPDATE k SET id = id + 1000 WHERE id < 10");
    EXPECT_EQ(db_->PkIndexKeys(), 50) << "vacuum drops the old keys";
    EXPECT_FALSE(Exec("INSERT INTO k VALUES (7000, 0), (7000, 0)").ok());
    EXPECT_EQ(db_->PkIndexKeys(), 50) << "an undone insert";
    MustExec("BEGIN");
    MustExec("INSERT INTO k VALUES (5000, 0)");
    MustExec("UPDATE k SET id = 8000 WHERE id = 30");
    MustExec("UPDATE k SET id = 8001 WHERE id = 8000");
    EXPECT_EQ(db_->PkIndexKeys(), 52) << "30 stays under the old version";
    EXPECT_FALSE(Exec("UPDATE k SET id = 9000 WHERE id >= 40").ok());
    EXPECT_EQ(db_->PkIndexKeys(), 52) << "statement undo rewrites 9000 back";
    MustExec("ROLLBACK");
    EXPECT_EQ(db_->PkIndexKeys(), 50) << "rollback";
    MustExec("DELETE FROM k");
    EXPECT_EQ(db_->PkIndexKeys(), 0);
  }
}

// A UNIQUE clash with several rows reports the lowest RowId's: here the
// committed row a transaction is deleting, not the rows that transaction
// inserted after it, which a walk in hash order would mostly meet first.
TEST(PkIndexTest, UniqueClashReportsTheLowestRowIdFirst) {
  const uint64_t saved_seed = HashSeed();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SetHashSeed(seed);
    Rdbms db(RdbmsOptions{});
    SessionId a = db.Connect().value();
    SessionId b = db.Connect().value();
    ASSERT_TRUE(
        db.Execute(a, "CREATE TABLE c (id INT PRIMARY KEY, u INT UNIQUE)").ok());
    ASSERT_TRUE(db.Execute(a, "INSERT INTO c VALUES (0, 7)").ok());
    ASSERT_TRUE(db.Execute(a, "BEGIN").ok());
    ASSERT_TRUE(db.Execute(a, "DELETE FROM c WHERE id = 0").ok());
    for (int i = 1; i <= 20; ++i) {
      std::string id = std::to_string(i);
      ASSERT_TRUE(db.Execute(a, "INSERT INTO c VALUES (" + id + ", 7)").ok());
      ASSERT_TRUE(db.Execute(a, "DELETE FROM c WHERE id = " + id).ok());
    }
    ExecResult r = db.Execute(b, "INSERT INTO c VALUES (100, 7)");
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlock) << "hash seed " << seed;
    EXPECT_EQ(r.status.message(), "conflicting row being deleted")
        << "hash seed " << seed;
  }
  SetHashSeed(saved_seed);
}

/// A row with its value types, so INT 5 and DOUBLE 5.0 read apart.
std::string ShowRow(const sql::Row& row) {
  std::string out = "(";
  for (const Value& v : row) {
    out += std::string(sql::ValueTypeName(v.type())) + " " +
           v.ToSqlLiteral() + ",";
  }
  return out + ")";
}

std::string ShowRows(const ExecResult& r) {
  std::string out = StatusCodeName(r.status.code());
  for (const sql::Row& row : r.rows) out += " " + ShowRow(row);
  return out;
}

// Seeded steps of inserts, deletes, re-inserts, primary-key and UNIQUE
// updates, statement undo, rollbacks, open snapshot transactions and
// writeset applies, over an INT and a DOUBLE primary key, with keys
// written and looked up as INT 5, DOUBLE 5.0 and TRUE/FALSE for 1/0. Two
// engines run every step with the same physical seed and different hash
// seeds. After each step, in every session, a point select (the index
// path) must return a row of the full scan that evaluates the same
// predicate, and nothing only when the scan finds nothing. The engines
// must agree on every outcome: no hash order may reach a result or an
// error, such as which of two rows a UNIQUE clash reports.
TEST(PkIndexTest, PointAccessMatchesFullScans) {
  constexpr int kSessions = 3;
  constexpr int64_t kKeys = 24;
  const uint64_t saved_seed = HashSeed();
  struct Engine {
    std::unique_ptr<Rdbms> db;
    std::vector<SessionId> sessions;
  };
  std::vector<Engine> engines(2);
  for (int e = 0; e < 2; ++e) {
    SetHashSeed(0x51ed + 977 * static_cast<uint64_t>(e));
    RdbmsOptions opts;
    opts.physical_seed = 5;
    opts.dialect.abort_txn_on_error = false;  // Undo keeps the txn open.
    engines[e].db = std::make_unique<Rdbms>(opts);
    for (int i = 0; i < kSessions; ++i) {
      SessionId s = engines[e].db->Connect().value();
      if (i > 0) {
        ASSERT_TRUE(
            engines[e].db->SetIsolation(s, IsolationLevel::kSnapshot).ok());
      }
      engines[e].sessions.push_back(s);
    }
    for (const char* ddl :
         {"CREATE TABLE t (id INT PRIMARY KEY, u INT UNIQUE, v INT)",
          "CREATE TABLE d (id DOUBLE PRIMARY KEY, u INT UNIQUE, v INT)"}) {
      ASSERT_TRUE(engines[e].db->Execute(engines[e].sessions[0], ddl).ok());
    }
  }
  SetHashSeed(saved_seed);

  Rng rng(20261018);
  const std::vector<std::string> tables = {"t", "d"};
  std::vector<bool> in_txn(kSessions, false);
  auto lit = [&](int64_t k) {
    switch (rng.Uniform(k <= 1 ? 3 : 2)) {
      case 0:
        return std::to_string(k);
      case 1:
        return std::to_string(k) + ".0";
      default:
        return std::string(k == 1 ? "TRUE" : "FALSE");
    }
  };
  auto key = [&] { return rng.UniformRange(0, kKeys - 1); };
  auto uniq = [&] {
    return rng.Chance(0.2) ? std::string("NULL")
                           : std::to_string(rng.UniformRange(0, 7));
  };
  auto row = [&](int64_t k) {
    return "(" + lit(k) + ", " + uniq() + ", " +
           std::to_string(rng.UniformRange(-99, 99)) + ")";
  };
  // Runs one statement on both engines; they must agree.
  auto both = [&](int si, const std::string& sql) {
    ExecResult a = engines[0].db->Execute(engines[0].sessions[si], sql);
    ExecResult b = engines[1].db->Execute(engines[1].sessions[si], sql);
    EXPECT_EQ(a.status.ToString(), b.status.ToString()) << sql;
    EXPECT_EQ(a.affected, b.affected) << sql;
    EXPECT_EQ(ShowRows(a), ShowRows(b)) << sql;
    return a;
  };
  auto check_key = [&](int si, const std::string& table, int64_t k) {
    std::string l = lit(k);
    for (Engine& e : engines) {
      SessionId s = e.sessions[si];
      ExecResult point =
          e.db->Execute(s, "SELECT * FROM " + table + " WHERE id = " + l);
      ExecResult scan = e.db->Execute(
          s, "SELECT * FROM " + table + " WHERE NOT (id <> " + l + ")");
      std::string where = table + " id = " + l + ", session " +
                          std::to_string(si) + ": " + ShowRows(scan);
      ASSERT_TRUE(point.ok() && scan.ok()) << where;
      // A snapshot can see two rows with one key: its own insert, and the
      // row a later commit deleted. The point path returns one of them.
      ASSERT_EQ(point.rows.size(), std::min<size_t>(scan.rows.size(), 1))
          << where;
      if (point.rows.empty()) continue;
      EXPECT_TRUE(point.stats.used_index) << where;
      bool found = false;
      for (const sql::Row& r : scan.rows) {
        found = found || ShowRow(r) == ShowRow(point.rows[0]);
      }
      EXPECT_TRUE(found) << where << " lacks " << ShowRow(point.rows[0]);
    }
    both(si, "SELECT * FROM " + table + " WHERE id = " + l);
  };

  for (int step = 0; step < 3000; ++step) {
    int si = static_cast<int>(rng.Uniform(kSessions));
    const std::string& tb = tables[rng.Uniform(tables.size())];
    int64_t k = key();
    switch (rng.Uniform(16)) {
      case 0:
      case 1:
        both(si, "INSERT INTO " + tb + " VALUES " + row(k));
        break;
      case 14: {  // Free a UNIQUE value and take it again: two chains carry
                  // it, and a clash with both must report the older one's.
        std::string u = std::to_string(rng.UniformRange(0, 7));
        both(si, "DELETE FROM " + tb + " WHERE u = " + u);
        both(si, "INSERT INTO " + tb + " VALUES (" + lit(k) + ", " + u +
                     ", 0)");
        break;
      }
      case 15:  // A fresh key, so only a UNIQUE clash can refuse it.
        both(si, "INSERT INTO " + tb + " VALUES (" +
                     std::to_string(kKeys + step) + ", " + uniq() + ", 0)");
        break;
      case 2:  // Statement undo when the second row clashes.
        both(si, "INSERT INTO " + tb + " VALUES " + row(k) + ", " + row(key()));
        break;
      case 3:
        both(si, "UPDATE " + tb + " SET v = v + 1 WHERE id = " + lit(k));
        break;
      case 4:
        both(si, "UPDATE " + tb + " SET id = " + lit(key()) +
                     " WHERE id = " + lit(k));
        break;
      case 5:
        both(si, "UPDATE " + tb + " SET u = " + uniq() + " WHERE id = " +
                     lit(k));
        break;
      case 6:  // Several rows take one key: undone unless one matches.
        both(si, "UPDATE " + tb + " SET id = " + lit(k) + " WHERE id >= " +
                     std::to_string(k + kKeys / 2));
        break;
      case 7:
      case 8:
        both(si, "DELETE FROM " + tb + " WHERE id = " + lit(k));
        break;
      case 9:
      case 10:
      case 11:
        if (!in_txn[si]) {
          both(si, "BEGIN");
          in_txn[si] = true;
        } else {
          both(si, rng.Chance(0.4) ? "ROLLBACK" : "COMMIT");
          in_txn[si] = false;
        }
        break;
      default: {
        Writeset ws;
        for (int n = 0; n < 3; ++n) {
          WriteOp op;
          op.kind = static_cast<WriteOpKind>(rng.Uniform(3));
          op.database = "main";
          op.table = tables[rng.Uniform(tables.size())];
          int64_t id = key();
          switch (rng.Uniform(3)) {
            case 0:
              op.primary_key = Value::Int(id);
              break;
            case 1:
              op.primary_key = Value::Double(static_cast<double>(id));
              break;
            default:
              op.primary_key = id <= 1 ? Value::Bool(id == 1) : Value::Int(id);
              break;
          }
          if (op.kind != WriteOpKind::kDelete) {
            op.after = {op.primary_key, Value::Null(),
                        Value::Int(rng.UniformRange(-99, 99))};
          }
          ws.ops.push_back(std::move(op));
        }
        Result<CommitSeq> a = engines[0].db->ApplyWriteset(ws);
        Result<CommitSeq> b = engines[1].db->ApplyWriteset(ws);
        EXPECT_EQ(a.status().ToString(), b.status().ToString());
        break;
      }
    }
    for (int s = 0; s < kSessions; ++s) {
      for (int n = 0; n < 2; ++n) {
        check_key(s, tables[rng.Uniform(tables.size())], key());
      }
    }
    if (step % 250 == 249) {
      for (int s = 0; s < kSessions; ++s) {
        for (const std::string& t : tables) {
          for (int64_t k2 = 0; k2 < kKeys; ++k2) check_key(s, t, k2);
        }
      }
    }
    if (HasFailure()) return;
  }
  EXPECT_EQ(engines[0].db->PkIndexKeys(), engines[1].db->PkIndexKeys());
  EXPECT_EQ(engines[0].db->ContentHash(), engines[1].db->ContentHash());
}

// --- Faults ----------------------------------------------------------------------

TEST_F(EngineTest, DiskFullFailsWrites) {
  MakeAccounts();
  db_->set_disk_full(true);
  EXPECT_EQ(Exec("INSERT INTO accounts VALUES (9, 9, 'z')").status.code(),
            StatusCode::kDiskFull);
  EXPECT_TRUE(Exec("SELECT * FROM accounts").ok()) << "reads still work";
  db_->set_disk_full(false);
  EXPECT_TRUE(Exec("INSERT INTO accounts VALUES (9, 9, 'z')").ok());
}

TEST_F(EngineTest, AuthenticationEnforcement) {
  RdbmsOptions opts;
  opts.enforce_authentication = true;
  Rdbms db(opts);
  EXPECT_FALSE(db.Connect("ghost").ok());
  db.CreateUser("ghost");
  EXPECT_TRUE(db.Connect("ghost").ok());
}

// --- Non-determinism at the engine level -----------------------------------------

TEST_F(EngineTest, RandDiffersAcrossReplicas) {
  RdbmsOptions a, b;
  a.rand_seed = 1;
  b.rand_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  for (auto [db, s] : {std::pair{&dba, sa}, std::pair{&dbb, sb}}) {
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE)");
    db->Execute(s, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)");
    db->Execute(s, "UPDATE t SET x = RAND()");
  }
  EXPECT_NE(dba.ContentHash(), dbb.ContentHash())
      << "per-row RAND() must diverge across replicas (§4.3.2)";
}

TEST_F(EngineTest, NowUsesConfiguredClock) {
  int64_t fake_now = 5'000'000;
  RdbmsOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (ts INT)");
  db.Execute(s, "INSERT INTO t VALUES (NOW())");
  ExecResult r = db.Execute(s, "SELECT ts FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5'000'000);
}

TEST_F(EngineTest, StatsCount) {
  MakeAccounts();
  Exec("INSERT INTO accounts VALUES (1, 0, 'dup')");
  const RdbmsStats& st = db_->stats();
  EXPECT_GT(st.transactions_committed, 0u);
  EXPECT_GT(st.statement_errors, 0u);
}

TEST_F(EngineTest, CostModelChargesStatements) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT * FROM accounts");
  EXPECT_GT(r.cost_us, 0);
  ExecResult w = MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");
  EXPECT_GT(w.cost_us, 0);
}

}  // namespace
}  // namespace replidb::engine
