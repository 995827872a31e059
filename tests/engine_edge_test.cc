// Edge cases of the engine's executor, expression evaluator, and
// replication hooks that the main engine_test does not cover.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "engine/rdbms.h"

namespace replidb::engine {
namespace {

using sql::Value;

class EngineEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Rdbms>(RdbmsOptions{});
    session_ = db_->Connect().value();
    Must("CREATE TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, s TEXT)");
    Must("INSERT INTO t VALUES (1, 10, 1.5, 'Hello'), (2, NULL, 2.5, 'World'), "
         "(3, 30, NULL, NULL)");
  }

  ExecResult Exec(const std::string& sql) { return db_->Execute(session_, sql); }
  ExecResult Must(const std::string& sql) {
    ExecResult r = Exec(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status.ToString();
    return r;
  }

  std::unique_ptr<Rdbms> db_;
  SessionId session_ = 0;
};

// --- Expressions ------------------------------------------------------------

TEST_F(EngineEdgeTest, DivisionByZeroIsAStatementError) {
  ExecResult r = Exec("SELECT a / 0 FROM t WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  ExecResult r2 = Exec("UPDATE t SET a = 1 % 0 WHERE id = 1");
  EXPECT_FALSE(r2.ok());
}

TEST_F(EngineEdgeTest, NullArithmeticYieldsNull) {
  ExecResult r = Must("SELECT a + 1 FROM t WHERE id = 2");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(EngineEdgeTest, IntegerAndDoubleArithmetic) {
  ExecResult r = Must("SELECT 7 / 2, 7.0 / 2, 7 % 3, -b FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);          // Integer division.
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 3.5);
  EXPECT_EQ(r.rows[0][2].AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), -1.5);
}

TEST_F(EngineEdgeTest, StringFunctions) {
  ExecResult r = Must("SELECT LOWER(s), UPPER(s) FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsString(), "hello");
  EXPECT_EQ(r.rows[0][1].AsString(), "HELLO");
  EXPECT_FALSE(Exec("SELECT LOWER(a) FROM t WHERE id = 1").ok())
      << "LOWER of an int is a type error";
}

TEST_F(EngineEdgeTest, AbsOfNegatives) {
  Must("INSERT INTO t VALUES (9, -5, -2.5, 'x')");
  ExecResult r = Must("SELECT ABS(a), ABS(b) FROM t WHERE id = 9");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 2.5);
}

TEST_F(EngineEdgeTest, IsNullFilters) {
  ExecResult r = Must("SELECT id FROM t WHERE a IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  ExecResult r2 = Must("SELECT COUNT(*) FROM t WHERE s IS NOT NULL");
  EXPECT_EQ(r2.rows[0][0].AsInt(), 2);
}

TEST_F(EngineEdgeTest, UnknownColumnIsAnError) {
  EXPECT_FALSE(Exec("SELECT nope FROM t").ok());
  EXPECT_FALSE(Exec("UPDATE t SET nope = 1").ok());
  EXPECT_FALSE(Exec("SELECT id FROM t ORDER BY nope").ok());
}

// --- Query shape edge cases ----------------------------------------------------

TEST_F(EngineEdgeTest, CountSkipsNullsStarDoesNot) {
  ExecResult r = Must("SELECT COUNT(*), COUNT(a) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(EngineEdgeTest, LimitZeroReturnsNothing) {
  ExecResult r = Must("SELECT * FROM t LIMIT 0");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(EngineEdgeTest, MultiKeyOrderBy) {
  Must("CREATE TABLE m (id INT PRIMARY KEY, g INT, v INT)");
  Must("INSERT INTO m VALUES (1, 1, 5), (2, 1, 3), (3, 2, 9), (4, 2, 1)");
  ExecResult r = Must("SELECT id FROM m ORDER BY g DESC, v");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  EXPECT_EQ(r.rows[2][0].AsInt(), 2);
  EXPECT_EQ(r.rows[3][0].AsInt(), 1);
}

// NaN equals only NaN: as a DOUBLE key it matches no number, a second NaN
// is a duplicate, and ORDER BY puts it above every number.
TEST_F(EngineEdgeTest, NanKeyMatchesOnlyNanAndSortsAboveNumbers) {
  const std::string nan = "1e308 * 10 - 1e308 * 10";
  Must("CREATE TABLE n (id DOUBLE PRIMARY KEY, v INT)");
  Must("INSERT INTO n VALUES (" + nan + ", 1)");
  Must("INSERT INTO n VALUES (5, 2), (-1e308 * 10, 3)");
  EXPECT_TRUE(Must("SELECT v FROM n WHERE id = 7").rows.empty());
  ASSERT_EQ(Must("SELECT v FROM n WHERE id = 5").rows.size(), 1u);
  ExecResult by_nan = Must("SELECT v FROM n WHERE id = " + nan);
  ASSERT_EQ(by_nan.rows.size(), 1u);
  EXPECT_EQ(by_nan.rows[0][0].AsInt(), 1);
  EXPECT_EQ(Exec("INSERT INTO n VALUES (" + nan + ", 4)").status.code(),
            StatusCode::kConstraintViolation);
  ExecResult asc = Must("SELECT v FROM n ORDER BY id");
  ExecResult desc = Must("SELECT v FROM n ORDER BY id DESC");
  ASSERT_EQ(asc.rows.size(), 3u);
  ASSERT_EQ(desc.rows.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(asc.rows[i][0].AsInt(), 3 - i);
    EXPECT_EQ(desc.rows[i][0].AsInt(), i + 1);
  }
}

// Integer arithmetic that leaves int64 is a statement error, not a trap
// (INT64_MIN / -1 and % -1 raise SIGFPE on x86) or a wrapped value.
TEST_F(EngineEdgeTest, IntegerOverflowIsAStatementError) {
  Must("INSERT INTO t VALUES (9, -9223372036854775807 - 1, 0, 'min')");
  ExecResult ok = Must("SELECT a % -1, a % 7, a + 1, a / 1 FROM t WHERE id = 9");
  EXPECT_EQ(ok.rows[0][0].AsInt(), 0);
  EXPECT_EQ(ok.rows[0][1].AsInt(), -1);
  EXPECT_EQ(ok.rows[0][2].AsInt(), INT64_MIN + 1);
  EXPECT_EQ(ok.rows[0][3].AsInt(), INT64_MIN);
  for (const char* expr : {"a / -1", "a + a", "a - 1", "a * 2", "-a",
                           "9223372036854775807 + 1"}) {
    ExecResult r = Exec(std::string("SELECT ") + expr + " FROM t WHERE id = 9");
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << expr;
    EXPECT_EQ(r.status.message(), "integer out of range") << expr;
  }
  EXPECT_FALSE(Exec("UPDATE t SET a = a - 1 WHERE id = 9").ok());
  EXPECT_EQ(Must("SELECT a FROM t WHERE id = 9").rows[0][0].AsInt(), INT64_MIN);
}

TEST_F(EngineEdgeTest, IntegerSumIsExact) {
  // 2^53 + 1 has no double: a double accumulator returns 2^53.
  Must("CREATE TABLE big (id INT PRIMARY KEY, v INT)");
  Must("INSERT INTO big VALUES (1, 9007199254740993), (2, 0)");
  ExecResult r = Must("SELECT SUM(v), AVG(v) FROM big");
  EXPECT_EQ(r.rows[0][0].type(), sql::ValueType::kInt);
  EXPECT_EQ(r.rows[0][0].AsInt(), 9007199254740993);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 9007199254740993.0 / 2);
  // Mixed INT/DOUBLE input keeps the double sum.
  EXPECT_DOUBLE_EQ(Must("SELECT SUM(a + b) FROM t").rows[0][0].AsDouble(),
                   11.5);
}

TEST_F(EngineEdgeTest, IntegerSumOverflowIsAStatementError) {
  Must("CREATE TABLE big (id INT PRIMARY KEY, v INT)");
  Must("INSERT INTO big VALUES (1, 9223372036854775807), (2, 1)");
  ExecResult r = Exec("SELECT SUM(v) FROM big");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status.message(), "integer out of range");
  // AVG keeps the double accumulator and does not overflow.
  EXPECT_DOUBLE_EQ(Must("SELECT AVG(v) FROM big").rows[0][0].AsDouble(),
                   9223372036854775808.0 / 2);
}

TEST_F(EngineEdgeTest, UpdateMatchingNothingAffectsZero) {
  ExecResult r = Must("UPDATE t SET a = 1 WHERE id = 999");
  EXPECT_EQ(r.affected, 0);
}

TEST_F(EngineEdgeTest, MixedAggregateAndColumnRejected) {
  EXPECT_EQ(Exec("SELECT id, COUNT(*) FROM t").status.code(),
            StatusCode::kNotSupported);
}

// --- Primary-key mutations -------------------------------------------------------

TEST_F(EngineEdgeTest, PrimaryKeyUpdateMovesTheRow) {
  Must("UPDATE t SET id = 42 WHERE id = 1");
  EXPECT_TRUE(Must("SELECT * FROM t WHERE id = 42").rows.size() == 1);
  EXPECT_TRUE(Must("SELECT * FROM t WHERE id = 1").rows.empty());
}

TEST_F(EngineEdgeTest, PrimaryKeyUpdateCollisionFails) {
  ExecResult r = Exec("UPDATE t SET id = 2 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
  // And the row is untouched (statement atomicity).
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE id = 1").rows[0][0].AsInt(), 1);
}

TEST_F(EngineEdgeTest, PkChangeCapturedAsDeletePlusInsert) {
  Must("BEGIN");
  Must("UPDATE t SET id = 50 WHERE id = 3");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  ASSERT_EQ(ws->ops.size(), 2u);
  EXPECT_EQ(ws->ops[0].kind, WriteOpKind::kDelete);
  EXPECT_EQ(ws->ops[0].primary_key.AsInt(), 3);
  EXPECT_EQ(ws->ops[1].kind, WriteOpKind::kInsert);
  EXPECT_EQ(ws->ops[1].primary_key.AsInt(), 50);
  Must("COMMIT");
}

TEST_F(EngineEdgeTest, DeleteThenReinsertSamePkInOneTxn) {
  Must("BEGIN");
  Must("DELETE FROM t WHERE id = 1");
  Must("INSERT INTO t VALUES (1, 99, 0.0, 'reborn')");
  Must("COMMIT");
  ExecResult r = Must("SELECT a FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 99);
}

// --- Replication hooks -----------------------------------------------------------

TEST_F(EngineEdgeTest, ApplyWritesetUpsertsMissingUpdateTarget) {
  Writeset ws;
  WriteOp op;
  op.kind = WriteOpKind::kUpdate;
  op.database = "main";
  op.table = "t";
  op.primary_key = Value::Int(777);
  op.after = {Value::Int(777), Value::Int(1), Value::Double(1.0),
              Value::String("upsert")};
  ws.ops.push_back(op);
  ASSERT_TRUE(db_->ApplyWriteset(ws).ok());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE id = 777").rows[0][0].AsInt(), 1);
}

TEST_F(EngineEdgeTest, ApplyWritesetDeleteOfMissingRowIsIdempotent) {
  Writeset ws;
  WriteOp op;
  op.kind = WriteOpKind::kDelete;
  op.database = "main";
  op.table = "t";
  op.primary_key = Value::Int(12345);
  ws.ops.push_back(op);
  EXPECT_TRUE(db_->ApplyWriteset(ws).ok());
}

TEST_F(EngineEdgeTest, ApplyWritesetRollsBackAtomicallyOnError) {
  Writeset ws;
  for (int i = 0; i < 2; ++i) {
    WriteOp op;
    op.kind = WriteOpKind::kInsert;
    op.database = "main";
    op.table = i == 0 ? "t" : "missing_table";
    op.primary_key = Value::Int(600 + i);
    op.after = {Value::Int(600 + i), Value::Int(0), Value::Double(0),
                Value::Null()};
    ws.ops.push_back(op);
  }
  EXPECT_FALSE(db_->ApplyWriteset(ws).ok());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE id = 600").rows[0][0].AsInt(), 0)
      << "failed writeset apply must leave nothing behind";
}

TEST_F(EngineEdgeTest, HotBackupIsReadConsistentDespiteOpenTxn) {
  SessionId other = db_->Connect().value();
  db_->Execute(other, "BEGIN");
  db_->Execute(other, "UPDATE t SET a = 999 WHERE id = 1");
  BackupImage img = db_->Backup(BackupOptions{}).value();
  db_->Execute(other, "COMMIT");
  Rdbms clone{RdbmsOptions{}};
  ASSERT_TRUE(clone.Restore(img).ok());
  SessionId cs = clone.Connect().value();
  ExecResult r = clone.Execute(cs, "SELECT a FROM t WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10)
      << "backup must not contain uncommitted data";
}

TEST_F(EngineEdgeTest, AutoIncrementBumpsPastExplicitValues) {
  Must("CREATE TABLE ai (id INT PRIMARY KEY AUTO_INCREMENT, v INT)");
  Must("INSERT INTO ai (id, v) VALUES (100, 1)");
  Must("INSERT INTO ai (v) VALUES (2)");
  ExecResult r = Must("SELECT MAX(id) FROM ai");
  EXPECT_EQ(r.rows[0][0].AsInt(), 101);
}

TEST_F(EngineEdgeTest, TriggerRecursionIsBounded) {
  Must("CREATE TABLE loopy (id INT PRIMARY KEY AUTO_INCREMENT, v INT)");
  TriggerDef t;
  t.name = "self_feeding";
  t.database = "main";
  t.table = "loopy";
  t.event = WriteOpKind::kInsert;
  t.action = [](Rdbms* db, SessionId sid, const WriteOp&) {
    // Inserting into the table the trigger watches: unbounded without a cap.
    return db->Execute(sid, "INSERT INTO loopy (v) VALUES (1)").status;
  };
  db_->RegisterTrigger(std::move(t));
  ExecResult r = Exec("INSERT INTO loopy (v) VALUES (0)");
  EXPECT_TRUE(r.ok());
  ExecResult count = Must("SELECT COUNT(*) FROM loopy");
  EXPECT_LE(count.rows[0][0].AsInt(), 16) << "recursion must be capped";
}

TEST(EngineDialectEdgeTest, TempTablesDroppedOnCommitDialect) {
  RdbmsOptions opts;
  opts.dialect.temp_tables_dropped_on_commit = true;
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "BEGIN");
  ASSERT_TRUE(db.Execute(s, "CREATE TEMPORARY TABLE tmp (x INT)").ok());
  ASSERT_TRUE(db.Execute(s, "INSERT INTO tmp VALUES (1)").ok());
  ASSERT_TRUE(db.Execute(s, "COMMIT").ok());
  EXPECT_FALSE(db.Execute(s, "SELECT * FROM tmp").ok())
      << "this dialect frees temp tables at COMMIT (§4.1.4)";
}

TEST(EngineDialectEdgeTest, SingleDatabaseDialectRefusesCreateDatabase) {
  RdbmsOptions opts;
  opts.dialect.supports_multiple_databases = false;
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  EXPECT_EQ(db.Execute(s, "CREATE DATABASE other").status.code(),
            StatusCode::kNotSupported);
}

TEST_F(EngineEdgeTest, ProcedureArgumentsAreEvaluated) {
  db_->RegisterProcedure("set_a", [](ProcedureContext* ctx) {
    return ctx
        ->Exec("UPDATE t SET a = " + ctx->args()[1].ToString() +
               " WHERE id = " + ctx->args()[0].ToString())
        .status;
  });
  Must("CALL set_a(1, 2 + 3)");
  EXPECT_EQ(Must("SELECT a FROM t WHERE id = 1").rows[0][0].AsInt(), 5);
}

TEST_F(EngineEdgeTest, StatsCountersAdvance) {
  uint64_t scanned_before = db_->stats().rows_scanned;
  Must("SELECT * FROM t");
  EXPECT_GT(db_->stats().rows_scanned, scanned_before);
  uint64_t written_before = db_->stats().rows_written;
  Must("UPDATE t SET a = 1 WHERE id = 1");
  EXPECT_GT(db_->stats().rows_written, written_before);
}

}  // namespace
}  // namespace replidb::engine
