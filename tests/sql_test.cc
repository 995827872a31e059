#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sql/ast.h"
#include "sql/determinism.h"
#include "sql/parser.h"
#include "sql/value.h"

namespace replidb::sql {
namespace {

Statement MustParse(const std::string& text) {
  Result<Statement> r = Parse(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.TakeValue();
}

// --- Value ----------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
}

// NaN equals NaN and sorts above every other number (PostgreSQL's order);
// INT and DOUBLE compare by exact value, so the order stays transitive
// past 2^53, where a conversion to double would round.
TEST(ValueTest, CompareIsExactAndTotalOnNumbers) {
  const Value nan = Value::Double(std::nan(""));
  EXPECT_EQ(nan.Compare(Value::Double(-std::nan(""))), 0);
  EXPECT_GT(nan.Compare(Value::Double(INFINITY)), 0);
  EXPECT_GT(nan.Compare(Value::Int(INT64_MAX)), 0);
  EXPECT_LT(Value::Int(7).Compare(nan), 0);
  EXPECT_LT(Value::Bool(true).Compare(nan), 0);
  EXPECT_GT(nan.Compare(Value::Null()), 0);
  EXPECT_LT(nan.Compare(Value::String("")), 0);

  const int64_t p53 = int64_t{1} << 53;
  const Value d53 = Value::Double(static_cast<double>(p53));
  EXPECT_EQ(Value::Int(p53).Compare(d53), 0);
  EXPECT_GT(Value::Int(p53 + 1).Compare(d53), 0);
  EXPECT_LT(d53.Compare(Value::Int(p53 + 1)), 0);
  EXPECT_LT(Value::Int(INT64_MAX).Compare(Value::Double(9223372036854775808.0)),
            0);
  EXPECT_EQ(
      Value::Int(INT64_MIN).Compare(Value::Double(-9223372036854775808.0)), 0);
  EXPECT_LT(Value::Double(-2.5).Compare(Value::Int(-2)), 0);
  EXPECT_EQ(Value::Bool(true).Compare(Value::Double(1.0)), 0);
  EXPECT_EQ(Value::Double(-0.0).Compare(Value::Int(0)), 0);
}

// A sample of every type and the edge cases of each: Compare must be a
// total order over it, and KeyHash must agree with its equality.
TEST(ValueTest, KeyHashAgreesWithCompareOverATotalOrder) {
  const int64_t p53 = int64_t{1} << 53;
  const std::vector<Value> vals = {
      Value::Null(), Value::Int(0), Value::Double(0.0), Value::Double(-0.0),
      Value::Bool(false), Value::Int(1), Value::Bool(true),
      Value::Double(1.0), Value::Int(5), Value::Double(5.0),
      Value::Double(5.5), Value::Int(-1), Value::Double(-1.0),
      Value::Double(-1.5), Value::Double(std::nan("")),
      Value::Double(-std::nan("")), Value::Double(INFINITY),
      Value::Double(-INFINITY), Value::Int(INT64_MIN),
      Value::Double(-9223372036854775808.0), Value::Int(INT64_MAX),
      Value::Double(9223372036854775808.0), Value::Double(1e300),
      Value::Int(p53), Value::Int(p53 + 1),
      Value::Double(static_cast<double>(p53)), Value::String(""),
      Value::String("5"), Value::String("a"), Value::String("b")};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      int ab = sign(a.Compare(b));
      EXPECT_EQ(ab, -sign(b.Compare(a))) << a.ToString() << " vs "
                                         << b.ToString();
      if (ab == 0) {
        EXPECT_EQ(a.KeyHash(), b.KeyHash()) << a.ToString() << " = "
                                            << b.ToString();
      }
      for (const Value& c : vals) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " <= "
                                     << b.ToString() << " <= "
                                     << c.ToString();
        }
      }
    }
  }
  EXPECT_NE(Value::Int(5).KeyHash(), Value::Double(5.5).KeyHash());
  EXPECT_NE(Value::Int(p53 + 1).KeyHash(), Value::Int(p53).KeyHash());
}

TEST(ValueTest, Truthy) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(1).Truthy());
  EXPECT_FALSE(Value::String("").Truthy());
  EXPECT_TRUE(Value::String("x").Truthy());
  EXPECT_TRUE(Value::Bool(true).Truthy());
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Int(5).ToSqlLiteral(), "5");
  EXPECT_EQ(Value::Bool(false).ToSqlLiteral(), "FALSE");
}

TEST(ValueTest, HashStability) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Int(43).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::String("1").Hash());
  Row r1 = {Value::Int(1), Value::String("a")};
  Row r2 = {Value::Int(1), Value::String("a")};
  Row r3 = {Value::String("a"), Value::Int(1)};
  EXPECT_EQ(HashRow(r1), HashRow(r2));
  EXPECT_NE(HashRow(r1), HashRow(r3));
}

// --- Parser: DDL ------------------------------------------------------------

TEST(ParserTest, CreateDatabase) {
  Statement s = MustParse("CREATE DATABASE shop");
  ASSERT_EQ(s.type(), StmtType::kCreateDatabase);
  EXPECT_EQ(s.As<CreateDatabaseStmt>().name, "shop");
  EXPECT_FALSE(s.As<CreateDatabaseStmt>().if_not_exists);
  Statement s2 = MustParse("create database if not exists shop");
  EXPECT_TRUE(s2.As<CreateDatabaseStmt>().if_not_exists);
}

TEST(ParserTest, CreateTableWithConstraints) {
  Statement s = MustParse(
      "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, "
      "name VARCHAR(255) NOT NULL, email TEXT UNIQUE, score DOUBLE, "
      "active BOOL)");
  ASSERT_EQ(s.type(), StmtType::kCreateTable);
  const auto& ct = s.As<CreateTableStmt>();
  ASSERT_EQ(ct.columns.size(), 5u);
  EXPECT_TRUE(ct.columns[0].primary_key);
  EXPECT_TRUE(ct.columns[0].auto_increment);
  EXPECT_EQ(ct.columns[1].type, ValueType::kString);
  EXPECT_TRUE(ct.columns[1].not_null);
  EXPECT_TRUE(ct.columns[2].unique);
  EXPECT_EQ(ct.columns[3].type, ValueType::kDouble);
  EXPECT_EQ(ct.columns[4].type, ValueType::kBool);
  EXPECT_FALSE(ct.temporary);
}

TEST(ParserTest, CreateTemporaryTable) {
  Statement s = MustParse("CREATE TEMPORARY TABLE scratch (k INT, v TEXT)");
  EXPECT_TRUE(s.As<CreateTableStmt>().temporary);
}

TEST(ParserTest, QualifiedTableName) {
  Statement s = MustParse("CREATE TABLE reporting.daily (d INT)");
  EXPECT_EQ(s.As<CreateTableStmt>().table.database, "reporting");
  EXPECT_EQ(s.As<CreateTableStmt>().table.table, "daily");
}

TEST(ParserTest, DropTable) {
  Statement s = MustParse("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(s.As<DropTableStmt>().if_exists);
  EXPECT_EQ(s.As<DropTableStmt>().table.table, "t");
}

TEST(ParserTest, CreateSequence) {
  Statement s = MustParse("CREATE SEQUENCE order_id START 100");
  EXPECT_EQ(s.As<CreateSequenceStmt>().name, "order_id");
  EXPECT_EQ(s.As<CreateSequenceStmt>().start, 100);
}

// --- Parser: DML ------------------------------------------------------------

TEST(ParserTest, InsertMultiRow) {
  Statement s =
      MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y''z')");
  ASSERT_EQ(s.type(), StmtType::kInsert);
  const auto& ins = s.As<InsertStmt>();
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_EQ(ins.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ins.rows[1][1]->literal.AsString(), "y'z");
}

TEST(ParserTest, UpdateWithWhere) {
  Statement s = MustParse("UPDATE t SET x = x + 1, y = 'v' WHERE id = 3");
  const auto& u = s.As<UpdateStmt>();
  ASSERT_EQ(u.sets.size(), 2u);
  EXPECT_EQ(u.sets[0].first, "x");
  ASSERT_NE(u.where, nullptr);
}

TEST(ParserTest, DeleteAll) {
  Statement s = MustParse("DELETE FROM t");
  EXPECT_EQ(s.As<DeleteStmt>().where, nullptr);
}

TEST(ParserTest, SelectFull) {
  Statement s = MustParse(
      "SELECT a, b FROM t WHERE a > 5 AND b <> 'x' ORDER BY a DESC, b "
      "LIMIT 10 FOR UPDATE");
  const auto& sel = s.As<SelectStmt>();
  EXPECT_FALSE(sel.star);
  ASSERT_EQ(sel.items.size(), 2u);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_FALSE(sel.order_by[1].descending);
  EXPECT_EQ(sel.limit, 10);
  EXPECT_TRUE(sel.for_update);
}

TEST(ParserTest, SelectAggregates) {
  Statement s = MustParse("SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) FROM t");
  const auto& sel = s.As<SelectStmt>();
  ASSERT_EQ(sel.items.size(), 5u);
  EXPECT_EQ(sel.items[0].agg, AggFunc::kCount);
  EXPECT_EQ(sel.items[0].expr, nullptr);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[4].agg, AggFunc::kAvg);
}

TEST(ParserTest, TransactionControl) {
  EXPECT_EQ(MustParse("BEGIN").type(), StmtType::kBegin);
  EXPECT_EQ(MustParse("START TRANSACTION").type(), StmtType::kBegin);
  EXPECT_EQ(MustParse("COMMIT").type(), StmtType::kCommit);
  EXPECT_EQ(MustParse("ROLLBACK").type(), StmtType::kRollback);
}

TEST(ParserTest, Call) {
  Statement s = MustParse("CALL settle_orders(42, 'EU')");
  const auto& c = s.As<CallStmt>();
  EXPECT_EQ(c.procedure, "settle_orders");
  ASSERT_EQ(c.args.size(), 2u);
}

TEST(ParserTest, InSubquery) {
  Statement s = MustParse(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL LIMIT 10)");
  const auto& u = s.As<UpdateStmt>();
  ASSERT_NE(u.where, nullptr);
  EXPECT_EQ(u.where->kind, Expr::Kind::kInSubquery);
  EXPECT_EQ(u.where->subquery->limit, 10);
}

TEST(ParserTest, InValueList) {
  Statement s = MustParse("SELECT * FROM t WHERE id IN (1, 2, 3)");
  const auto& sel = s.As<SelectStmt>();
  // Expanded into OR chain of equality tests.
  EXPECT_EQ(sel.where->kind, Expr::Kind::kBinary);
  EXPECT_EQ(sel.where->bin_op, BinaryOp::kOr);
}

TEST(ParserTest, Functions) {
  Statement s = MustParse(
      "INSERT INTO t (a, b, c) VALUES (NOW(), RAND(), NEXTVAL('seq'))");
  const auto& ins = s.As<InsertStmt>();
  EXPECT_EQ(ins.rows[0][0]->func, FuncKind::kNow);
  EXPECT_EQ(ins.rows[0][1]->func, FuncKind::kRand);
  EXPECT_EQ(ins.rows[0][2]->func, FuncKind::kNextval);
  EXPECT_EQ(ins.rows[0][2]->sequence_name, "seq");
}

TEST(ParserTest, CurrentTimestampNoParens) {
  Statement s = MustParse("UPDATE t SET ts = CURRENT_TIMESTAMP WHERE id = 1");
  EXPECT_EQ(s.As<UpdateStmt>().sets[0].second->func, FuncKind::kNow);
}

TEST(ParserTest, IsNull) {
  Statement s = MustParse("SELECT * FROM t WHERE x IS NULL");
  EXPECT_EQ(s.As<SelectStmt>().where->kind, Expr::Kind::kBinary);
  Statement s2 = MustParse("SELECT * FROM t WHERE x IS NOT NULL");
  EXPECT_EQ(s2.As<SelectStmt>().where->kind, Expr::Kind::kUnary);
}

TEST(ParserTest, ArithmeticPrecedence) {
  Statement s = MustParse("SELECT 1 + 2 * 3 FROM t");
  const Expr& e = *s.As<SelectStmt>().items[0].expr;
  ASSERT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.bin_op, BinaryOp::kAdd);
  EXPECT_EQ(e.children[1]->bin_op, BinaryOp::kMul);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELEC * FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(Parse("UPDATE t SET").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE 'unterminated").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t extra junk").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (x FANCYTYPE)").ok());
}

TEST(ParserTest, TrailingSemicolonOk) {
  EXPECT_TRUE(Parse("SELECT * FROM t;").ok());
}

TEST(ParserTest, LineComments) {
  EXPECT_TRUE(Parse("SELECT * FROM t -- trailing comment").ok());
}

// --- Serializer round-trip ---------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParseSerializeParseIsStable) {
  Statement s1 = MustParse(GetParam());
  std::string text1 = ToSql(s1);
  Statement s2 = MustParse(text1);
  std::string text2 = ToSql(s2);
  EXPECT_EQ(text1, text2) << "original: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "CREATE DATABASE shop",
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)",
        "CREATE TEMPORARY TABLE tmp (k INT)",
        "CREATE SEQUENCE s START 7",
        "DROP TABLE IF EXISTS t",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
        "INSERT INTO db2.t VALUES (NOW(), RAND(), NEXTVAL('s'))",
        "UPDATE t SET x = x + 1 WHERE id = 3 AND v <> 'q'",
        "UPDATE t SET x = RAND() WHERE id > 5",
        "DELETE FROM t WHERE a <= 10 OR b = TRUE",
        "SELECT * FROM t",
        "SELECT a, b + 1 FROM t WHERE NOT a = 2 ORDER BY a DESC LIMIT 5",
        "SELECT COUNT(*), AVG(x) FROM t",
        "SELECT * FROM t WHERE id IN (SELECT id FROM u WHERE x = 1 LIMIT 3)",
        "BEGIN", "COMMIT", "ROLLBACK",
        "CALL p(1, 'a')"));

// --- Determinism analysis -----------------------------------------------------

TEST(DeterminismTest, PlainStatementsAreDeterministic) {
  for (const char* text :
       {"INSERT INTO t VALUES (1)", "UPDATE t SET x = 2 WHERE id = 1",
        "DELETE FROM t WHERE x > 5", "CREATE TABLE t (x INT)"}) {
    Statement s = MustParse(text);
    EXPECT_TRUE(Analyze(s).IsDeterministic()) << text;
  }
}

TEST(DeterminismTest, NowIsRewritable) {
  Statement s = MustParse("UPDATE t SET ts = NOW() WHERE id = 1");
  DeterminismReport r = Analyze(s);
  EXPECT_TRUE(r.uses_now);
  EXPECT_FALSE(r.IsDeterministic());
  EXPECT_TRUE(r.SafeForStatementReplication());
}

TEST(DeterminismTest, RandInInsertIsRewritable) {
  Statement s = MustParse("INSERT INTO t (x) VALUES (RAND())");
  DeterminismReport r = Analyze(s);
  EXPECT_TRUE(r.uses_rand_rewritable);
  EXPECT_FALSE(r.uses_rand_per_row);
  EXPECT_TRUE(r.SafeForStatementReplication());
}

TEST(DeterminismTest, RandInUpdateSetIsNotRewritable) {
  // The paper's canonical example: UPDATE t SET x=rand().
  Statement s = MustParse("UPDATE t SET x = RAND()");
  DeterminismReport r = Analyze(s);
  EXPECT_TRUE(r.uses_rand_per_row);
  EXPECT_FALSE(r.SafeForStatementReplication());
}

TEST(DeterminismTest, UnorderedLimitSubqueryInWrite) {
  // The paper's SELECT ... LIMIT without ORDER BY example.
  Statement s = MustParse(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL LIMIT 10)");
  DeterminismReport r = Analyze(s);
  EXPECT_TRUE(r.unordered_limit_subquery);
  EXPECT_FALSE(r.SafeForStatementReplication());
}

TEST(DeterminismTest, OrderedLimitSubqueryIsSafe) {
  Statement s = MustParse(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL ORDER BY id LIMIT 10)");
  DeterminismReport r = Analyze(s);
  EXPECT_FALSE(r.unordered_limit_subquery);
  EXPECT_TRUE(r.SafeForStatementReplication());
}

TEST(DeterminismTest, LimitSubqueryInReadOnlySelectIsFine) {
  Statement s = MustParse(
      "SELECT * FROM t WHERE id IN (SELECT id FROM u LIMIT 5)");
  DeterminismReport r = Analyze(s);
  EXPECT_FALSE(r.unordered_limit_subquery);
}

TEST(DeterminismTest, SequencesAreFlagged) {
  Statement s = MustParse("INSERT INTO t (id) VALUES (NEXTVAL('s'))");
  DeterminismReport r = Analyze(s);
  EXPECT_TRUE(r.uses_sequence);
  EXPECT_TRUE(r.SafeForStatementReplication());  // Safe under total order.
}

TEST(DeterminismTest, RewriteReplacesNowWithLiteral) {
  Statement s = MustParse("UPDATE t SET ts = NOW() WHERE id = 1");
  Rng rng(1);
  RewriteForStatementReplication(&s, Value::Int(123456), &rng);
  std::string text = ToSql(s);
  EXPECT_EQ(text.find("NOW"), std::string::npos) << text;
  EXPECT_NE(text.find("123456"), std::string::npos) << text;
  EXPECT_TRUE(Analyze(s).IsDeterministic());
}

TEST(DeterminismTest, RewriteReplacesInsertRand) {
  Statement s = MustParse("INSERT INTO t (x) VALUES (RAND())");
  Rng rng(7);
  RewriteForStatementReplication(&s, Value::Int(0), &rng);
  EXPECT_TRUE(Analyze(s).IsDeterministic());
  EXPECT_EQ(ToSql(s).find("RAND"), std::string::npos);
}

TEST(DeterminismTest, RewriteLeavesPerRowRandAlone) {
  Statement s = MustParse("UPDATE t SET x = RAND()");
  Rng rng(7);
  DeterminismReport r = RewriteForStatementReplication(&s, Value::Int(0), &rng);
  EXPECT_TRUE(r.uses_rand_per_row);
  EXPECT_NE(ToSql(s).find("RAND"), std::string::npos);
}

TEST(DeterminismTest, CallArgumentsAreRewritable) {
  Statement s = MustParse("CALL audit(NOW())");
  Rng rng(7);
  RewriteForStatementReplication(&s, Value::Int(99), &rng);
  EXPECT_TRUE(Analyze(s).IsDeterministic());
}

TEST(ExprTest, CloneIsDeep) {
  Statement s = MustParse("SELECT * FROM t WHERE a = 1 AND b IN (SELECT c FROM u LIMIT 2)");
  ExprPtr copy = s.As<SelectStmt>().where->Clone();
  EXPECT_EQ(ExprToSql(*copy), ExprToSql(*s.As<SelectStmt>().where));
  EXPECT_NE(copy.get(), s.As<SelectStmt>().where.get());
}

TEST(StatementTest, IsWriteClassification) {
  EXPECT_TRUE(MustParse("INSERT INTO t VALUES (1)").IsWrite());
  EXPECT_TRUE(MustParse("UPDATE t SET x = 1").IsWrite());
  EXPECT_TRUE(MustParse("DELETE FROM t").IsWrite());
  EXPECT_TRUE(MustParse("CREATE TABLE t (x INT)").IsWrite());
  EXPECT_TRUE(MustParse("CALL p()").IsWrite());
  EXPECT_FALSE(MustParse("SELECT * FROM t").IsWrite());
  EXPECT_FALSE(MustParse("BEGIN").IsWrite());
  EXPECT_TRUE(MustParse("COMMIT").IsTransactionControl());
}

}  // namespace
}  // namespace replidb::sql
