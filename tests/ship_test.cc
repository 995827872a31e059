#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "middleware/common.h"
#include "net/dispatcher.h"
#include "net/network.h"
#include "ship/codec.h"
#include "ship/pipeline.h"
#include "sim/simulator.h"

namespace replidb::ship {
namespace {

using middleware::ReplicationEntry;
using sim::kMillisecond;

// --- Codec -------------------------------------------------------------

sql::Value RandomValue(Rng& rng) {
  switch (rng.Next() % 6) {
    case 0:
      return sql::Value::Null();
    case 1:
      return sql::Value::Int(static_cast<int64_t>(rng.Next()));
    case 2:
      return sql::Value::Double(static_cast<double>(rng.Next() % 100000) / 7.0);
    case 3: {
      std::string s(rng.Next() % 24, 'a');
      for (char& c : s) c = static_cast<char>('a' + rng.Next() % 26);
      return sql::Value::String(std::move(s));
    }
    case 4:
      return sql::Value::Bool((rng.Next() & 1) != 0);
    default:
      // Small ints: the common case XOR-delta is built for.
      return sql::Value::Int(static_cast<int64_t>(rng.Next() % 1000));
  }
}

ReplicationEntry RandomEntry(Rng& rng, uint64_t version) {
  ReplicationEntry e;
  e.version = version;
  e.origin_commit_us = static_cast<int64_t>(version * 1000 + rng.Next() % 500);
  e.use_statements = (rng.Next() % 4) == 0;
  if (e.use_statements || (rng.Next() % 3) == 0) {
    size_t n = 1 + rng.Next() % 3;
    for (size_t i = 0; i < n; ++i) {
      e.statements.push_back("UPDATE t" + std::to_string(rng.Next() % 4) +
                             " SET v = " + std::to_string(rng.Next() % 100));
    }
  }
  size_t ops = rng.Next() % 5;
  for (size_t i = 0; i < ops; ++i) {
    engine::WriteOp op;
    op.kind = static_cast<engine::WriteOpKind>(rng.Next() % 3);
    op.database = "db" + std::to_string(rng.Next() % 2);
    op.table = "table" + std::to_string(rng.Next() % 3);
    op.primary_key = sql::Value::Int(static_cast<int64_t>(rng.Next() % 10000));
    if (op.kind != engine::WriteOpKind::kDelete) {
      size_t width = 1 + rng.Next() % 5;
      for (size_t c = 0; c < width; ++c) op.after.push_back(RandomValue(rng));
    }
    e.writeset.ops.push_back(std::move(op));
  }
  e.writeset.incomplete = (rng.Next() % 16) == 0;
  return e;
}

void ExpectEntriesEqual(const std::vector<ReplicationEntry>& want,
                        const std::vector<ReplicationEntry>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const ReplicationEntry& a = want[i];
    const ReplicationEntry& b = got[i];
    EXPECT_EQ(a.version, b.version) << "entry " << i;
    EXPECT_EQ(a.origin_commit_us, b.origin_commit_us) << "entry " << i;
    EXPECT_EQ(a.use_statements, b.use_statements) << "entry " << i;
    EXPECT_EQ(a.statements, b.statements) << "entry " << i;
    EXPECT_EQ(a.writeset.incomplete, b.writeset.incomplete) << "entry " << i;
    ASSERT_EQ(a.writeset.ops.size(), b.writeset.ops.size()) << "entry " << i;
    for (size_t j = 0; j < a.writeset.ops.size(); ++j) {
      const engine::WriteOp& x = a.writeset.ops[j];
      const engine::WriteOp& y = b.writeset.ops[j];
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.database, y.database);
      EXPECT_EQ(x.table, y.table);
      EXPECT_TRUE(x.primary_key == y.primary_key)
          << "entry " << i << " op " << j;
      ASSERT_EQ(x.after.size(), y.after.size());
      for (size_t c = 0; c < x.after.size(); ++c) {
        EXPECT_TRUE(x.after[c] == y.after[c])
            << "entry " << i << " op " << j << " col " << c;
        EXPECT_EQ(x.after[c].type(), y.after[c].type());
      }
    }
  }
}

TEST(ShipCodecTest, RoundTripsRandomBatchesUnderAllOptionCombos) {
  for (bool dict : {false, true}) {
    for (bool xd : {false, true}) {
      CodecOptions opts;
      opts.dictionary = dict;
      opts.xor_delta = xd;
      Rng rng(1234 + (dict ? 2 : 0) + (xd ? 1 : 0));
      for (int round = 0; round < 40; ++round) {
        std::vector<ReplicationEntry> batch;
        size_t n = rng.Next() % 8;  // Includes the empty batch.
        uint64_t version = 1 + rng.Next() % 100;
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(RandomEntry(rng, version));
          version += 1 + rng.Next() % 3;
        }
        EncodedBatch enc = EncodeBatch(batch, opts);
        EXPECT_EQ(enc.encoded_size_bytes,
                  static_cast<int64_t>(enc.payload.size()));
        auto dec = DecodeBatch(enc.payload);
        ASSERT_TRUE(dec.ok()) << dec.status().ToString();
        ExpectEntriesEqual(batch, dec.value());
      }
    }
  }
}

TEST(ShipCodecTest, RoundTripsEdgeCaseValues) {
  ReplicationEntry e;
  e.version = 42;
  e.origin_commit_us = -7;  // Negative delta from the implicit 0 start.
  engine::WriteOp op;
  op.kind = engine::WriteOpKind::kUpdate;
  op.database = "d";
  op.table = "t";
  op.primary_key = sql::Value::String("");
  op.after.push_back(sql::Value::String(std::string(100 * 1024, 'z')));
  op.after.push_back(sql::Value::String("héllo wörld データベース 🚀"));
  op.after.push_back(sql::Value::String(std::string("\0\x01\xff binary", 10)));
  op.after.push_back(sql::Value::Int(INT64_MIN));
  op.after.push_back(sql::Value::Int(INT64_MAX));
  op.after.push_back(sql::Value::Double(-0.0));
  op.after.push_back(sql::Value::Null());
  e.writeset.ops.push_back(op);
  // A second row of the same table exercises the XOR-delta path against
  // a previous row of different width/types.
  engine::WriteOp op2 = op;
  op2.after.assign({sql::Value::Int(INT64_MAX), sql::Value::Int(INT64_MIN)});
  e.writeset.ops.push_back(op2);

  EncodedBatch enc = EncodeBatch({e}, CodecOptions{});
  auto dec = DecodeBatch(enc.payload);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ExpectEntriesEqual({e}, dec.value());
}

TEST(ShipCodecTest, RepetitiveBatchesCompress) {
  // Binlog-ish traffic: same tables, same SQL shapes, adjacent int keys.
  std::vector<ReplicationEntry> batch;
  for (uint64_t v = 1; v <= 50; ++v) {
    ReplicationEntry e;
    e.version = v;
    e.origin_commit_us = static_cast<int64_t>(1000000 + v * 100);
    engine::WriteOp op;
    op.kind = engine::WriteOpKind::kUpdate;
    op.database = "bank";
    op.table = "accounts";
    op.primary_key = sql::Value::Int(static_cast<int64_t>(v));
    op.after = {sql::Value::Int(static_cast<int64_t>(v)),
                sql::Value::Int(static_cast<int64_t>(1000 + v)),
                sql::Value::String("ordinary account holder")};
    e.writeset.ops.push_back(op);
    batch.push_back(e);
  }
  EncodedBatch enc = EncodeBatch(batch, CodecOptions{});
  EXPECT_GT(enc.raw_size_bytes, 0);
  EXPECT_LT(enc.encoded_size_bytes, enc.raw_size_bytes)
      << "codec must beat the raw struct estimate on repetitive traffic";
  // The ratio should be substantial, not marginal.
  EXPECT_GT(static_cast<double>(enc.raw_size_bytes) /
                static_cast<double>(enc.encoded_size_bytes),
            2.0);
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[(static_cast<unsigned char>(c) >> 4) & 0xf]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

engine::WriteOp Op(engine::WriteOpKind kind, const std::string& table,
                   sql::Value pk, sql::Row after) {
  engine::WriteOp op;
  op.kind = kind;
  op.database = "bank";
  op.table = table;
  op.primary_key = std::move(pk);
  op.after = std::move(after);
  return op;
}

/// One batch that reaches every branch of the encoder's state: a statement
/// text repeated across entries, a string value equal to an earlier table
/// name, XOR deltas over interleaved tables (accounts, audit, accounts: the
/// second accounts row's reference is two ops back), a delete between two
/// updates of one table, a statement-only entry, and NULL, bool, double and
/// negative values.
std::vector<ReplicationEntry> GoldenBatch() {
  using engine::WriteOpKind;
  using sql::Value;
  const std::string kStmt = "UPDATE accounts SET balance = balance + 1";
  ReplicationEntry e1;
  e1.version = 10;
  e1.origin_commit_us = 1000;
  e1.statements = {kStmt};
  e1.writeset.ops = {
      Op(WriteOpKind::kUpdate, "accounts", Value::Int(1),
         {Value::Int(1), Value::Int(101), Value::String("ann"),
          Value::Bool(true)}),
      Op(WriteOpKind::kInsert, "audit", Value::Int(-7),
         {Value::Int(-7), Value::String("accounts"), Value::Double(-2.5),
          Value::Null()}),
      Op(WriteOpKind::kUpdate, "accounts", Value::Int(2),
         {Value::Int(2), Value::Int(-40), Value::String("ben"),
          Value::Bool(false)})};
  ReplicationEntry e2;
  e2.version = 11;
  e2.origin_commit_us = 1500;
  e2.statements = {kStmt, "DELETE FROM accounts WHERE id = 3"};
  e2.writeset.ops = {
      Op(WriteOpKind::kUpdate, "accounts", Value::Int(2),
         {Value::Int(2), Value::Int(-39), Value::String("ben"),
          Value::Bool(false)}),
      Op(WriteOpKind::kDelete, "accounts", Value::Int(3), {}),
      Op(WriteOpKind::kUpdate, "accounts", Value::Int(1),
         {Value::Int(1), Value::Int(102), Value::String("ann"),
          Value::Bool(true)})};
  ReplicationEntry e3;
  e3.version = 13;
  e3.origin_commit_us = 1400;  // Negative commit-time delta.
  e3.use_statements = true;
  e3.statements = {"CREATE TABLE t (id INT)", kStmt};
  e3.writeset.incomplete = true;
  return {e1, e2, e3};
}

// Hex recorded from the codec that kept its dictionary and XOR-delta
// references in hash maps of copied strings and rows: the wire bytes, and
// the log bytes built on them, must not move.
TEST(ShipCodecTest, BatchesMatchGoldenBytes) {
  // [dictionary][xor_delta]
  const std::string kGolden[2][2] = {
      {"d55b01000314d00f000152555044415445206163636f756e747320534554206261"
       "6c616e6365203d2062616c616e6365202b203103010862616e6b106163636f756e"
       "7473010204010201ca010306616e6e04000862616e6b0a6175646974010d04010d"
       "03106163636f756e74730200000000000004c000010862616e6b106163636f756e"
       "74730104040104014f030662656e0502e807000252555044415445206163636f75"
       "6e7473205345542062616c616e6365203d2062616c616e6365202b20314244454c"
       "4554452046524f4d206163636f756e7473205748455245206964203d2033030108"
       "62616e6b106163636f756e74730104040104014d030662656e05020862616e6b10"
       "6163636f756e7473010600010862616e6b106163636f756e7473010204010201cc"
       "010306616e6e0404c70103022e435245415445205441424c452074202869642049"
       "4e542952555044415445206163636f756e7473205345542062616c616e6365203d"
       "2062616c616e6365202b203100",
       "d55b01020314d00f000152555044415445206163636f756e747320534554206261"
       "6c616e6365203d2062616c616e6365202b203103010862616e6b106163636f756e"
       "7473010204010201ca010306616e6e04000862616e6b0a6175646974010d04010d"
       "03106163636f756e74730200000000000004c000010862616e6b106163636f756e"
       "7473010404060306bdffffffffffffffff01030662656e0502e807000252555044"
       "415445206163636f756e7473205345542062616c616e6365203d2062616c616e63"
       "65202b20314244454c4554452046524f4d206163636f756e747320574845524520"
       "6964203d203303010862616e6b106163636f756e74730104040600060103066265"
       "6e05020862616e6b106163636f756e7473010600010862616e6b106163636f756e"
       "7473010204060306bfffffffffffffffff010306616e6e0404c70103022e435245"
       "415445205441424c4520742028696420494e542952555044415445206163636f75"
       "6e7473205345542062616c616e6365203d2062616c616e6365202b203100"},
      {"d55b01010314d00f000152555044415445206163636f756e747320534554206261"
       "6c616e6365203d2062616c616e6365202b203103010862616e6b106163636f756e"
       "7473010204010201ca010306616e6e0400030a6175646974010d04010d03050200"
       "000000000004c0000103050104040104014f030662656e0502e807000201424445"
       "4c4554452046524f4d206163636f756e7473205748455245206964203d20330301"
       "03050104040104014d030b05020305010600010305010204010201cc0103070404"
       "c70103022e435245415445205441424c4520742028696420494e54290100",
       "d55b01030314d00f000152555044415445206163636f756e747320534554206261"
       "6c616e6365203d2062616c616e6365202b203103010862616e6b106163636f756e"
       "7473010204010201ca010306616e6e0400030a6175646974010d04010d03050200"
       "000000000004c000010305010404060306bdffffffffffffffff01030662656e05"
       "02e8070002014244454c4554452046524f4d206163636f756e7473205748455245"
       "206964203d20330301030501040406000601030b05020305010600010305010204"
       "060306bfffffffffffffffff0103070404c70103022e435245415445205441424c"
       "4520742028696420494e54290100"}};
  std::vector<ReplicationEntry> batch = GoldenBatch();
  for (bool dict : {false, true}) {
    for (bool xd : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dictionary=" << dict
                                      << " xor_delta=" << xd);
      CodecOptions opts;
      opts.dictionary = dict;
      opts.xor_delta = xd;
      EncodedBatch enc = EncodeBatch(batch, opts);
      EXPECT_EQ(Hex(enc.payload), kGolden[dict][xd]);
      auto dec = DecodeBatch(enc.payload);
      ASSERT_TRUE(dec.ok()) << dec.status().ToString();
      ExpectEntriesEqual(batch, dec.value());
      for (size_t len = 0; len < enc.payload.size(); ++len) {
        EXPECT_FALSE(
            DecodeBatch(std::string_view(enc.payload).substr(0, len)).ok())
            << "prefix of " << len << " bytes decoded";
      }
    }
  }
}

// The log's decoder: one-entry batches decode into the caller's entry,
// whatever it held before, through the same per-entry decoder as
// DecodeBatch, and are rejected on the same inputs.
TEST(ShipCodecTest, DecodeEntryOverwritesTheCallersEntry) {
  std::vector<ReplicationEntry> golden = GoldenBatch();
  Rng rng(77);
  ReplicationEntry reused = RandomEntry(rng, 5);
  for (bool xd : {false, true}) {
    CodecOptions opts;
    opts.xor_delta = xd;
    // Wider and narrower entries in turn: the reused entry's ops, rows and
    // statements grow and shrink.
    for (const ReplicationEntry& e :
         {golden[1], golden[2], golden[0], RandomEntry(rng, 9), golden[1]}) {
      EncodedBatch enc = EncodeBatch({e}, opts);
      ASSERT_TRUE(DecodeEntry(enc.payload, &reused).ok());
      ExpectEntriesEqual({e}, {reused});
      for (size_t len = 0; len < enc.payload.size(); ++len) {
        ReplicationEntry scratch = golden[0];
        EXPECT_FALSE(
            DecodeEntry(std::string_view(enc.payload).substr(0, len), &scratch)
                .ok())
            << "prefix of " << len << " bytes decoded";
      }
      EXPECT_FALSE(DecodeEntry(enc.payload + "x", &reused).ok());
    }
  }
  EncodedBatch two = EncodeBatch({golden[0], golden[1]}, CodecOptions{});
  EXPECT_FALSE(DecodeEntry(two.payload, &reused).ok());
  EncodedBatch none = EncodeBatch({}, CodecOptions{});
  EXPECT_FALSE(DecodeEntry(none.payload, &reused).ok());
}

TEST(ShipCodecTest, FuzzedInputsNeverCrash) {
  Rng rng(999);
  // Pure garbage.
  for (int i = 0; i < 2000; ++i) {
    std::string junk(rng.Next() % 300, '\0');
    for (char& c : junk) c = static_cast<char>(rng.Next());
    auto dec = DecodeBatch(junk);
    if (dec.ok()) continue;  // Vanishingly unlikely but legal.
  }
  // Corrupted and truncated real payloads.
  std::vector<ReplicationEntry> batch;
  for (uint64_t v = 1; v <= 10; ++v) batch.push_back(RandomEntry(rng, v));
  EncodedBatch enc = EncodeBatch(batch, CodecOptions{});
  for (int i = 0; i < 500; ++i) {
    std::string mutated = enc.payload;
    mutated[rng.Next() % mutated.size()] ^= static_cast<char>(1 + rng.Next() % 255);
    auto dec = DecodeBatch(mutated);  // Must return, never crash.
  }
  for (size_t len = 0; len < enc.payload.size(); ++len) {
    auto dec = DecodeBatch(std::string_view(enc.payload.data(), len));
    EXPECT_FALSE(dec.ok()) << "truncated payload at " << len << " decoded";
  }
  // Trailing garbage after a valid payload must be rejected too.
  auto dec = DecodeBatch(enc.payload + "x");
  EXPECT_FALSE(dec.ok());
}

// --- Pipeline ----------------------------------------------------------

struct PipeEnv {
  sim::Simulator sim;
  net::NetworkOptions nopts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Dispatcher> sender;
  std::unique_ptr<net::Dispatcher> receiver;
  // (arrival time, entry count, wire bytes) per received batch.
  std::vector<std::tuple<sim::TimePoint, size_t, int64_t>> batches;
  std::vector<net::Message> raw;

  PipeEnv() {
    nopts.lan_jitter = 0;
    nopts.wan_jitter = 0;
    net = std::make_unique<net::Network>(&sim, nopts);
    sender = std::make_unique<net::Dispatcher>(net.get(), 1);
    receiver = std::make_unique<net::Dispatcher>(net.get(), 2);
    receiver->On(kMsgShipBatch, [this](const net::Message& m) {
      auto ingested = IngestBatch(m);
      ASSERT_TRUE(ingested.ok());
      batches.emplace_back(sim.Now(), ingested.value().size(), m.size_bytes);
      raw.push_back(m);
    });
  }
};

ReplicationEntry SmallEntry(uint64_t version) {
  ReplicationEntry e;
  e.version = version;
  e.origin_commit_us = static_cast<int64_t>(version);
  engine::WriteOp op;
  op.kind = engine::WriteOpKind::kUpdate;
  op.database = "db";
  op.table = "t";
  op.primary_key = sql::Value::Int(static_cast<int64_t>(version));
  op.after = {sql::Value::Int(static_cast<int64_t>(version))};
  e.writeset.ops.push_back(op);
  return e;
}

TEST(ShipPipelineTest, LatencyCapFlushesPartialBatch) {
  PipeEnv env;
  ShipOptions opts;
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  pipe.Enqueue(2, SmallEntry(1));
  env.sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(env.batches.size(), 1u);
  // Shipped at the latency cap, not immediately and not never.
  sim::TimePoint at = std::get<0>(env.batches[0]);
  EXPECT_GE(at, opts.batch_max_delay);
  EXPECT_LE(at, opts.batch_max_delay + 2 * env.nopts.lan_latency);
}

TEST(ShipPipelineTest, SizeCapFlushesFullBatchImmediately) {
  PipeEnv env;
  ShipOptions opts;
  opts.batch_max_bytes = 256;  // A few small entries fill it.
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  for (uint64_t v = 1; v <= 20; ++v) pipe.Enqueue(2, SmallEntry(v));
  env.sim.RunFor(10 * kMillisecond);
  ASSERT_GE(env.batches.size(), 2u);
  size_t total = 0;
  for (auto& b : env.batches) total += std::get<1>(b);
  EXPECT_EQ(total, 20u);
  // The first batch left on the size cap: well before the latency cap.
  EXPECT_LT(std::get<0>(env.batches[0]), opts.batch_max_delay);
}

TEST(ShipPipelineTest, BatchingDisabledShipsPerEntry) {
  PipeEnv env;
  ShipOptions opts;
  opts.batching = false;
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  for (uint64_t v = 1; v <= 5; ++v) pipe.Enqueue(2, SmallEntry(v));
  env.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(env.batches.size(), 5u);
  for (auto& b : env.batches) EXPECT_EQ(std::get<1>(b), 1u);
}

TEST(ShipPipelineTest, IngestSplitsCreditsAndMarksFollowers) {
  PipeEnv env;
  ShipOptions opts;
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  for (uint64_t v = 1; v <= 4; ++v) pipe.Enqueue(2, SmallEntry(v));
  pipe.Flush(2, FlushReason::kSync);
  env.sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(env.raw.size(), 1u);
  auto ingested = IngestBatch(env.raw[0]);
  ASSERT_TRUE(ingested.ok());
  ASSERT_EQ(ingested.value().size(), 4u);
  int64_t credit_sum = 0;
  for (size_t i = 0; i < ingested.value().size(); ++i) {
    const IngestedEntry& ie = ingested.value()[i];
    EXPECT_EQ(ie.group_follower, i > 0);
    EXPECT_EQ(ie.entry.version, i + 1);
    credit_sum += ie.credit_bytes;
  }
  // Credits fully return the wire bytes, no leak and no inflation.
  EXPECT_EQ(credit_sum, env.raw[0].size_bytes);
}

TEST(ShipPipelineTest, ExhaustedWindowStallsUntilCredit) {
  PipeEnv env;
  ShipOptions opts;
  opts.batching = false;
  opts.window_bytes = 64;  // First small batch exhausts it.
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  for (uint64_t v = 1; v <= 6; ++v) pipe.Enqueue(2, SmallEntry(v));
  env.sim.RunFor(20 * kMillisecond);
  auto delivered = [&] {
    size_t total = 0;
    for (auto& b : env.batches) total += std::get<1>(b);
    return total;
  };
  EXPECT_LT(delivered(), 6u) << "window must stop shipping mid-stream";
  EXPECT_TRUE(pipe.Stalled(2));
  EXPECT_TRUE(pipe.AnyStalled());
  EXPECT_GE(pipe.stall_events(), 1u);
  EXPECT_GT(pipe.QueuedBytes(2), 0);

  // Credit grants are clamped to the configured window, so a slow peer
  // hands back at most window_bytes of runway per grant: keep granting
  // (as an applying replica would) until the queue drains.
  for (int i = 0; i < 10 && delivered() < 6u; ++i) {
    pipe.OnCredit(2, 1 << 20);
    env.sim.RunFor(20 * kMillisecond);
  }
  EXPECT_EQ(delivered(), 6u) << "stalled entries ship after credit grants";
  EXPECT_EQ(pipe.QueuedBytes(2), 0);
}

TEST(ShipPipelineTest, ResetPeerDropsQueueAndRestoresWindow) {
  PipeEnv env;
  ShipOptions opts;
  opts.batching = false;
  opts.window_bytes = 64;
  ShipPipeline pipe(&env.sim, env.sender.get(), opts);
  pipe.SetPeers({2});
  for (uint64_t v = 1; v <= 6; ++v) pipe.Enqueue(2, SmallEntry(v));
  env.sim.RunFor(20 * kMillisecond);
  ASSERT_TRUE(pipe.Stalled(2));
  pipe.ResetPeer(2);
  EXPECT_FALSE(pipe.Stalled(2));
  EXPECT_EQ(pipe.QueuedBytes(2), 0);
  // A fresh window ships again without any credit.
  pipe.Enqueue(2, SmallEntry(7));
  env.sim.RunFor(20 * kMillisecond);
  EXPECT_EQ(std::get<1>(env.batches.back()), 1u);
}

TEST(ShipPipelineTest, FlushScheduleIsDeterministic) {
  auto run = [](uint64_t seed) {
    PipeEnv env;
    ShipOptions opts;
    opts.batch_max_bytes = 400;
    ShipPipeline pipe(&env.sim, env.sender.get(), opts);
    pipe.SetPeers({2});
    Rng rng(seed);
    uint64_t version = 0;
    // Random arrival process: bursts at random offsets.
    for (int burst = 0; burst < 30; ++burst) {
      sim::TimePoint at = static_cast<sim::TimePoint>(rng.Next() % 50) * 100;
      size_t n = 1 + rng.Next() % 6;
      std::vector<ReplicationEntry> entries;
      for (size_t i = 0; i < n; ++i) entries.push_back(RandomEntry(rng, ++version));
      env.sim.Schedule(at, [&pipe, entries] {
        for (const ReplicationEntry& e : entries) pipe.Enqueue(2, e);
      });
    }
    env.sim.RunFor(100 * kMillisecond);
    return env.batches;
  };
  auto a = run(77);
  auto b = run(77);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "batch " << i << " diverged between runs";
  }
  // Different seed => different schedule (sanity that the test can fail).
  auto c = run(78);
  EXPECT_TRUE(a != c);
}

}  // namespace
}  // namespace replidb::ship
