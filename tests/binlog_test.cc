// Tests for the durable segmented binlog (src/binlog): record framing,
// the LogStore durability/fault model, segment rollover and truncation,
// CRC-validated crash recovery ("never apply garbage"), the writeset
// table, the file backend, and end-to-end crash-restart through a
// cluster in every replication mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "binlog/writeset_table.h"
#include "common/rng.h"
#include "engine/image_codec.h"
#include "faults/fault_injector.h"
#include "middleware/cluster.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "ship/codec.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb::binlog {
namespace {

using middleware::GlobalVersion;
using middleware::ReplicationEntry;
using sim::kMillisecond;
using sim::kSecond;

/// Entries with equal-length statements encode to equal-length frames,
/// which is what the exact-boundary rollover tests rely on.
ReplicationEntry Entry(GlobalVersion v) {
  ReplicationEntry e;
  e.version = v;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "UPDATE t SET x = %08llu",
                static_cast<unsigned long long>(v));
  e.statements = {buf};
  e.use_statements = true;
  e.origin_commit_us = static_cast<int64_t>(v) * 1000;
  return e;
}

std::string EntryFrame(const ReplicationEntry& e) {
  std::string payload;
  AppendEntryPayload(e, &payload);
  std::string frame;
  PutRecord(RecordType::kEntry, payload, &frame);
  return frame;
}

size_t FrameBytes(const ReplicationEntry& e) { return EntryFrame(e).size(); }

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

TEST(FormatTest, EntryRecordRoundTrips) {
  ReplicationEntry e = Entry(42);
  std::string frame = EntryFrame(e);
  RecordView view;
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  EXPECT_EQ(view.type, RecordType::kEntry);
  EXPECT_EQ(view.frame_bytes, frame.size());
  ReplicationEntry back;
  ASSERT_TRUE(DecodeEntryPayload(view.payload, &back).ok());
  EXPECT_EQ(back.version, 42u);
  EXPECT_EQ(back.statements, e.statements);
  EXPECT_EQ(back.origin_commit_us, e.origin_commit_us);
}

TEST(FormatTest, CheckpointRecordRoundTrips) {
  CheckpointRecord cp;
  cp.version = 7;
  cp.digests = {{"db.accounts", 0x1234u}, {"db.orders", 0x5678u}};
  cp.taken_at_us = 99;
  std::string frame;
  PutRecord(RecordType::kCheckpoint, EncodeCheckpointPayload(cp), &frame);
  RecordView view;
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  EXPECT_EQ(view.type, RecordType::kCheckpoint);
  Result<CheckpointRecord> back = DecodeCheckpointPayload(view.payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, 7u);
  EXPECT_EQ(back.value().digests, cp.digests);
  EXPECT_EQ(back.value().taken_at_us, 99);
}

TEST(FormatTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Extend(Crc32("12345"), "6789"), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
/// table-driven implementation must agree with.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(FormatTest, SlicedCrc32MatchesBytewiseReference) {
  Rng rng(7);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  for (int i = 0; i < 500; ++i) {
    // Every alignment of the 8-byte blocks, lengths around the block
    // size and well past it.
    size_t offset = rng.Uniform(16);
    size_t len = i < 64 ? static_cast<size_t>(i) : rng.Uniform(2000);
    std::string_view piece = std::string_view(data).substr(offset, len);
    ASSERT_EQ(Crc32(piece), ReferenceCrc32(piece))
        << "offset " << offset << " length " << len;
    size_t split = rng.Uniform(len + 1);
    ASSERT_EQ(Crc32Extend(Crc32(piece.substr(0, split)), piece.substr(split)),
              Crc32(piece))
        << "split at " << split << " of " << len;
  }
}

/// A checkpoint exercising every value type, column flag, sequences,
/// users and triggers.
CheckpointRecord GoldenCheckpoint() {
  CheckpointRecord cp;
  cp.version = 300;
  cp.taken_at_us = 1234567;
  cp.digests = {{"bank.accounts", 0x0123456789abcdefull}, {"bank.audit", 42}};
  engine::BackupImage& img = cp.image;
  img.source_name = "replica-1";
  img.as_of = 300;
  img.has_metadata = true;
  img.has_sequences = true;
  engine::BackupImage::DatabaseImage db;
  db.name = "bank";
  engine::BackupImage::TableImage t;
  t.schema.name = "accounts";
  t.schema.columns = {
      {"id", sql::ValueType::kInt, true, true, false, true},
      {"owner", sql::ValueType::kString, false, false, true, false},
      {"balance", sql::ValueType::kDouble, false, false, false, false},
      {"vip", sql::ValueType::kBool, false, false, false, false}};
  t.schema.primary_key_index = 0;
  t.auto_increment = 17;
  t.row_count = 2;
  engine::PutImageRow({sql::Value::Int(1), sql::Value::String("alice"),
                       sql::Value::Double(10.5), sql::Value::Bool(true)},
                      &t.row_bytes);
  engine::PutImageRow({sql::Value::Int(-2), sql::Value::String("bob"),
                       sql::Value::Null(), sql::Value::Bool(false)},
                      &t.row_bytes);
  db.tables.push_back(std::move(t));
  db.sequences = {{"order_seq", 1000}};
  img.databases.push_back(std::move(db));
  img.users = {"app", "admin"};
  img.trigger_names = {"audit_trg"};
  return cp;
}

/// A checkpoint of a live engine: pins Backup's physical row order too.
/// With `image_after_insert`, the engine takes an image right after the
/// INSERT, so the checkpoint's image is that one patched with the UPDATE
/// and the DELETE rather than a fresh encode.
CheckpointRecord EngineCheckpoint(bool image_after_insert) {
  engine::Rdbms db{engine::RdbmsOptions{}};
  engine::SessionId s = db.Connect().value();
  db.Execute(s,
             "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, "
             "owner TEXT)");
  db.Execute(s,
             "INSERT INTO accounts VALUES (1, 100, 'ann'), (2, 200, 'ben'), "
             "(3, 300, 'cy'), (4, 400, 'di'), (5, 500, 'ed')");
  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  if (image_after_insert) {
    EXPECT_TRUE(db.Backup(bo).ok());
  }
  db.Execute(s, "UPDATE accounts SET balance = balance + 1 WHERE id = 3");
  db.Execute(s, "DELETE FROM accounts WHERE id = 4");
  db.Disconnect(s);
  CheckpointRecord cp;
  cp.version = db.last_commit_seq();
  cp.taken_at_us = 5;
  cp.digests = db.TableDigests();
  cp.image = db.Backup(bo).TakeValue();
  return cp;
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

// The frames below were produced by the byte-at-a-time CRC and the
// copy-through-a-temporary framing that preceded the in-place encoder:
// the on-disk format must not move.
TEST(FormatTest, CheckpointFramesMatchGoldenBytes) {
  const std::string kGolden =
      "474c42520200d900000015579e3fac0287d6120000000000020d62616e6b2e616363"
      "6f756e7473efcdab89674523010a62616e6b2e61756469742a000000000000000972"
      "65706c6963612d31ac020101010462616e6b01086163636f756e747304026964010b"
      "056f776e657203040762616c616e63650200037669700400000000000000000000110"
      "000000000000002040101000000000000000305616c6963650200000000000025400"
      "4010401feffffffffffffff0303626f6200040001096f726465725f736571e803000"
      "00000000002036170700561646d696e010961756469745f747267";
  const std::string kEngineGolden =
      "474c42520200c7000000778f5b9e040500000000000000010d6d61696e2e6163636f"
      "756e7473a2f5760d4fda856902646204010101046d61696e01086163636f756e7473"
      "0302696401010762616c616e63650100056f776e65720300000000000000000000010"
      "000000000000004030101000000000000000164000000000000000303616e6e03010"
      "20000000000000001c800000000000000030362656e0301050000000000000001f40"
      "10000000000000302656403010300000000000000012d01000000000000030263790"
      "0010561646d696e00";
  for (const auto& [cp, golden] :
       {std::make_pair(GoldenCheckpoint(), kGolden),
        std::make_pair(EngineCheckpoint(false), kEngineGolden),
        std::make_pair(EngineCheckpoint(true), kEngineGolden)}) {
    std::string frame;
    std::string payload = EncodeCheckpointPayload(cp);
    PutRecord(RecordType::kCheckpoint, payload, &frame);
    EXPECT_EQ(Hex(frame), golden);
    // Decoding keeps the rows' bytes: encoding the result again must
    // give the same payload.
    Result<CheckpointRecord> back = DecodeCheckpointPayload(payload);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(EncodeCheckpointPayload(back.value()), payload);
    // The log encodes checkpoints in place, into its frame buffer: the
    // bytes it stores must be the same frame.
    MemLogStore store;
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
    Result<std::string> stored = store.Read(0);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(Hex(stored.value()), golden);
  }
}

/// An entry whose encoding reaches the codec's dictionary and XOR-delta
/// state: interleaved tables (accounts, audit, accounts), a string value
/// equal to a table name, and NULL, bool, double and negative values.
ReplicationEntry GoldenEntry() {
  using engine::WriteOpKind;
  using sql::Value;
  auto op = [](WriteOpKind kind, const char* table, Value pk, sql::Row after) {
    engine::WriteOp o;
    o.kind = kind;
    o.database = "bank";
    o.table = table;
    o.primary_key = std::move(pk);
    o.after = std::move(after);
    return o;
  };
  ReplicationEntry e;
  e.version = 10;
  e.origin_commit_us = 1000;
  e.statements = {"UPDATE accounts SET balance = balance + 1"};
  e.writeset.ops = {
      op(WriteOpKind::kUpdate, "accounts", Value::Int(1),
         {Value::Int(1), Value::Int(101), Value::String("ann"),
          Value::Bool(true)}),
      op(WriteOpKind::kInsert, "audit", Value::Int(-7),
         {Value::Int(-7), Value::String("accounts"), Value::Double(-2.5),
          Value::Null()}),
      op(WriteOpKind::kDelete, "accounts", Value::Int(3), {}),
      op(WriteOpKind::kUpdate, "accounts", Value::Int(2),
         {Value::Int(2), Value::Int(-40), Value::String("ben"),
          Value::Bool(false)})};
  return e;
}

// Recorded from the log that encoded an entry through a one-entry batch
// copied into its frame: entry records must not move either.
TEST(FormatTest, EntryFramesMatchGoldenBytes) {
  const std::string kGolden =
      "474c425201008a000000f298a981d55b01030114d00f0001525550444154452061"
      "63636f756e7473205345542062616c616e6365203d2062616c616e6365202b2031"
      "04010862616e6b106163636f756e7473010204010201ca010306616e6e0400030a"
      "6175646974010d04010d03050200000000000004c0000203050106000103050104"
      "04060306bdffffffffffffffff01030662656e05";
  const ReplicationEntry entry = GoldenEntry();
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  LogPosition pos;
  ASSERT_TRUE(log.Append(entry, &pos).ok());
  Result<std::string> stored = store.Read(0);
  ASSERT_TRUE(stored.ok());
  const std::string& frame = stored.value();
  EXPECT_EQ(Hex(frame), kGolden);

  RecordView view;
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  EXPECT_EQ(view.frame_bytes, frame.size());
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(ParseRecord(std::string_view(frame).substr(0, len), &view).ok())
        << "frame prefix of " << len << " bytes parsed";
  }
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  // The payload is a one-entry ship batch.
  auto batch = ship::DecodeBatch(view.payload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 1u);
  for (size_t len = 0; len < view.payload.size(); ++len) {
    EXPECT_FALSE(ship::DecodeBatch(view.payload.substr(0, len)).ok())
        << "payload prefix of " << len << " bytes decoded";
  }
  // Both read paths give the entry back.
  Result<ReplicationEntry> at = log.ReadAt(pos);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  ReplicationEntry next;
  LogCursor cur = log.Cursor(0);
  ASSERT_TRUE(cur.Next(&next));
  for (const ReplicationEntry* back : {&at.value(), &next}) {
    EXPECT_EQ(back->version, entry.version);
    EXPECT_EQ(back->origin_commit_us, entry.origin_commit_us);
    EXPECT_EQ(back->statements, entry.statements);
    ASSERT_EQ(back->writeset.ops.size(), entry.writeset.ops.size());
    for (size_t i = 0; i < entry.writeset.ops.size(); ++i) {
      const engine::WriteOp& want = entry.writeset.ops[i];
      const engine::WriteOp& got = back->writeset.ops[i];
      EXPECT_EQ(got.kind, want.kind) << "op " << i;
      EXPECT_EQ(got.database, want.database) << "op " << i;
      EXPECT_EQ(got.table, want.table) << "op " << i;
      EXPECT_TRUE(got.primary_key == want.primary_key) << "op " << i;
      ASSERT_EQ(got.after.size(), want.after.size()) << "op " << i;
      for (size_t c = 0; c < want.after.size(); ++c) {
        EXPECT_EQ(got.after[c].type(), want.after[c].type());
        EXPECT_TRUE(got.after[c] == want.after[c]) << "op " << i << " col " << c;
      }
    }
  }
}

// A length is checked against the bytes left. Checked as pos + n > size,
// a name declaring 2^64 - 1 bytes wraps the sum and decodes as empty.
TEST(FormatTest, CheckpointDecodeRejectsLengthPastTheEnd) {
  CheckpointRecord cp;
  cp.image.trigger_names = {""};
  std::string payload = EncodeCheckpointPayload(cp);
  ASSERT_TRUE(DecodeCheckpointPayload(payload).ok());
  ASSERT_EQ(payload.back(), '\0');  // The last trigger name's length.
  payload.pop_back();
  payload.append("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10);
  EXPECT_FALSE(DecodeCheckpointPayload(payload).ok());
}

TEST(FormatTest, ParseRejectsCorruptionAndTruncation) {
  std::string frame = EntryFrame(Entry(1));
  RecordView view;
  // Bit flip in the payload: CRC mismatch.
  std::string flipped = frame;
  flipped[kRecordHeaderBytes + 2] ^= 0x01;
  EXPECT_FALSE(ParseRecord(flipped, &view).ok());
  // Bit flip in the header (type byte): CRC mismatch or unknown type.
  std::string badtype = frame;
  badtype[4] = 0x7f;
  EXPECT_FALSE(ParseRecord(badtype, &view).ok());
  // Bad magic.
  std::string badmagic = frame;
  badmagic[0] ^= 0xff;
  EXPECT_FALSE(ParseRecord(badmagic, &view).ok());
  // Torn tails: any prefix shorter than the full frame fails.
  for (size_t cut : {size_t{0}, size_t{4}, kRecordHeaderBytes - 1,
                     kRecordHeaderBytes, frame.size() - 1}) {
    EXPECT_FALSE(ParseRecord(std::string_view(frame).substr(0, cut), &view).ok())
        << "prefix of " << cut << " bytes parsed as a whole record";
  }
}

// ---------------------------------------------------------------------------
// LogStore durability + fault model
// ---------------------------------------------------------------------------

TEST(MemLogStoreTest, DropUnsyncedLosesOnlyTheUnsyncedTail) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "durable").ok());
  ASSERT_TRUE(store.Sync(0).ok());
  ASSERT_TRUE(store.Append(0, "+volatile").ok());
  store.DropUnsynced();
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "durable");
}

TEST(MemLogStoreTest, TornWritePersistsOnlyAPrefixThenSelfClears) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  store.InjectTornWrite(3);
  ASSERT_TRUE(store.Append(0, "abcdef").ok()) << "torn write lies: reports OK";
  EXPECT_FALSE(store.torn_write_armed()) << "fault must self-clear";
  ASSERT_TRUE(store.Append(0, "XY").ok());
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "abcXY");
}

TEST(MemLogStoreTest, PartialSyncLeavesTailVolatile) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "abcdefgh").ok());
  store.InjectPartialSync(4);
  ASSERT_TRUE(store.Sync(0).ok()) << "partial fsync lies: reports OK";
  EXPECT_FALSE(store.partial_sync_armed()) << "fault must self-clear";
  store.DropUnsynced();
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "abcd") << "the lied-about tail vanished";
}

TEST(MemLogStoreTest, FailAppendsModelsWritePathOutage) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  store.FailAppends(true);
  EXPECT_FALSE(store.Append(0, "x").ok());
  store.FailAppends(false);
  EXPECT_TRUE(store.Append(0, "x").ok());
}

TEST(MemLogStoreTest, MetaIsAtomicAndDebugSerializeIsDeterministic) {
  MemLogStore a, b;
  for (MemLogStore* s : {&a, &b}) {
    ASSERT_TRUE(s->Create(3).ok());
    ASSERT_TRUE(s->Append(3, "hello").ok());
    ASSERT_TRUE(s->Sync(3).ok());
    ASSERT_TRUE(s->WriteMeta("apply_watermark", "17").ok());
  }
  EXPECT_EQ(a.DebugSerialize(), b.DebugSerialize());
  Result<std::string> wm = a.ReadMeta("apply_watermark");
  ASSERT_TRUE(wm.ok());
  EXPECT_EQ(wm.value(), "17");
  EXPECT_EQ(a.ReadMeta("never_written").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// SegmentedBinlog: rollover, dedupe, cursor
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, RollsOverAtExactRecordBoundary) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 6; ++v) {
    ASSERT_TRUE(log.Append(Entry(v)).ok());
  }
  // Rollover triggers once the active segment REACHES the cap, so every
  // sealed segment holds exactly two records.
  ASSERT_EQ(log.segments().size(), 3u);
  for (const SegmentInfo& s : log.segments()) {
    EXPECT_EQ(s.records, 2u);
    EXPECT_EQ(s.bytes, 2 * frame);
  }
  EXPECT_EQ(log.segments()[0].base_version, 1u);
  EXPECT_EQ(log.segments()[0].last_version, 2u);
  EXPECT_EQ(log.segments()[2].base_version, 5u);
  EXPECT_EQ(log.segments()[2].last_version, 6u);
}

TEST(SegmentedBinlogTest, RecordsAreNeverSplitAcrossSegments) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  // Cap below one frame: each record still lands whole, one per segment,
  // and the segment exceeds the cap rather than splitting the record.
  opts.segment_max_bytes = static_cast<int64_t>(frame - 1);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 3; ++v) {
    ASSERT_TRUE(log.Append(Entry(v)).ok());
  }
  ASSERT_EQ(log.segments().size(), 3u);
  for (const SegmentInfo& s : log.segments()) {
    EXPECT_EQ(s.records, 1u);
    EXPECT_EQ(s.bytes, frame);
  }
}

TEST(SegmentedBinlogTest, DuplicateAppendIsANoOp) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok()) << "duplicate reports OK";
  ASSERT_TRUE(log.Append(Entry(1)).ok()) << "stale reports OK";
  EXPECT_EQ(log.head_version(), 2u);
  EXPECT_EQ(log.Stats().records, 2u) << "duplicates must not hit the store";
  EXPECT_FALSE(log.Append(Entry(0)).ok()) << "version 0 is invalid";
}

TEST(SegmentedBinlogTest, AppendSupersedingWritesBelowHead) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  ReplicationEntry rewrite = Entry(1);
  rewrite.statements = {"UPDATE t SET x = 111"};
  LogPosition pos;
  ASSERT_TRUE(log.AppendSuperseding(rewrite, &pos).ok());
  EXPECT_EQ(log.head_version(), 2u) << "a rewrite does not move the head";
  EXPECT_EQ(log.Stats().records, 3u) << "append-only: both records kept";
  // The returned position addresses the superseding record.
  Result<ReplicationEntry> at = log.ReadAt(pos);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at.value().statements, rewrite.statements);
  // A raw cursor walk sees both v=1 records, in log order.
  LogCursor cur = log.Cursor(0);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) seen.push_back(e.version);
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{1, 2, 1}));
}

TEST(SegmentedBinlogTest, CursorSkipsCheckpointsAndSeeksPastSegments) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 4; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 4;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 5; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  LogCursor cur = log.Cursor(3);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) seen.push_back(e.version);
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{4, 5, 6, 7, 8}))
      << "entries only, in order, strictly after the start version";
}

TEST(MemLogStoreTest, ReadFromAnOffsetReturnsOnlyTheRequestedBytes) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "abcdefgh").ok());
  EXPECT_EQ(store.Read(0, 2, 3).value(), "cde");
  EXPECT_EQ(store.Read(0, 6, 100).value(), "gh") << "clipped at the end";
  EXPECT_EQ(store.Read(0, 8, 1).value(), "") << "at the end: nothing";
  EXPECT_EQ(store.Read(0).value(), "abcdefgh");
  EXPECT_FALSE(store.Read(1, 0, 1).ok());
}

TEST(SegmentedBinlogTest, ReadAtAddressesEveryRecordExactly) {
  MemLogStore store;
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(3 * FrameBytes(Entry(1)));
  SegmentedBinlog log(&store, opts);
  std::vector<LogPosition> positions;
  for (GlobalVersion v = 1; v <= 7; ++v) {
    LogPosition pos;
    ASSERT_TRUE(log.Append(Entry(v), &pos).ok());
    positions.push_back(pos);
  }
  CheckpointRecord cp;
  cp.version = 7;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 1; v <= 7; ++v) {
    Result<ReplicationEntry> e = log.ReadAt(positions[v - 1]);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(e.value().version, v);
    EXPECT_EQ(e.value().statements, Entry(v).statements);
  }
  LogPosition beyond = positions.back();
  beyond.offset = log.segments().back().bytes + 1;
  EXPECT_FALSE(log.ReadAt(beyond).ok()) << "offset beyond segment";
  LogPosition checkpoint = positions.back();
  checkpoint.offset += FrameBytes(Entry(7));
  EXPECT_FALSE(log.ReadAt(checkpoint).ok()) << "not an entry record";
  LogPosition mid_frame = positions.front();
  mid_frame.offset += 1;
  EXPECT_FALSE(log.ReadAt(mid_frame).ok()) << "not a frame boundary";
}

TEST(LogCursorTest, ResumesAtEndOfLogAndAcrossRollover) {
  MemLogStore store;
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(3 * FrameBytes(Entry(1)));
  SegmentedBinlog log(&store, opts);
  LogCursor cur = log.Cursor(0);
  ReplicationEntry e;
  EXPECT_FALSE(cur.Next(&e)) << "empty log";
  for (GlobalVersion v = 1; v <= 2; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 2;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  std::vector<GlobalVersion> seen;
  ASSERT_TRUE(cur.Next(&e));
  seen.push_back(e.version);
  ASSERT_TRUE(cur.Next(&e));
  seen.push_back(e.version);
  // The checkpoint frame is still unread; what is appended behind it must
  // be found by the same call that skips it.
  for (GlobalVersion v = 3; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  while (cur.Next(&e)) seen.push_back(e.version);
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_GT(log.segments().size(), 2u) << "layout: the appends rolled over";
  ASSERT_TRUE(log.Append(Entry(9)).ok());
  ASSERT_TRUE(cur.Next(&e)) << "resumes after end-of-log";
  EXPECT_EQ(e.version, 9u);
  EXPECT_FALSE(cur.Next(&e));
}

/// One entry whose statement carries a random-length tag: frames differ
/// in size, and a re-appended version differs in content from the
/// version a crash took away.
ReplicationEntry TaggedEntry(GlobalVersion v, Rng* rng) {
  ReplicationEntry e = Entry(v);
  e.statements[0] += " /*" +
                     std::string(rng->Uniform(40),
                                 static_cast<char>('a' + v % 26)) +
                     "*/";
  return e;
}

std::string Describe(const ReplicationEntry& e) {
  return std::to_string(e.version) + ":" + e.statements[0];
}

// A cursor kept across appends, checkpoints, rollovers, truncation and
// crash recovery returns exactly what a fresh cursor opened at the highest
// version it has returned would — the contract that lets the shipper
// resume instead of re-reading the log every tick.
TEST(LogCursorTest, ResumedCursorMatchesAFreshCursor) {
  const size_t frame = FrameBytes(Entry(1));
  // 400 seeds: the rarest interleaving that matters, a partial read that
  // stops just before a buffered checkpoint frame followed by appends,
  // first shows up after a few dozen.
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    MemLogStore store;
    SegmentedLogOptions opts;
    opts.segment_max_bytes = static_cast<int64_t>((2 + seed % 4) * frame);
    // Unsynced appends, so a crash loses a tail the cursor may have read.
    opts.sync_every_append = false;
    SegmentedBinlog log(&store, opts);
    LogCursor resumed = log.Cursor(0);
    GlobalVersion last_seen = 0;
    std::vector<std::string> got;
    auto take = [&](size_t max) {
      ReplicationEntry e;
      for (size_t n = 0; n < max && resumed.Next(&e); ++n) {
        got.push_back(Describe(e));
        last_seen = std::max(last_seen, e.version);
      }
      ASSERT_TRUE(resumed.status().ok()) << resumed.status().ToString();
    };
    auto check = [&](int step) {
      std::vector<std::string> want;
      LogCursor fresh = log.Cursor(last_seen);
      ReplicationEntry e;
      while (fresh.Next(&e)) want.push_back(Describe(e));
      ASSERT_TRUE(fresh.status().ok());
      got.clear();
      take(SIZE_MAX);
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
    };
    for (int step = 0; step < 200; ++step) {
      switch (rng.Uniform(8)) {
        case 0:
        case 1:
        case 2:
          for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
            ASSERT_TRUE(
                log.Append(TaggedEntry(log.head_version() + 1, &rng)).ok());
          }
          break;
        case 3: {
          CheckpointRecord cp;
          cp.version = log.head_version();
          ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
          break;
        }
        case 4:
          log.TruncateThrough(rng.Uniform(log.head_version() + 1));
          break;
        case 5:
          store.DropUnsynced();
          ASSERT_TRUE(log.Recover().ok());
          break;
        case 6:
          take(rng.Uniform(4));  // A partial read: resume mid-segment.
          break;
        default:
          check(step);
          break;
      }
    }
    check(-1);
  }
}

// ---------------------------------------------------------------------------
// Recovery: CRC truncation, torn writes, partial fsync
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, RecoverTruncatesAtFirstBadRecordAndDropsTheRest) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(3 * frame);
  SegmentedBinlog log(&store, opts);
  LogPosition pos4;
  for (GlobalVersion v = 1; v <= 9; ++v) {
    LogPosition pos;
    ASSERT_TRUE(log.Append(Entry(v), &pos).ok());
    if (v == 4) pos4 = pos;
  }
  ASSERT_EQ(log.segments().size(), 3u);
  // Flip one payload byte inside record v=4 (segment 1, first record).
  ASSERT_TRUE(store.CorruptAt(pos4.segment,
                              pos4.offset + kRecordHeaderBytes + 1, 'Z')
                  .ok());
  SegmentedBinlog reopened(&store, opts);
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 3u)
      << "the valid log ends just before the corrupt record";
  EXPECT_EQ(info.value().records, 3u);
  EXPECT_GT(info.value().truncated_bytes, 0u);
  EXPECT_EQ(info.value().dropped_segments, 1u)
      << "the segment after the broken chain is untrusted history";
  // Nothing past the corruption is ever surfaced: a full cursor walk
  // yields exactly the intact prefix, never garbage.
  LogCursor cur = reopened.Cursor(0);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) {
    EXPECT_EQ(e.statements, Entry(e.version).statements)
        << "replayed bytes must be byte-faithful";
    seen.push_back(e.version);
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{1, 2, 3}));
}

TEST(SegmentedBinlogTest, TornWriteIsTruncatedOnRecovery) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  // The next frame persists only its first 7 bytes (mid-header tear).
  store.InjectTornWrite(7);
  ASSERT_TRUE(log.Append(Entry(3)).ok()) << "the writer never learns";
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 2u) << "torn record discarded";
  EXPECT_EQ(info.value().truncated_bytes, 7u);
  // The log is writable again right where the tear was cut off.
  ASSERT_TRUE(reopened.Append(Entry(3)).ok());
  EXPECT_EQ(reopened.head_version(), 3u);
}

TEST(SegmentedBinlogTest, PartialFsyncTailVanishesOnCrash) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  const size_t frame = FrameBytes(Entry(2));
  // The sync after v=2's append silently leaves the whole frame volatile.
  store.InjectPartialSync(frame);
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  store.DropUnsynced();  // Crash.
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 1u)
      << "the acked-but-never-durable record is gone, cleanly";
}

// ---------------------------------------------------------------------------
// Checkpoints + truncation
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, TruncationNeverDropsTheLatestCheckpointSegment) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 4; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 4;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 5; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  ASSERT_GE(log.segments().size(), 3u);
  uint64_t cp_segment = 0;
  size_t before_cp = 0;  // Records in segments strictly before the checkpoint.
  for (const SegmentInfo& s : log.segments()) {
    if (s.has_checkpoint) {
      cp_segment = s.segment;
      break;
    }
    before_cp += s.records;
  }
  ASSERT_GT(before_cp, 0u) << "layout: some entries precede the checkpoint";
  // Everything is <= 8, so all segments before the checkpoint's are
  // droppable — but the checkpoint's own segment must survive even though
  // its whole version span is covered: recovery needs the base image.
  size_t dropped = log.TruncateThrough(8);
  EXPECT_EQ(dropped, before_cp);
  ASSERT_FALSE(log.segments().empty());
  EXPECT_EQ(log.segments().front().segment, cp_segment);
  EXPECT_TRUE(log.segments().front().has_checkpoint);
  EXPECT_EQ(log.truncate_watermark(), 8u);
  // A newer checkpoint releases the pin on the old checkpoint's segment.
  CheckpointRecord cp2;
  cp2.version = 8;
  ASSERT_TRUE(log.AppendCheckpoint(cp2).ok());
  size_t dropped2 = log.TruncateThrough(8);
  EXPECT_GT(dropped2, 0u) << "old checkpoint segment now droppable";
  ASSERT_FALSE(log.segments().empty()) << "at least one segment always kept";
  EXPECT_NE(log.segments().front().segment, cp_segment);
}

// A checkpoint bigger than a segment, as a whole-table image is, fills a
// segment of its own, and that segment spans no versions. Once a newer
// checkpoint supersedes it, truncation must release it: left in place it
// pins every later segment, and the log grows by a boundary's worth per
// checkpoint (a durable replica's segment 0 holds its setup checkpoint).
TEST(SegmentedBinlogTest, SupersededCheckpointOnlySegmentsAreReleased) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(4 * frame);
  SegmentedBinlog log(&store, opts);
  auto checkpoint = [&](GlobalVersion v) {
    CheckpointRecord cp;
    cp.version = v;
    cp.digests = {{std::string(8 * frame, 't'), v}};
    return cp;
  };
  GlobalVersion v = 10;
  ASSERT_TRUE(log.AppendCheckpoint(checkpoint(v)).ok());
  ASSERT_EQ(log.segments().size(), 1u);
  ASSERT_EQ(log.segments().front().last_version, 0u)
      << "layout: the setup checkpoint is alone in segment 0";
  // Each boundary: two full segments of entries, then a checkpoint alone
  // in a third, then a truncation with the replica's slack of one boundary.
  constexpr int kCheckpoints = 12;
  GlobalVersion prev = v, before_prev = v;
  std::vector<BinlogStats> after;
  for (int i = 0; i < kCheckpoints; ++i) {
    for (int k = 0; k < 8; ++k) ASSERT_TRUE(log.Append(Entry(++v)).ok());
    ASSERT_TRUE(log.AppendCheckpoint(checkpoint(v)).ok());
    log.TruncateThrough(prev);
    before_prev = prev;
    prev = v;
    after.push_back(log.Stats());
  }
  // Steady state from the first boundary on: one boundary's entries in
  // two segments, and its checkpoint in a third.
  std::string cp_frame;
  PutRecord(RecordType::kCheckpoint, EncodeCheckpointPayload(checkpoint(v)),
            &cp_frame);
  const uint64_t bound = 8 * FrameBytes(Entry(v)) + cp_frame.size();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_LE(after[i].segments, 3u) << "after checkpoint " << i;
    EXPECT_LE(after[i].total_bytes, bound) << "after checkpoint " << i;
  }
  // Recovery still finds the latest checkpoint and every entry after the
  // previous one.
  SegmentedBinlog reopened(&store, opts);
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().have_checkpoint);
  EXPECT_EQ(info.value().checkpoint.version, v);
  LogCursor cur = reopened.Cursor(before_prev);
  ReplicationEntry e;
  GlobalVersion expect = before_prev;
  while (cur.Next(&e)) EXPECT_EQ(e.version, ++expect);
  EXPECT_EQ(expect, v);
}

TEST(SegmentedBinlogTest, WatermarkAndCheckpointSurviveRecovery) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  for (GlobalVersion v = 1; v <= 5; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 5;
  cp.digests = {{"db.t", 0xfeedu}};
  cp.taken_at_us = 1234;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  ASSERT_TRUE(log.PersistWatermark(5).ok());
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().have_checkpoint);
  EXPECT_EQ(info.value().checkpoint.version, 5u);
  EXPECT_EQ(info.value().checkpoint.digests, cp.digests);
  EXPECT_EQ(info.value().meta_watermark, 5u);
  EXPECT_EQ(reopened.Stats().checkpoint_at_us, 1234);
}

// ---------------------------------------------------------------------------
// Writeset table
// ---------------------------------------------------------------------------

engine::Writeset OneRowWrite(int64_t pk, int64_t balance) {
  engine::Writeset ws;
  engine::WriteOp op;
  op.kind = engine::WriteOpKind::kUpdate;
  op.database = "db";
  op.table = "t";
  op.primary_key = sql::Value::Int(pk);
  op.after = {sql::Value::Int(pk), sql::Value::Int(balance)};
  ws.ops.push_back(op);
  return ws;
}

TEST(WritesetTableTest, CompactedDeltaKeepsOnlyTheLatestImagePerKey) {
  WritesetTable table;
  table.Add(1, OneRowWrite(7, 100));
  table.Add(2, OneRowWrite(7, 200));  // Same row again: supersedes.
  table.Add(3, OneRowWrite(8, 300));
  GlobalVersion as_of = 0;
  engine::Writeset delta = table.CompactedDelta(0, &as_of);
  EXPECT_EQ(as_of, 3u);
  ASSERT_EQ(delta.ops.size(), 2u) << "hot row compacted to one image";
  // Restricted to versions > 2: only the row-8 image qualifies.
  delta = table.CompactedDelta(2, &as_of);
  ASSERT_EQ(delta.ops.size(), 1u);
  EXPECT_EQ(delta.ops[0].primary_key.AsInt(), 8);
}

TEST(WritesetTableTest, RotateFreezesActiveAndDropsCoveredBuffer) {
  WritesetTable table;
  table.Add(1, OneRowWrite(1, 10));
  table.Rotate(1);  // Active -> immutable.
  EXPECT_EQ(table.active_keys(), 0u);
  EXPECT_EQ(table.immutable_keys(), 1u);
  table.Add(2, OneRowWrite(2, 20));
  // Both buffers feed the delta; newer images win on overlap.
  table.Add(3, OneRowWrite(1, 30));
  engine::Writeset delta = table.CompactedDelta(0);
  ASSERT_EQ(delta.ops.size(), 2u);
  table.Rotate(3);  // Previous immutable (v<=1) fully covered: dropped.
  EXPECT_EQ(table.immutable_keys(), 2u);
  EXPECT_EQ(table.active_keys(), 0u);
}

// ---------------------------------------------------------------------------
// File backend (real filesystem, temp dir)
// ---------------------------------------------------------------------------

TEST(FileLogStoreTest, LogSurvivesProcessRestartOnDisk) {
  char tmpl[] = "/tmp/binlog-test-XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  std::string path(dir);
  const size_t frame = FrameBytes(Entry(1));
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedLogOptions opts;
    opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
    SegmentedBinlog log(&store, opts);
    for (GlobalVersion v = 1; v <= 5; ++v) {
      ASSERT_TRUE(log.Append(Entry(v)).ok());
    }
    ASSERT_TRUE(log.PersistWatermark(5).ok());
  }
  // "New process": fresh store + Recover sees everything, including after
  // a mid-frame tear cut into the last file on disk.
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    Result<RecoveryInfo> info = log.Recover();
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().last_version, 5u);
    EXPECT_EQ(info.value().meta_watermark, 5u);
    // Tear the last segment mid-frame, as a crashed kernel would.
    std::vector<uint64_t> segs = store.List();
    ASSERT_FALSE(segs.empty());
    Result<std::string> bytes = store.Read(segs.back());
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(store.Truncate(segs.back(), bytes.value().size() - 5).ok());
  }
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    Result<RecoveryInfo> info = log.Recover();
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().last_version, 4u) << "torn frame truncated";
    EXPECT_GT(info.value().truncated_bytes, 0u);
    // Cleanup.
    for (uint64_t seg : store.List()) (void)store.Delete(seg);
  }
  std::remove((path + "/meta-apply_watermark").c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: durable crash-restart through a cluster, all four modes
// ---------------------------------------------------------------------------

middleware::TxnRequest Write(const std::string& sql) {
  middleware::TxnRequest r;
  r.statements = {sql};
  r.read_only = false;
  return r;
}

std::vector<std::string> AccountsSetup(int rows = 50) {
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

/// Details of the kBinlog flight events `node` recorded that start with
/// `prefix` ("checkpoint v=", "gc v=", "recover "), oldest first.
std::vector<std::string> BinlogEvents(net::NodeId node,
                                      const std::string& prefix) {
  std::vector<std::string> out;
  for (const obs::FlightEvent& e :
       obs::FlightRecorder::Global().NodeEvents(node)) {
    if (e.kind == obs::FlightEventKind::kBinlog &&
        e.detail.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(e.detail);
    }
  }
  return out;
}

/// The version a boundary event names ("checkpoint v=12 ..." -> 12).
GlobalVersion EventVersion(const std::string& detail) {
  size_t at = detail.find("v=");
  return at == std::string::npos ? 0 : std::stoull(detail.substr(at + 2));
}

class BinlogAllModesTest
    : public ::testing::TestWithParam<middleware::ReplicationMode> {};

std::string ModeName(middleware::ReplicationMode mode) {
  switch (mode) {
    case middleware::ReplicationMode::kMasterSlaveAsync:
      return "MsAsync";
    case middleware::ReplicationMode::kMasterSlaveSync:
      return "MsSync";
    case middleware::ReplicationMode::kMultiMasterStatement:
      return "MmStmt";
    default:
      return "MmCert";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BinlogAllModesTest,
    ::testing::Values(middleware::ReplicationMode::kMasterSlaveAsync,
                      middleware::ReplicationMode::kMasterSlaveSync,
                      middleware::ReplicationMode::kMultiMasterStatement,
                      middleware::ReplicationMode::kMultiMasterCertification),
    [](const ::testing::TestParamInfo<middleware::ReplicationMode>& info) {
      return ModeName(info.param);
    });

TEST_P(BinlogAllModesTest, KillMidApplyRestartReplaysAndConverges) {
  obs::FlightRecorder::Global().Reset();
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = GetParam();
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 16;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);

  // Crash replica 2 the instant its engine has applied version 20 — in
  // the middle of the apply stream, not at a quiescent boundary.
  faults::FaultInjector injector(&c.sim);
  injector.KillAfterApply(c.replica(2), 20);

  int submitted = 0, committed = 0;
  for (int i = 0; i < 60; ++i) {
    ++submitted;
    c.driver(0)->Submit(
        Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
              std::to_string(i % 50)),
        [&](const middleware::TxnResult& r) {
          if (r.status.ok()) ++committed;
        });
    c.sim.RunFor(50 * kMillisecond);
  }
  c.sim.RunFor(2 * kSecond);
  ASSERT_TRUE(c.replica(2)->crashed()) << "kill-mid-apply never fired";
  EXPECT_EQ(injector.crashes_injected(), 1);
  GlobalVersion watermark = c.replica(2)->persisted_watermark();
  EXPECT_GE(watermark, 20u) << "apply watermark persisted before the crash";

  c.replica(2)->Restart();
  c.sim.RunFor(15 * kSecond);
  EXPECT_GE(c.replica(2)->recoveries(), 1);
  EXPECT_GT(c.replica(2)->last_recovery_replayed(), 0u)
      << "restart must replay the log tail, not start cold";
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(c.Converged())
      << "after checkpoint+tail recovery every engine digest must match";
  EXPECT_EQ(c.replica(2)->engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash());
  binlog::BinlogStats bl = c.replica(2)->DurableLogStats();
  EXPECT_GT(bl.records, 0u);
  EXPECT_GE(bl.checkpoint_version, 1u) << "setup seeds the first checkpoint";

  // A durable log checkpoints at every boundary: setup plus at least
  // three more, and never a bare GC.
  for (int r = 0; r < 3; ++r) {
    const net::NodeId node = c.replica(r)->id();
    std::vector<std::string> checkpoints = BinlogEvents(node, "checkpoint v=");
    EXPECT_GE(checkpoints.size(), 4u) << "replica " << r;
    EXPECT_TRUE(BinlogEvents(node, "gc v=").empty()) << "replica " << r;
    if (!checkpoints.empty()) {
      EXPECT_EQ(c.replica(r)->DurableLogStats().checkpoint_version,
                EventVersion(checkpoints.back()))
          << "replica " << r << ": the latest boundary is the restart base";
    }
  }
  // The restart began from a boundary's checkpoint, not the setup one.
  std::vector<std::string> setup = BinlogEvents(c.replica(2)->id(),
                                                "checkpoint v=");
  std::vector<std::string> recovered =
      BinlogEvents(c.replica(2)->id(), "recover checkpoint=");
  ASSERT_FALSE(setup.empty());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_GT(std::stoull(recovered[0].substr(recovered[0].find('=') + 1)),
            EventVersion(setup.front()));
}

// Without `durable`, nothing reads a checkpoint back (only a durable
// replica's Restart() rebuilds from its log), so a boundary writes none.
// It still truncates the log behind the previous boundary, so the log
// stays a few segments long.
TEST_P(BinlogAllModesTest, NonDurableBoundariesTruncateWithoutCheckpoints) {
  obs::FlightRecorder::Global().Reset();
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = GetParam();
  opts.replica.binlog.checkpoint_every = 16;
  opts.replica.binlog.segment_max_bytes = 1024;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);

  int committed = 0;
  uint64_t max_segments = 0, max_records = 0;
  for (int i = 0; i < 200; ++i) {
    c.driver(0)->Submit(
        Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
              std::to_string(i % 50)),
        [&](const middleware::TxnResult& r) {
          if (r.status.ok()) ++committed;
        });
    c.sim.RunFor(50 * kMillisecond);
    for (int r = 0; r < 3; ++r) {
      binlog::BinlogStats bl = c.replica(r)->DurableLogStats();
      max_segments = std::max(max_segments, bl.segments);
      max_records = std::max(max_records, bl.records);
    }
  }
  c.sim.RunFor(2 * kSecond);
  EXPECT_EQ(committed, 200);
  EXPECT_TRUE(c.Converged());

  for (int r = 0; r < 3; ++r) {
    binlog::BinlogStats bl = c.replica(r)->DurableLogStats();
    EXPECT_EQ(bl.checkpoint_version, 0u) << "replica " << r;
    EXPECT_EQ(bl.checkpoint_at_us, -1) << "replica " << r;
    for (const SegmentInfo& s : c.replica(r)->durable_log()->segments()) {
      EXPECT_FALSE(s.has_checkpoint)
          << "replica " << r << " segment " << s.segment;
    }
    EXPECT_GE(bl.last_version, 200u);
    EXPECT_GT(bl.truncate_watermark, 0u) << "replica " << r;
    const net::NodeId node = c.replica(r)->id();
    EXPECT_GE(BinlogEvents(node, "gc v=").size(), 4u)
        << "replica " << r << ": setup plus at least three boundaries";
    EXPECT_TRUE(BinlogEvents(node, "checkpoint v=").empty())
        << "replica " << r;
  }
  // At most two boundaries of entries (the slack) plus the segment
  // straddling the older one: far below the 200 written, which take 12 or
  // more segments untruncated.
  EXPECT_LE(max_records, 4 * 16u);
  EXPECT_LE(max_segments, 6u);
  // SHOW REPLICA STATUS: no restart base on any replica.
  std::string status = c.ShowReplicaStatus();
  size_t no_base = 0;
  for (size_t at = status.find("checkpoint_v=0 checkpoint_age_s=-1 ");
       at != std::string::npos;
       at = status.find("checkpoint_v=0 checkpoint_age_s=-1 ", at + 1)) {
    ++no_base;
  }
  EXPECT_EQ(no_base, 3u) << status;
}

// Kill-mid-apply under dependency-aware parallel apply: 4 workers with
// the conflict-graph policy must not change what recovery sees. The
// persisted watermark only ever advances through the in-order visibility
// release, so checkpoint+tail replay resumes from a version-contiguous
// prefix, converges to the same digests — and the restarted replica's
// scheduler starts from a clean state (no conflict keys or barrier
// horizon survive the crash).
TEST_P(BinlogAllModesTest, KillMidParallelApplyRestartConverges) {
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = GetParam();
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 16;
  opts.replica.apply_workers = 4;
  opts.replica.apply_policy = middleware::ApplyPolicy::kConflictGraph;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);

  faults::FaultInjector injector(&c.sim);
  injector.KillAfterApply(c.replica(2), 20);

  int committed = 0;
  for (int i = 0; i < 60; ++i) {
    // Bursts of four writes over a handful of hot rows: the conflict
    // graph sees both overlap (distinct rows) and dependencies (repeats).
    for (int j = 0; j < 4; ++j) {
      c.driver(0)->Submit(
          Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
                std::to_string((i * 4 + j) % 10)),
          [&](const middleware::TxnResult& r) {
            if (r.status.ok()) ++committed;
          });
    }
    c.sim.RunFor(50 * kMillisecond);
  }
  c.sim.RunFor(2 * kSecond);
  ASSERT_TRUE(c.replica(2)->crashed()) << "kill-mid-apply never fired";
  GlobalVersion watermark = c.replica(2)->persisted_watermark();
  EXPECT_GE(watermark, 20u) << "apply watermark persisted before the crash";

  c.replica(2)->Restart();
  // Recovery ran synchronously in Restart(): the scheduler must have been
  // reset — stale conflict keys from the crashed run could otherwise
  // impose phantom dependencies on the resumed stream.
  EXPECT_EQ(c.replica(2)->apply_scheduler().tracked_keys(), 0u)
      << "restart left stale conflict-key state in the apply scheduler";
  c.sim.RunFor(15 * kSecond);
  EXPECT_GE(c.replica(2)->recoveries(), 1);
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(c.Converged())
      << "parallel apply + crash-restart must still converge";
  EXPECT_EQ(c.replica(2)->engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash());
}

// A boundary truncates nothing above the previous boundary. The slack
// matters without any checkpoint: a 2-safe commit whose entry already
// left with the periodic shipper re-reads it from the master's log to
// request the receipt acks. Cut right up to the current version, the log
// can lose that entry, and the acks never come: the client is told the
// write failed although it committed. Every replica must hold exactly
// one increment per acked write.
TEST(BinlogClusterTest, NonDurableSyncClusterAppliesEveryAckedWriteOnce) {
  workload::MicroWorkload::Options wo;
  wo.rows = 150;
  wo.write_fraction = 0.4;
  wo.hot_fraction = 0.3;
  wo.hot_rows = 5;
  workload::MicroWorkload w(wo);
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.drivers = 4;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveSync;
  opts.driver.max_retries = 6;
  opts.replica.binlog.checkpoint_every = 16;
  opts.replica.binlog.segment_max_bytes = 1024;
  middleware::Cluster c(std::move(opts));
  c.Setup(w.SetupStatements());
  c.Start();

  std::vector<std::unique_ptr<workload::ClosedLoopGenerator>> gens;
  sim::TimePoint stop = c.sim.Now() + 8 * kSecond;
  for (int d = 0; d < 4; ++d) {
    gens.push_back(std::make_unique<workload::ClosedLoopGenerator>(
        &c.sim, c.driver(d), &w, /*clients=*/4, 0,
        static_cast<uint64_t>(100 + d)));
    gens.back()->Arm(stop);
  }
  c.sim.RunUntil(stop);
  c.sim.RunFor(10 * kSecond);

  uint64_t committed_writes = 0;
  for (auto& g : gens) committed_writes += g->stats().write_latency_ms.count();
  ASSERT_GT(committed_writes, 100u);
  EXPECT_GT(c.replica(0)->DurableLogStats().truncate_watermark, 0u)
      << "the master's log must have been truncated";
  EXPECT_TRUE(c.Converged());
  EXPECT_EQ(c.TotalApplyErrors(), 0u);
  const int64_t expected = 150 * 1000 + static_cast<int64_t>(committed_writes);
  for (int i = 0; i < 3; ++i) {
    engine::Rdbms* db = c.replica(i)->engine();
    engine::SessionId s = db->Connect().value();
    engine::ExecResult r = db->Execute(s, "SELECT SUM(balance) FROM accounts");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.rows[0][0].AsInt(), expected)
        << "replica " << i << " lost or duplicated an acked increment";
    db->Disconnect(s);
  }
}

// With checkpoint_every = 0 a durable log keeps only its setup checkpoint,
// and no later image ever drains the table's change record. The record
// must stop at the table's row count, by dropping the kept image, and a
// later image must still equal a fresh scan.
TEST(BinlogClusterTest, ImageChangeRecordStaysBoundedWithoutBoundaries) {
  constexpr int64_t kRows = 200;
  workload::MicroWorkload::Options wo;
  wo.rows = kRows;
  wo.write_fraction = 1.0;
  workload::MicroWorkload w(wo);
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 0;
  middleware::Cluster c(std::move(opts));
  c.Setup(w.SetupStatements());
  c.Start();
  const size_t n = c.replicas.size();
  std::vector<int64_t> setup_bytes(n);
  std::vector<bool> dropped(n, false);
  auto db_of = [&](size_t r) {
    return c.replica(static_cast<int>(r))->engine();
  };
  auto gauge_of = [&](size_t r) {
    return obs::MetricsRegistry::Global()
        .GetGauge("replica." +
                  std::to_string(c.replica(static_cast<int>(r))->id()) +
                  ".image_bytes")
        ->value();
  };
  for (size_t r = 0; r < n; ++r) {
    setup_bytes[r] = db_of(r)->ImageCacheBytes();
    ASSERT_GT(setup_bytes[r], 0) << "the setup checkpoint keeps an image";
  }
  const engine::CommitSeq start = db_of(0)->last_commit_seq();

  workload::OpenLoopGenerator gen(&c.sim, c.driver(0), &w, /*rate_tps=*/400,
                                  /*seed=*/7);
  gen.Arm(c.sim.Now() + 3 * kSecond);
  for (int i = 0; i < 400; ++i) {
    c.sim.RunFor(10 * kMillisecond);
    for (size_t r = 0; r < n; ++r) {
      // Nothing images the table again, so any growth is the record:
      // 8 bytes per recorded row, at most one per row of the table.
      int64_t bytes = db_of(r)->ImageCacheBytes();
      // A slave publishes the gauge right after each apply.
      if (r > 0 && bytes != setup_bytes[r]) {
        ASSERT_EQ(gauge_of(r), bytes) << "replica " << r;
      }
      if (bytes == 0) {
        dropped[r] = true;
      } else {
        ASSERT_FALSE(dropped[r]) << "replica " << r << " re-imaged its table";
        ASSERT_LE(bytes - setup_bytes[r], kRows * 8) << "replica " << r;
      }
    }
  }
  ASSERT_GE(db_of(0)->last_commit_seq() - start,
            static_cast<engine::CommitSeq>(2 * kRows));
  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  for (size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(dropped[r]) << "replica " << r;
    EXPECT_EQ(gauge_of(r), 0) << "replica " << r;
    engine::Rdbms* db = db_of(r);
    Result<engine::BackupImage> image = db->Backup(bo);
    ASSERT_TRUE(image.ok());
    const engine::BackupImage::TableImage& table =
        image.value().databases.front().tables.front();
    engine::SessionId s = db->Connect().value();
    engine::ExecResult scan = db->Execute(s, "SELECT * FROM accounts");
    db->Disconnect(s);
    ASSERT_TRUE(scan.ok());
    std::string bytes;
    for (const sql::Row& row : scan.rows) engine::PutImageRow(row, &bytes);
    EXPECT_EQ(table.row_count, static_cast<uint64_t>(kRows));
    EXPECT_TRUE(table.row_bytes == bytes) << "replica " << r;
  }
}

TEST(BinlogDeathTest, ReplayDigestMismatchDumpsBinlogFlightState) {
  // A forged checkpoint whose digests disagree with its image must kill
  // the replica at recovery time (never serve from unverified state), and
  // the flight recorder dump must ride along with the abort, carrying the
  // binlog lifecycle events for the post-mortem.
  obs::FlightRecorder::InstallCheckHook();
  middleware::ClusterOptions opts;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
  opts.replica.binlog.durable = true;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);
  middleware::ReplicaNode* r = c.replica(2);
  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  Result<engine::BackupImage> image = r->engine()->Backup(bo);
  ASSERT_TRUE(image.ok());
  CheckpointRecord forged;
  forged.version = r->durable_log()->head_version();
  forged.image = image.TakeValue();
  forged.digests = {{"db.accounts", 0xdeadbeefu}};  // Lies about the image.
  ASSERT_TRUE(r->durable_log()->AppendCheckpoint(forged).ok());
  EXPECT_DEATH(
      {
        r->Crash();
        r->Restart();
      },
      "restored engine digests do not match checkpoint.*flight recorder.*"
      "binlog");
}

// ---------------------------------------------------------------------------
// Soak: every replica's log levels off under steady load
// ---------------------------------------------------------------------------

using SoakParam = std::tuple<middleware::ReplicationMode, bool /*durable*/>;

class ReplicaLogSoakTest : public ::testing::TestWithParam<SoakParam> {};

INSTANTIATE_TEST_SUITE_P(
    ModesAndDurability, ReplicaLogSoakTest,
    ::testing::Combine(
        ::testing::Values(
            middleware::ReplicationMode::kMasterSlaveAsync,
            middleware::ReplicationMode::kMasterSlaveSync,
            middleware::ReplicationMode::kMultiMasterStatement,
            middleware::ReplicationMode::kMultiMasterCertification),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return ModeName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Durable" : "_Volatile");
    });

// An update-only load over a fixed row count: the data does not grow, so
// no replica's log may either. Each log is sampled every 10 ms through
// more than thirty boundaries, and its peak over the last third of the
// samples may not exceed its peak over the middle third by more than one
// segment: truncation is segment-granular, so where the segment edges
// fall moves a level log's peak by up to that much. A log that keeps a
// boundary it should have dropped grows by several segments per third.
// The segments are smaller than the table image, as the default segment
// is against a real table, so a checkpoint fills segments of its own.
TEST_P(ReplicaLogSoakTest, SegmentsAndBytesLevelOff) {
  auto [mode, durable] = GetParam();
  constexpr int64_t kSegmentBytes = 4 * 1024;
  constexpr uint64_t kMaxEntryFrame = 256;  // One row's update: ~115 bytes.
  workload::MicroWorkload::Options wo;
  wo.rows = 2000;
  wo.write_fraction = 1.0;
  workload::MicroWorkload w(wo);
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = mode;
  opts.replica.binlog.durable = durable;
  opts.replica.binlog.checkpoint_every = 64;
  opts.replica.binlog.segment_max_bytes = kSegmentBytes;
  middleware::Cluster c(std::move(opts));
  c.Setup(w.SetupStatements());
  c.Start();

  workload::OpenLoopGenerator gen(&c.sim, c.driver(0), &w, /*rate_tps=*/400,
                                  /*seed=*/7);
  gen.Arm(c.sim.Now() + 6 * kSecond);
  const GlobalVersion start = c.replica(0)->DurableLogStats().last_version;
  std::vector<std::vector<BinlogStats>> samples(c.replicas.size());
  for (int i = 0; i < 600; ++i) {
    c.sim.RunFor(10 * kMillisecond);
    for (size_t r = 0; r < c.replicas.size(); ++r) {
      samples[r].push_back(c.replicas[r]->DurableLogStats());
    }
  }
  c.sim.RunFor(2 * kSecond);  // Drain before the convergence check.
  for (size_t r = 0; r < samples.size(); ++r) {
    const std::vector<BinlogStats>& s = samples[r];
    ASSERT_GE(s.back().last_version, start + 30 * 64)
        << "replica " << r << " must pass thirty boundaries";
    const size_t third = s.size() / 3;
    auto peak = [&](size_t from, size_t to, auto field) {
      uint64_t m = 0;
      for (size_t i = from; i < to; ++i) m = std::max<uint64_t>(m, field(s[i]));
      return m;
    };
    auto segments = [](const BinlogStats& b) { return b.segments; };
    auto bytes = [](const BinlogStats& b) { return b.total_bytes; };
    EXPECT_LE(peak(2 * third, s.size(), segments),
              peak(third, 2 * third, segments) + 1)
        << "replica " << r << ": segments still growing";
    EXPECT_LE(peak(2 * third, s.size(), bytes),
              peak(third, 2 * third, bytes) + kSegmentBytes + kMaxEntryFrame)
        << "replica " << r << ": log bytes still growing";
  }
  EXPECT_TRUE(c.Converged());
}

}  // namespace
}  // namespace replidb::binlog
